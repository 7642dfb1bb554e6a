"""What the layers share: the frozen value base Record, integers that must
not be truncated, the line format of the text inputs, the number rule of
every typed number, and the tables shipped with the package."""

from __future__ import annotations

import os
from operator import attrgetter


class Record:
    """Base of the frozen value types.

    A subclass names its fields, in order, in _fields, and its constructor
    sets them with vars(self).update(field=value, ...) in that order: that
    copies the keyword dict's key table, so the instance dict is combined,
    not split on shared keys, and CPython 3.11 reads a field from it as fast
    as on a dataclass, three times faster than from a split dict.  ==, hash
    and repr read the fields in that order, as a frozen dataclass's do: ==
    holds only between instances of one class, hash is the hash of the
    field tuple, and repr is Name(field=value!r, ...).  Assigning or
    deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple through one C-level getter per class; a getter of
        # one name returns the bare value, so a one-field class wraps it
        get = attrgetter(*cls._fields)
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda self: (get(self),))

    @classmethod
    def _trusted(cls, *values, **extra):
        """The instance with these field values, in _fields order, and the
        extra attributes, built without the constructor's checks: the caller
        vouches that each value is the one the constructor would store."""
        x = object.__new__(cls)
        # the one dict built here becomes the instance dict; updating the
        # materialized one from the pairs would leave it split (shared
        # keys), and CPython 3.11 reads attributes from such a dict about
        # three times slower
        object.__setattr__(x, "__dict__", dict(zip(cls._fields, values), **extra))
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._values
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({body})"


def exact_int(x) -> int:
    """x as an int; a non-integral value raises ValueError instead of being
    truncated."""
    try:
        y = int(x)
    except OverflowError:  # int() of an infinity
        raise ValueError(f"non-integral entry {x!r}") from None
    if y != x:
        raise ValueError(f"non-integral entry {x!r}")
    return y


def exact_ints(xs) -> tuple[int, ...]:
    """The entries of xs as a tuple of ints, each checked by exact_int unless
    all are ints already."""
    xs = tuple(xs)
    # one type scan in C; bool and every other int subclass take exact_int
    if set(map(type, xs)) <= {int}:
        return xs
    return tuple(map(exact_int, xs))


def text_rows(text: str, layout: str | None = None):
    """(file line number, whitespace-separated fields) of each line that has
    any left once its '#' comment is removed.  One leading byte-order mark
    (U+FEFF) is dropped.  Given a layout such as 'm value', a line with
    another field count raises ValueError."""
    width = layout and len(layout.split())
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            if width and len(fields) != width:
                raise ValueError(f"line {lineno}: expected '{layout}', got {len(fields)} fields")
            yield lineno, fields


def number(text: str, parse=int):
    """parse(text) if text holds only ASCII digits, '+', '-', '/' and '.'; else ValueError."""
    # the one number rule of every typed number, in a file or a CLI flag:
    # parse is int or Fraction, and a text parse refuses raises its
    # ValueError, or ZeroDivisionError for Fraction('1/0')
    if not text.strip("0123456789+-/."):
        return parse(text)
    raise ValueError(f"not a plain ASCII number: {text!r}")


def text_number(field: str, lineno: int, message: str, parse=int):
    """number(field, parse), or ValueError('line N: message') if it refuses the field."""
    try:
        return number(field, parse)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"line {lineno}: {message}") from None


def load_shipped(name: str, parse):
    """parse applied to the text of the shipped table data/<name>, read from
    the package directory on disk."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as f:
        return parse(f.read())
