"""Input checks shared by the layers: integers that must not be truncated,
the line format of the text tables, and the tables shipped with the package."""

from __future__ import annotations


def exact_int(x) -> int:
    """x as an int; a non-integral value raises ValueError instead of being
    truncated."""
    y = int(x)
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


def text_rows(text: str):
    """(file line number, whitespace-separated fields) of each line that has
    any left once its '#' comment is removed."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def load_shipped(name: str, parse):
    """parse applied to the text of the shipped table data/<name>."""
    from importlib.resources import files

    return parse(files("nlk3").joinpath(f"data/{name}").read_text())
