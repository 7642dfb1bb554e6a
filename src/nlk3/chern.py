"""Chern-number enumeration of singular members in two families of
quasi-polarized K3 surfaces: nets of conics over a surface, and unigonal
families fibered over the projective plane.

Counts come out as degrees of classes in the truncated ring Q[z]/(z^3) of the
base plane; everything is exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from ._inputs import Record, exact_int, load_shipped, text_number, text_rows


class P2Class(Record):
    """Class a0 + a1 z + a2 z^2 on the plane, z the hyperplane class."""

    _fields = ("c0", "c1", "c2")

    def __init__(self, c0=0, c1=0, c2=0):
        vars(self).update(c0=Fraction(c0), c1=Fraction(c1), c2=Fraction(c2))

    def __add__(self, other):
        other = _as_class(other)
        return P2Class._trusted(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    __radd__ = __add__

    def __neg__(self):
        return P2Class._trusted(-self.c0, -self.c1, -self.c2)

    def __sub__(self, other):
        return self + (-_as_class(other))

    def __rsub__(self, other):
        return _as_class(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            return P2Class._trusted(self.c0 * other, self.c1 * other, self.c2 * other)
        o = _as_class(other)
        return P2Class._trusted(
            self.c0 * o.c0,
            self.c0 * o.c1 + self.c1 * o.c0,
            self.c0 * o.c2 + self.c1 * o.c1 + self.c2 * o.c0,
        )

    __rmul__ = __mul__

    @property
    def degree(self) -> Fraction:
        """Coefficient of the point class z^2."""
        return self.c2


ZETA = P2Class(0, 1, 0)


def _as_class(x) -> P2Class:
    if isinstance(x, P2Class):
        return x
    return P2Class(Fraction(x))


def _int_degree(cls: P2Class, what: str) -> int:
    d = cls.degree
    if d.denominator != 1:
        raise ValueError(f"{what} has non-integral degree {d}")
    return int(d)


# ---------------------------------------------------------------------------
# nets of conics


class SurfaceChernData(Record):
    """Intersection numbers of the base surface data (alpha^2, alpha.c1,
    c1^2, c2) driving the net-of-conics counts."""

    _fields = ("alpha2", "alpha_c1", "c1sq", "c2")

    def __init__(self, alpha2: int, alpha_c1: int, c1sq: int, c2: int):
        vars(self).update(alpha2=exact_int(alpha2), alpha_c1=exact_int(alpha_c1), c1sq=exact_int(c1sq), c2=exact_int(c2))


def net_invariants(data: SurfaceChernData) -> tuple[int, int, int]:
    """Genus g, degree d and Euler-type invariant e of the family."""
    twice = 9 * data.alpha2 + 9 * data.alpha_c1 + 2 * data.c1sq
    if twice % 2 != 0:
        raise ValueError(f"non-integral genus: (9a^2 + 9a.c1 + 2c1^2)/2 = {twice}/2")
    g = twice // 2 + 1
    d = 3 * data.alpha2 + data.alpha_c1
    e = 3 * data.alpha2 + 2 * data.alpha_c1 + data.c2
    return g, d, e


def net_counts(data: SurfaceChernData, degree: int = 1) -> tuple[int, int]:
    """(cuspidal, binodal) member counts of the net, scaled by the net degree."""
    degree = exact_int(degree)
    g, d, e = net_invariants(data)
    a2 = 2 * g - d + 2 * (e - 1)
    # (e-1)(e-2) is a product of consecutive integers, so it is even
    a11 = d - 3 * g - e * (e - 1) + 3 * (e - 1) * (e - 2) // 2
    return degree * a2, degree * a11


# ---------------------------------------------------------------------------
# unigonal families


TABLE_CLASSES = ("a1", "a2", "a3", "a1sq", "a1a2", "delta")


class UnigonalTable(Record):
    """Pushforwards to the plane of the tautological classes a1, a2, a3,
    a1^2, a1*a2 and of the double-point class delta, each a P2Class."""

    _fields = TABLE_CLASSES

    def __init__(self, a1: P2Class, a2: P2Class, a3: P2Class, a1sq: P2Class, a1a2: P2Class, delta: P2Class):
        vars(self).update(a1=a1, a2=a2, a3=a3, a1sq=a1sq, a1a2=a1a2, delta=delta)


def loads_unigonal(text: str) -> UnigonalTable:
    """Parse a pushforward table: lines `name c0 c1 c2`, '#' comments."""
    seen = {}
    for lineno, parts in text_rows(text, "name c0 c1 c2"):
        name = parts[0]
        if name not in TABLE_CLASSES:
            raise ValueError(f"line {lineno}: unknown class {name!r}; valid: {', '.join(TABLE_CLASSES)}")
        if name in seen:
            raise ValueError(f"line {lineno}: duplicate entry for {name!r}")
        seen[name] = P2Class(*(text_number(p, lineno, "malformed rational", Fraction) for p in parts[1:]))
    missing = [n for n in TABLE_CLASSES if n not in seen]
    if missing:
        raise ValueError(f"missing table entries: {', '.join(missing)}")
    return UnigonalTable(**seen)


def default_unigonal_table() -> UnigonalTable:
    return load_shipped("unigonal.tbl", loads_unigonal)


_BETA1 = 3 * ZETA
_BETA2 = 3 * ZETA * ZETA


def _cuspidal_class(table: UnigonalTable) -> P2Class:
    """The cuspidal class C = 4 a1 beta1^2 + 2 (a1^2 + a2) beta1 - 2 a1 beta2
    + 2 a1 a2, for beta1 = 3z and beta2 = 3z^2."""
    return 4 * table.a1 * _BETA1 * _BETA1 + 2 * (table.a1sq + table.a2) * _BETA1 - 2 * table.a1 * _BETA2 + 2 * table.a1a2


def _double_point_class(table: UnigonalTable) -> P2Class:
    """The double-point class delta^2 - beta1 delta - a3 + a1 beta2 - C, for
    the cuspidal class C."""
    delta = table.delta
    return delta * delta - _BETA1 * delta - table.a3 + table.a1 * _BETA2 - _cuspidal_class(table)


def unigonal_a2(table: UnigonalTable) -> int:
    """Cuspidal member count of the unigonal family: the degree of the
    cuspidal class C."""
    return _int_degree(_cuspidal_class(table), "cuspidal count")


def unigonal_double_point(table: UnigonalTable) -> int:
    """Degree of the double-point cycle of the unigonal family: the degree of
    delta^2 - beta1 delta - a3 + a1 beta2 - C for the cuspidal class C."""
    return _int_degree(_double_point_class(table), "double-point cycle")


def unigonal_counts(table: UnigonalTable) -> tuple[int, int]:
    """(cuspidal, binodal) counts (a2, a11), a11 = dd/2 - a2 for the
    double-point degree dd, which must be even; so dd = 2*(a2 + a11)."""
    a2 = unigonal_a2(table)
    dd = unigonal_double_point(table)
    if dd % 2 != 0:
        raise ValueError(f"double-point degree {dd} is odd: cannot halve into unordered pairs")
    return a2, dd // 2 - a2
