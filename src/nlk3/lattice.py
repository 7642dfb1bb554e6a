"""Even integral lattices with exact integer/rational arithmetic.

Everything here works over Z (or Q where duals force it): Gram matrices,
Smith normal form with unimodular transforms, discriminant groups with their
Q/2Z-valued quadratic form, divisibility and dual classes of vectors, and
orthogonal complements with explicit primitive embeddings.  No floats
anywhere; rationals are fractions.Fraction.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import floordiv, mod, mul

from ._inputs import Record, exact_int, exact_ints, text_number, text_rows


# ---------------------------------------------------------------------------
# integer matrix helpers


def _identity(n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    return m


def _dot(x, y):
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} and {len(y)}")
    return sum(map(mul, x, y))


def _mat_vec(gram, x):
    """gram.x for a symmetric gram, as the sum of x_j * (row j) over the
    nonzero x_j: a basis vector costs one row."""
    if len(x) != len(gram):
        raise ValueError(f"length mismatch: {len(gram)} and {len(x)}")
    out = [0] * len(gram)
    for c, row in zip(x, gram):
        if c:
            out = [s + c * y for s, y in zip(out, row)]
    return out


def _freeze(m):
    """m as a tuple of int tuples, each row through exact_ints."""
    return tuple(map(exact_ints, m))


def det(m) -> int:
    """Determinant of an integer matrix, by fraction-free Bareiss elimination."""
    a = [list(exact_ints(row)) for row in m]
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant requires a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(m):
    """Smith normal form with transforms: returns (d, u, v) with u*m*v = d.

    d is diagonal with non-negative entries and d[i] | d[i+1]; u and v are
    unimodular (det +-1).  All matrices are returned as tuples of tuples.

    u and v are not unique, and the pivot rule fixes them: at each step the
    pivot is the first entry of least |a| in row-major order over the trailing
    block.  The generators of a discriminant group are columns of v, so this
    rule decides their choice and is part of the output contract.
    """
    a = [list(exact_ints(row)) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = _identity(rows)
    v = _identity(cols)

    for k in range(min(rows, cols)):
        while True:
            pivot = min(
                ((abs(a[i][j]), i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j]),
                default=None,
            )
            if pivot is None:
                break
            _, i, j = pivot
            a[i], a[k] = a[k], a[i]
            u[i], u[k] = u[k], u[i]
            for r in (*a, *v):
                r[j], r[k] = r[k], r[j]
            # clear column k with row operations, then row k with column
            # operations; the remainders they leave go round again
            p = a[k][k]
            for i in range(k + 1, rows):
                if q := a[i][k] // p:
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[k])]
            for j in range(k + 1, cols):
                if q := a[k][j] // p:
                    for r in (*a, *v):
                        r[j] -= q * r[k]
            if any(a[i][k] for i in range(k + 1, rows)) or any(a[k][k + 1 :]):
                continue
            # fold in the first row the pivot does not divide
            offender = next((i for i in range(k + 1, rows) if any(x % p for x in a[i][k + 1 :])), None)
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            u[k] = [x + y for x, y in zip(u[k], u[offender])]

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return tuple(map(tuple, a)), tuple(map(tuple, u)), tuple(map(tuple, v))


# ---------------------------------------------------------------------------
# lattices


class LatticeVector(Record):
    """Integer coordinate vector in a lattice's fixed basis."""

    _fields = ("coords",)

    def __init__(self, coords):
        vars(self).update(coords=exact_ints(coords))


def _coords(v):
    if isinstance(v, LatticeVector):
        return v.coords
    return exact_ints(v)


class IntegralLattice(Record):
    """Even lattice given by an integer Gram matrix (a tuple of int tuple
    rows) and a tuple of basis labels."""

    _fields = ("gram", "labels")

    # (name, g) of a lattice from build_standard, outside the fields: what its
    # summands and U planes follow from; every other lattice has None
    _standard = None

    def __init__(self, gram, labels=None):
        g = _freeze(gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        # report the first offence in row-major order
        for i in range(n):
            if g[i][i] % 2 != 0:
                raise ValueError(f"odd diagonal entry {g[i][i]} at position {i}: lattice must be even")
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i}, {j})")
        if labels is None:
            labels = tuple(f"b{i + 1}" for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError("label count must match rank")
            # from_text splits labels on any whitespace, as str.split does
            if any(s.split() != [s] for s in labels):
                raise ValueError("labels must be nonempty and contain no whitespace")
        vars(self).update(gram=g, labels=labels)
        # lattices key the discriminant_group cache: hash the Gram only once
        vars(self)["_hash"] = hash((g, labels))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so _hash is not pickled
        return IntegralLattice, (self.gram, self.labels)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def determinant(self) -> int:
        return det(self.gram)

    def pairing(self, v, w) -> int:
        return _dot(_coords(v), _mat_vec(self.gram, _coords(w)))

    def norm(self, v) -> int:
        return self.pairing(v, v)

    def describe(self, v) -> str:
        """Human-readable form of a vector, e.g. 'w + 2*e2 + 2*f2'."""
        out = ""
        for c, s in zip(_coords(v), self.labels):
            if c:
                # the sign comes from c alone, so a label may begin with '-'
                term = s if abs(c) == 1 else f"{abs(c)}*{s}"
                if out:
                    out += f" - {term}" if c < 0 else f" + {term}"
                else:
                    out = f"-{term}" if c < 0 else term
        return out or "0"


# ---------------------------------------------------------------------------
# standard lattices

# basis t1..t8: chain t1-t2-...-t7 with t8 attached to t5; arms (1,2,4) at t5
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def _e8_gram():
    g = [[-2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i][j] = g[j][i] = 1
    return _freeze(g)


# basis s1..s7 of E7(-1), the orthogonal complement of t1 in E8(-1), in
# t-coordinates: s1 = t1 + 2*t2 and s_i = t_(i+1) for i >= 2
_E7_IN_E8 = ((1, 2, 0, 0, 0, 0, 0, 0), *map(tuple, _identity(8)[2:]))

# orthogonal summands of the standard lattices: (Gram block, basis labels)
_U1, _U2, _U3 = ((((0, 1), (1, 0)), (f"e{k}", f"f{k}")) for k in (1, 2, 3))
_E8T, _E8U = ((_e8_gram(), tuple(f"{p}{i}" for i in range(1, 9))) for p in "tu")
# E7's Gram is the pairing of its images in E8
_E7S = (
    tuple(tuple(_dot(x, _mat_vec(_E8T[0], y)) for y in _E7_IN_E8) for x in _E7_IN_E8),
    tuple(f"s{i}" for i in range(1, 8)),
)
_SUMMANDS = {
    "U": (_U1,),
    "E8neg": (_E8T,),
    "K3": (_U1, _U2, _U3, _E8T, _E8U),
    # both period lattices lead with <-(2g-2)>, basis w
    "LambdaG": (_U2, _U3, _E8T, _E8U),
    "LambdaA1": (_U2, _U3, _E8U, _E7S),
    "E7neg": (_E7S,),
    "Uperp": (_U1, _U2, _E8T, _E8U),
}
STANDARD_NAMES = tuple(_SUMMANDS)
# the standard lattices that take a genus g
PERIOD_LATTICES = ("LambdaG", "LambdaA1")


def _block_diagonal(blocks):
    """The orthogonal sum of (Gram, labels) blocks as one Gram and label tuple."""
    n = sum(len(gram) for gram, _ in blocks)
    rows, labels = [], ()
    offset = 0
    for gram, names in blocks:
        for row in gram:
            rows.append((0,) * offset + tuple(row) + (0,) * (n - offset - len(row)))
        offset += len(gram)
        labels += names
    return rows, labels


def build_standard(name: str, g: int | None = None) -> IntegralLattice:
    """Construct one of the named lattices.

    U            hyperbolic plane, basis (e1, f1)
    E8neg        negative definite E8, basis t1..t8
    E7neg        negative definite E7 presented as the complement of t1 in
                 E8neg, basis s1..s7 with s1^2 = -6 (s1 is the t1+2*t2 image)
    Uperp        U^2 + E8neg^2, unimodular of rank 20
    K3           U^3 + E8neg^2, rank 22, determinant -1
    LambdaG      <-(2g-2)> + U^2 + E8neg^2, rank 21 (requires g)
    LambdaA1     <-(2g-2)> + U^2 + E8neg + E7neg, rank 20 (requires g)

    LambdaG and LambdaA1 are the polarized K3 period lattices: inside K3 they
    are the complements of e1+(g-1)f1 (resp. of {e1+(g-1)f1, t1}), with the
    rank-1 generator w = e1-(g-1)f1.
    """
    if name in PERIOD_LATTICES:
        if g is None:
            raise ValueError(f"{name} requires the genus g")
        g = exact_int(g)
        if g < 2:
            raise ValueError("genus must be at least 2")
    elif g is not None:
        raise ValueError(f"{name} does not take a genus")

    if name not in _SUMMANDS:
        raise ValueError(f"unknown lattice {name!r}; valid names: {', '.join(STANDARD_NAMES)}")
    template = _standard_template(name)[0]
    gram = template.gram
    if g is not None:
        gram = ((-(2 * g - 2),) + gram[0][1:], *gram[1:])
    # the template's checks cover every entry but w's -(2g-2), an even int,
    # so the fields are set without running them again
    labels = template.labels
    return IntegralLattice._trusted(gram, labels, _hash=hash((gram, labels)), _standard=(name, g))


@lru_cache(maxsize=len(_SUMMANDS))
def _standard_template(name) -> tuple[IntegralLattice, tuple[tuple[int, int], ...], tuple]:
    """(template, planes, table) of a standard name, built once.

    The template is the name's lattice, validated; every lattice built under
    the name shares its rows, and a period lattice's w entry is 0.  The
    planes are hyperbolic_planes, and the table is the _generator_table of
    the fixed summands (all but <-(2g-2)>): none of them depends on g.
    """
    summands = _SUMMANDS[name]
    # a period lattice leads with w, its entry -(2g-2) left 0 here
    lead = ((((0,),), ("w",)),) if name in PERIOD_LATTICES else ()
    template = IntegralLattice(*_block_diagonal((*lead, *summands)))
    # the group of an orthogonal sum is the sum of the summands' groups; a
    # unimodular summand (U, E8neg) has none and is not factored, and no name
    # holds more than one other summand (E7neg), whose table is the name's
    table = ((), (), (), ())
    for gram, names in summands:
        if abs(det(gram)) != 1:
            # the block starts where its first label does
            table = _generator_table(gram, template.labels.index(names[0]), template.rank)
    return template, hyperbolic_planes(template), table


def hyperbolic_planes(l: IntegralLattice) -> tuple[tuple[int, int], ...]:
    """Indices (i, j) of basis pairs spanning pairwise orthogonal U summands,
    as a tuple: the planes of a standard name are shared by its lattices.

    (i, j) spans an orthogonal U exactly when the only nonzero entry of row i
    is gram[i][j] = 1 and the only nonzero entry of row j is gram[j][i].  A
    lattice of build_standard takes its name's planes, scanned once; any
    other lattice is scanned on each call.
    """
    if l._standard is not None:
        return _standard_template(l._standard[0])[1]
    n = l.rank
    planes = []
    for i, row in enumerate(l.gram):
        if row.count(0) == n - 1 and 1 in row:
            j = row.index(1)
            if j > i and l.gram[j].count(0) == n - 1:
                planes.append((i, j))
    return tuple(planes)


# ---------------------------------------------------------------------------
# discriminant groups


def _order(factors, residues) -> int:
    """The order of the class with these residues over these invariant
    factors: the lcm of the d_i/gcd(a_i, d_i)."""
    return lcm(1, *map(floordiv, factors, map(gcd, residues, factors)))


class DiscElement(Record):
    """Element of a discriminant group, as residues (a tuple of ints) over
    the invariant factors (a tuple of ints, each at least 1)."""

    _fields = ("factors", "residues")

    def __init__(self, factors, residues):
        factors, residues = exact_ints(factors), exact_ints(residues)
        if len(residues) != len(factors):
            raise ValueError(f"{len(residues)} residues for {len(factors)} invariant factors")
        for d in factors:
            if d < 1:
                raise ValueError(f"invariant factor {d} is below 1")
        vars(self).update(factors=factors, residues=tuple(map(mod, residues, factors)))

    def __add__(self, other):
        if self.factors != other.factors:
            raise ValueError("elements of different groups")
        return DiscElement._trusted(
            self.factors, tuple((a + b) % d for a, b, d in zip(self.residues, other.residues, self.factors))
        )

    def __rmul__(self, c: int):
        c = exact_int(c)
        return DiscElement._trusted(self.factors, tuple(c * a % d for a, d in zip(self.residues, self.factors)))

    def order(self) -> int:
        return _order(self.factors, self.residues)


def _generator_table(gram, offset=0, rank=None) -> tuple[tuple[int, ...], tuple, tuple, tuple]:
    """(factors, columns, pairings, supports) of the group of a Gram block
    at this offset in a lattice of this rank (by default the block alone).

    For each invariant factor d_i > 1 of the Smith normal form u*G*v = d:
    d_i, column i of v padded to the rank, the pairings v_i.G.v_j, and row i
    of u as its nonzero (index, entry) pairs, indexed in the whole lattice.
    """
    d, u, v = smith_normal_form(gram)
    n = len(d)
    if any(d[i][i] == 0 for i in range(n)):
        raise ValueError("degenerate lattice has no discriminant group")
    keep = [i for i in range(n) if d[i][i] > 1]
    cols = [tuple(row[i] for row in v) for i in keep]
    gcols = [_mat_vec(gram, col) for col in cols]
    head, tail = (0,) * offset, (0,) * ((rank or n) - offset - n)
    padded = tuple((*head, *col, *tail) for col in cols)
    pairings = tuple(tuple(_dot(ci, gcj) for gcj in gcols) for ci in cols)
    supports = tuple(tuple((offset + j, c) for j, c in enumerate(u[i]) if c) for i in keep)
    return tuple(d[i][i] for i in keep), padded, pairings, supports


class DiscriminantGroup:
    """L-dual modulo L for a nondegenerate even lattice L.

    Invariant factors come from the Smith normal form u*G*v = d of the Gram
    matrix: the class group is the product of Z/d_i over the nontrivial d_i,
    and the i-th generator lifts to (column i of v)/d_i in the dual lattice.
    With D the largest d_i (the exponent of the group; D = 1 for the trivial
    group) every lift is an integer vector over D, and the forms are evaluated
    on residues through the generator Gram B_ij = (v_i.G.v_j)/(d_i*d_j),
    stored as integers over N = D^2: order and q are integer rules on the
    residues, and no rank-length vector is formed for them.

    A lattice from build_standard (but LambdaG/LambdaA1 at g = 2) is the
    orthogonal sum its (name, g) names, and its group is the sum of its
    summands' groups: their own Smith normal forms give exactly the
    nontrivial (d_i, v-columns, u-rows) of the full one, since the full
    elimination pivots the lone entry -(2g-2) last and runs the same steps
    for every g >= 3.  The fixed summands' table comes with the name, and
    only w's row is added per g.  Every other lattice takes the full Smith
    normal form, whose global pivot order may interleave its summands.
    """

    def __init__(self, lattice: IntegralLattice):
        # at g = 2 the pivot w^2 = -2 ties the 2-pivots of E8, and the full
        # Smith normal form's generator (w - 4*t1 - ...)/2 is not w/2.  The
        # summand route would give w/2, and discriminant_group's cache keys
        # on lattice equality: LambdaG(2) and a constructed lattice with its
        # Gram and labels share one entry, so both would print w/2 or both
        # the full generator, by which of them was cached first
        if lattice._standard is None or lattice._standard[1] == 2:
            factors, cols, pairings, supports = _generator_table(lattice.gram)
        else:
            name, g = lattice._standard
            factors, cols, pairings, supports = _standard_template(name)[2]
            if g is not None:
                # <-(2g-2)> is its own Smith normal form, with u = (-1) and
                # v = (1).  2g-2 >= 4 exceeds every fixed factor (E7neg's 2
                # is the only one), so w/(2g-2) goes last.  w is orthogonal to
                # the fixed summands: its pairings are -(2g-2) with itself and
                # 0 across, and its u-row is -1 at w
                a = 2 * g - 2
                factors += (a,)
                cols += ((1,) + (0,) * (lattice.rank - 1),)
                pairings = (*(row + (0,) for row in pairings), (0,) * len(pairings) + (-a,))
                supports += (((0, -1),),)
        self.lattice = lattice
        # row i of u, applied to G.y, reads off the i-th residue of y;
        # _class_of reads it through its nonzero (index, entry) pairs
        self.factors, self._cols, self._supports = factors, cols, supports
        self._exponent = self.factors[-1] if self.factors else 1
        # d_i | d_j for i < j, so every d_i*d_j divides N
        self._den = self._exponent**2
        self._gram = tuple(
            tuple(p * (self._den // (fi * fj)) for p, fj in zip(row, self.factors))
            for row, fi in zip(pairings, self.factors)
        )

    @property
    def lifts(self) -> tuple[tuple[Fraction, ...], ...]:
        """The generator lifts (column i of v)/d_i."""
        return tuple(tuple(Fraction(c, f) for c in col) for col, f in zip(self._cols, self.factors))

    @property
    def order(self) -> int:
        return prod(self.factors)

    def element(self, residues) -> DiscElement:
        return DiscElement(self.factors, residues)

    def _torsion(self, n: int):
        """The residue tuples of the n-torsion {x : n*x = 0}, in lexicographic
        order; n = 0 gives the whole group."""
        return itertools.product(*(range(0, d, d // gcd(n, d)) for d in self.factors))

    def elements(self, n: int = 0):
        """The n-torsion {x : n*x = 0}, in lexicographic residue order.

        n = 0 gives the whole group.
        """
        for residues in self._torsion(n):
            yield DiscElement._trusted(self.factors, residues)

    def eichler_classes(self, norm: int) -> tuple[tuple[int, DiscElement], ...]:
        """(d, x) for each class x of the norm-torsion whose order d has
        q(x) = norm/d^2 in Q/2Z, in lexicographic residue order: the dual
        classes of the primitive vectors of that norm, by Eichler's criterion.

        The scan runs over residue tuples, through the integer order and q
        rules of DiscElement.order and quadratic_is, and builds an element
        only for a hit.
        """
        norm = exact_int(norm)
        out = []
        for a in self._torsion(norm):
            d = _order(self.factors, a)
            if self._q_is(a, norm, d * d):
                out.append((d, DiscElement._trusted(self.factors, a)))
        return tuple(out)

    def element_of(self, dual_vector) -> DiscElement:
        """Class of a rational vector lying in the dual lattice."""
        y = [Fraction(c) for c in dual_vector]
        if len(y) != self.lattice.rank:
            raise ValueError("vector length must match rank")
        m = lcm(1, *(c.denominator for c in y))
        gy = _mat_vec(self.lattice.gram, [c.numerator * (m // c.denominator) for c in y])
        if any(c % m for c in gy):
            raise ValueError("vector is not in the dual lattice")
        return self._class_of(gy, m)

    def _class_of(self, gv, div=1) -> DiscElement:
        """Class of the dual vector y = v/div, given the integer vector G.v
        (div divides each of its entries)."""
        return DiscElement._trusted(
            self.factors,
            tuple(sum(c * gv[j] for j, c in row) // div % d for row, d in zip(self._supports, self.factors)),
        )

    def _residues(self, x: DiscElement) -> tuple[int, ...]:
        """The residues of x, once x is checked to be an element of this group."""
        if x.factors != self.factors:
            raise ValueError("elements of different groups")
        return x.residues

    def _lift_numerators(self, x: DiscElement) -> list[int]:
        """D * lift(x), an integer vector: the sum of a_i * (D/d_i) * v_i."""
        out = [0] * self.lattice.rank
        for a, f, col in zip(self._residues(x), self.factors, self._cols):
            if a:
                c = a * (self._exponent // f)
                out = [s + c * y for s, y in zip(out, col)]
        return out

    def lift(self, x: DiscElement) -> tuple[Fraction, ...]:
        """The lift of x to the dual lattice: the sum of a_i * (column i of v)/d_i."""
        return tuple(Fraction(c, self._exponent) for c in self._lift_numerators(x))

    def lift_multiple(self, x: DiscElement, m: int) -> list[int]:
        """m*y as integers, for y the lift of x reduced into [0, 1)^rank.

        Lifts of one class differ by lattice vectors, so y is canonical.
        m*y is integral exactly when m*x = 0, which is required.
        """
        numerators = self._lift_numerators(x)
        m = exact_int(m)
        if any(m * a % f for a, f in zip(x.residues, self.factors)):
            raise ValueError(f"{m} does not annihilate the class")
        big = self._exponent
        return [m * (c % big) // big for c in numerators]

    def _pairing(self, a, b) -> int:
        """N * lift(x).G.lift(y) for the classes x and y with residues a and
        b, summed over the generator Gram."""
        return sum(map(mul, a, [sum(map(mul, b, row)) for row in self._gram]))

    def quadratic(self, x: DiscElement) -> Fraction:
        """q(x) in Q/2Z, as the canonical representative in (-2, 0]."""
        a = self._residues(x)
        # -(-N*q mod 2N) is N*q reduced into (-2N, 0]
        return Fraction(-(-self._pairing(a, a) % (2 * self._den)), self._den)

    def _q_is(self, a, num: int, den: int) -> bool:
        """Whether q = num/den in Q/2Z for the class of residues a: N*q
        against N*num/den, in integers only."""
        return (self._pairing(a, a) * den - num * self._den) % (2 * self._den * den) == 0

    def quadratic_is(self, x: DiscElement, num: int, den: int) -> bool:
        """Whether q(x) = num/den in Q/2Z, in integers only."""
        return self._q_is(self._residues(x), num, den)

    def bilinear(self, x: DiscElement, y: DiscElement) -> Fraction:
        """b(x, y) in Q/Z, as the representative in [0, 1)."""
        return Fraction(self._pairing(self._residues(x), self._residues(y)) % self._den, self._den)


@lru_cache(maxsize=256)
def discriminant_group(l: IntegralLattice) -> DiscriminantGroup:
    return DiscriminantGroup(l)


def _pairings_gcd(l: IntegralLattice, c) -> tuple[int, list[int]]:
    """(div(v), G.v) from v's checked coordinates c: the gcd of v's pairings with the basis, and those."""
    gv = _mat_vec(l.gram, c)
    d = gcd(*gv)
    if d == 0:
        raise ValueError("divisibility undefined for vectors pairing to zero with everything")
    return d, gv


def divisibility(l: IntegralLattice, v) -> int:
    """gcd of the pairings of v with the whole lattice (v nonzero)."""
    return _pairings_gcd(l, _coords(v))[0]


def dual_class(l: IntegralLattice, v) -> DiscElement:
    """Class of v/div(v) in the discriminant group."""
    d, gv = _pairings_gcd(l, _coords(v))
    return discriminant_group(l)._class_of(gv, d)


def orbit_invariants(l: IntegralLattice, v) -> tuple[int, int, DiscElement]:
    """(v^2, div(v), class of v/div(v)), all read off the one mat-vec G.v."""
    c = _coords(v)
    d, gv = _pairings_gcd(l, c)
    return _dot(c, gv), d, discriminant_group(l)._class_of(gv, d)


def is_primitive(l: IntegralLattice, v) -> bool:
    # the zero vector has gcd 0
    return gcd(*_coords(v)) == 1


# ---------------------------------------------------------------------------
# orthogonal complements


def orthogonal_complement(l: IntegralLattice, vectors):
    """Saturated orthogonal complement of a set of vectors.

    Returns (complement, embedding): the complement as an IntegralLattice in
    its own basis, and the embedding as a tuple of ambient coordinate vectors
    (one per complement basis vector).  The embedding is primitive: the kernel
    basis comes from unimodular column operations.
    """
    vecs = [list(_coords(v)) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    if any(len(v) != l.rank for v in vecs):
        raise ValueError("vector length must match rank")
    a = [_mat_vec(l.gram, v) for v in vecs]  # pairing conditions, one row per vector
    d, _, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(len(a), l.rank)) if d[i][i] != 0)
    emb = []
    for j in range(rank, l.rank):
        emb.append(tuple(v[i][j] for i in range(l.rank)))
    gemb = [_mat_vec(l.gram, b) for b in emb]
    gram = [[_dot(a, gb) for gb in gemb] for a in emb]
    comp = IntegralLattice(gram, tuple(f"c{i + 1}" for i in range(len(emb))))
    return comp, tuple(emb)


# ---------------------------------------------------------------------------
# text serialization


def from_text(text: str) -> IntegralLattice:
    """Parse the text format; '#' starts a comment, and errors name file lines."""
    lines = list(text_rows(text))
    lineno, header = lines[0] if lines else (1, [])
    if len(header) != 2 or header[0] != "rank":
        raise ValueError(f"line {lineno}: expected 'rank N' header")
    n = text_number(header[1], lineno, "malformed rank header")
    if n < 0:
        raise ValueError(f"line {lineno}: malformed rank header")
    if len(lines) < n + 1:
        raise ValueError(f"expected {n} Gram rows after the header")
    gram = []
    for lineno, parts in lines[1 : n + 1]:
        if len(parts) != n:
            raise ValueError(f"line {lineno}: expected {n} entries, got {len(parts)}")
        gram.append([text_number(p, lineno, "non-integer entry") for p in parts])
    labels = None
    if len(lines) > n + 1:
        lineno, fields = lines[n + 1]
        labels = tuple(fields)
        if len(labels) != n:
            raise ValueError(f"line {lineno}: expected {n} labels, got {len(labels)}")
    if len(lines) > n + 2:
        raise ValueError(f"unexpected trailing content at line {lines[n + 2][0]}")
    return IntegralLattice(gram, labels)
