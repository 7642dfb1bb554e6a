"""Orbit classification of primitive vectors in even lattices with two
hyperbolic planes.

For such lattices the stable orthogonal group acts transitively on primitive
vectors of fixed norm and fixed dual class (Eichler's criterion), so an orbit
is a pair (divisibility, discriminant class) and enumerating orbits means
enumerating classes x with ord(x) = d and q(x) = norm/d^2 mod 2Z.  On top of
that sit the component counts for the nodal, one-node-plus-A1 and cuspidal
(A2) loci of quasi-polarized K3 surfaces of genus g, together with explicit
witness vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ._inputs import Record, exact_int
from .lattice import (
    DiscElement,
    IntegralLattice,
    LatticeVector,
    build_standard,
    discriminant_group,
    hyperbolic_planes,
    is_primitive,
    orbit_invariants,
)


class OrbitCandidate(Record):
    """Orbit invariants of a primitive vector: norm, divisibility, dual class,
    and a vector realizing them when one was asked for."""

    _fields = ("norm", "divisibility", "dual_class", "witness")

    def __init__(self, norm: int, divisibility: int, dual_class: DiscElement, witness: LatticeVector | None = None):
        vars(self).update(norm=norm, divisibility=divisibility, dual_class=dual_class, witness=witness)


class Component(Record):
    """Irreducible component of a locus, tagged with its classical label."""

    _fields = ("label", "candidate")

    def __init__(self, label: str, candidate: OrbitCandidate):
        vars(self).update(label=label, candidate=candidate)


def eichler_candidates(l: IntegralLattice, norm: int) -> tuple[OrbitCandidate, ...]:
    """All (divisibility, class) orbit invariants compatible with the norm.

    The divisibility d of a primitive vector divides its norm and equals the
    order of its class, so one pass over the norm-torsion {x : norm*x = 0}
    finds every class x with ord(x) = d and q(x) = norm/d^2 mod 2Z.
    Deterministic order: d ascending, then class residues lexicographic.
    """
    norm = exact_int(norm)
    if norm == 0 or norm % 2 != 0:
        raise ValueError("norm must be a nonzero even integer")
    if len(hyperbolic_planes(l)) < 2:
        raise ValueError("orbit classification needs two orthogonal hyperbolic planes in the basis")
    out = [OrbitCandidate(norm, d, x) for d, x in discriminant_group(l).eichler_classes(norm)]
    return tuple(sorted(out, key=lambda c: c.divisibility))


# ---------------------------------------------------------------------------
# witnesses


def _validates(l, cand, v: LatticeVector):
    return is_primitive(l, v) and orbit_invariants(l, v) == (cand.norm, cand.divisibility, cand.dual_class)


def find_witness(l: IntegralLattice, cand: OrbitCandidate) -> LatticeVector | None:
    """A primitive vector realizing the candidate's (norm, div, class), or None.

    With y the lift of the class reduced into [0, 1)^rank, the witness is d*y
    when that already validates, else v = d*(y + e + b*f) for the first
    orthogonal U block (e, f) and b = (norm - (d*y)^2) / (2d^2).  b is an
    integer exactly when q(x) = norm/d^2 mod 2Z; v.f = d gives div(v) = d, and
    ord(x) = d makes v primitive.  Candidates violating the order or q-value
    compatibility return None.
    """
    grp = discriminant_group(l)
    d = cand.divisibility
    if d < 1:
        return None
    x = cand.dual_class
    if x.order() != d:
        return None
    dy = grp.lift_multiple(x, d)
    # each vector is checked once, here, and read unchecked after
    v = LatticeVector(dy)
    b, rem = divmod(cand.norm - l.norm(v), 2 * d * d)
    if rem:
        return None
    planes = hyperbolic_planes(l)
    if len(planes) < 2:
        raise ValueError("witness search needs two orthogonal hyperbolic planes in the basis")
    # d*y has the candidate's norm exactly when b = 0
    if b == 0 and _validates(l, cand, v):
        return v
    e, f = planes[0]
    dy[e] += d
    dy[f] += d * b
    v = LatticeVector(dy)
    return v if _validates(l, cand, v) else None


# ---------------------------------------------------------------------------
# component counts for the nodal, A11 and A2 loci


# each locus: the period lattice and norm of the vectors cutting it out, and
# each component's label with the basis vectors v whose half v/2 has its
# class
_LOCI = {
    "nodal": ("LambdaG", -2, (("P_{0,-2}", ()), ("P_{g-1,(g-2)/2}", ("w",)))),
    "a11": ("LambdaA1", -2, (("H'", ()), ("H''", ("w",)), ("H'''", ("w", "s1")))),
    "a2": ("LambdaA1", -6, (("H_{A_2}", ("s1",)),)),
}
LOCI = tuple(_LOCI)
_LOCUS_ALIASES = {"node": "nodal", "oneplusa1": "a11"}
_LOCUS_PUNCTUATION = str.maketrans("", "", "_{},-")


def _canon_locus(locus: str) -> str:
    s = str(locus).strip().lower().translate(_LOCUS_PUNCTUATION)
    s = _LOCUS_ALIASES.get(s, s)
    if s not in _LOCI:
        raise ValueError(f"unknown locus {locus!r}; valid: {', '.join(LOCI)}")
    return s


@lru_cache(maxsize=len(_LOCI))
def _class_table(locus: str):
    """(fixed factors, rows) of a canonical locus, read once from its genus-3
    group: the invariant factors of the fixed summands (all but <-(2g-2)>),
    and per label (label, the residues of v/2 on them, whether v names w,
    v^2 without w^2, the order of the class of v/2), v the sum of the
    label's named basis vectors.

    None of these depends on g: every g >= 3 takes DiscriminantGroup's
    summand route, with the same fixed generators and w's Z/(2g-2) last, w is
    orthogonal to the fixed summands, and w/2 = (g-1)*w/(2g-2) has order 2.
    """
    name, _, named = _LOCI[locus]
    l = build_standard(name, g=3)
    grp = discriminant_group(l)
    rows = []
    for label, vectors in named:
        x = grp.element_of([Fraction(int(s in vectors), 2) for s in l.labels])
        fixed = [int(s in vectors and s != "w") for s in l.labels]
        rows.append((label, x.residues[:-1], "w" in vectors, l.norm(fixed), x.order()))
    return grp.factors[:-1], tuple(rows)


def nl_component_count(g: int, locus: str, with_witnesses: bool = False):
    """Number of irreducible components of a lattice-defined locus in genus g,
    with classical labels and the orbit candidate behind each component.

    Each component is the class x of a named half-vector v/2 of its _LOCI
    row.  The Eichler scan of the norm holds x, once, exactly when its order
    d divides the norm and q(x) = norm/d^2 mod 2Z, so each named class is
    tested alone and no torsion is scanned.  nodal and a11 count every
    norm -2 Eichler class of their period lattice, as `nlk3 verify`
    criterion 6 checks at g = 3..6; a2 follows the convention below.  The
    classes come from the locus's _class_table: at genus g the group adds
    w's factor 2g-2 last, and x adds w's residue g-1 when v names w, since
    w/2 = (g-1)*w/(2g-2).  q(x) = q(v/2) = v^2/4 mod 2Z (Nikulin 1979, 1.3),
    so the test runs in integers, and no lattice or discriminant group is
    built for g:

    nodal  norm -2 vectors in the genus-g period lattice: P_{0,-2} (class 0)
           always, plus P_{g-1,(g-2)/2} (class w/2) exactly when g = 2 mod 4.
    a11    norm -2 vectors orthogonal to a fixed root: H' (class 0) always,
           H'' (w/2) when g = 2 mod 4, H''' ((w+s1)/2) when g = 3 mod 4.
    a2     norm -6 vectors w = t1 + 2v supporting a cuspidal configuration:
           the single component H_{A_2}.  By convention only the
           divisibility-2 class s1/2 is counted (the doubled lift is
           congruent to s1 mod 2L), a convention pinned by criterion 6's
           frozen a2 = 1.  It leaves out the divisibility-6 classes, realized
           by honest vectors, which exist exactly when g = 4 mod 9: with
           g - 1 = 3t, the 3-part of q(x) = -1/6 needs t = 1 mod 3.  Nothing
           here decides which lattice types those classes span.

    The components come in the scan's order (class 0 first; a11's two
    order-2 classes never occur together).  With with_witnesses each carries
    find_witness's closed-form witness, which every Eichler candidate has;
    only the witnesses build the genus-g lattice.
    """
    g = exact_int(g)
    if g < 3:
        raise ValueError("genus must be at least 3")
    locus = _canon_locus(locus)
    name, norm, _ = _LOCI[locus]
    fixed, rows = _class_table(locus)
    a = 2 * g - 2
    factors = (*fixed, a)
    l = build_standard(name, g=g) if with_witnesses else None
    comps = []
    for label, residues, names_w, v2, d in rows:
        # v^2 = v2 - (2g-2) when v names w; q(x) = v^2/4 against norm/d^2
        v2 -= a * names_w
        if norm % d == 0 and (v2 * d * d - 4 * norm) % (8 * d * d) == 0:
            x = DiscElement(factors, (*residues, (g - 1) * names_w))
            cand = OrbitCandidate(norm, d, x)
            comps.append(Component(label, OrbitCandidate(norm, d, x, find_witness(l, cand)) if with_witnesses else cand))
    return len(comps), tuple(comps)


def locus_lattice(g: int, locus: str) -> IntegralLattice:
    """The period lattice in which a locus's vectors live."""
    return build_standard(_LOCI[_canon_locus(locus)][0], g=g)
