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

from operator import add

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
        self._set(norm, divisibility, dual_class, witness)


class Component(Record):
    """Irreducible component of a locus, tagged with its classical label."""

    _fields = ("label", "candidate")

    def __init__(self, label: str, candidate: OrbitCandidate):
        self._set(label, candidate)


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


# each locus: the period lattice and norm of the vectors cutting it out,
# whether every Eichler candidate must be one of its components (else only
# the named classes count), and each component's label with the basis
# vectors v whose half v/2 has its class
_LOCI = {
    "nodal": ("LambdaG", -2, True, (("P_{0,-2}", ()), ("P_{g-1,(g-2)/2}", ("w",)))),
    "a11": ("LambdaA1", -2, True, (("H'", ()), ("H''", ("w",)), ("H'''", ("w", "s1")))),
    "a2": ("LambdaA1", -6, False, (("H_{A_2}", ("s1",)),)),
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


def _half_class(grp, vectors) -> tuple[int, ...]:
    """Residues of the class of v/2, v the sum of the named basis vectors:
    G.v is the sum of their Gram rows, and the empty sum is 0."""
    if not vectors:
        return (0,) * len(grp.factors)
    l = grp.lattice
    gv, *rest = (l.gram[l.labels.index(s)] for s in vectors)
    for row in rest:
        gv = tuple(map(add, gv, row))
    return grp._class_of(gv, 2).residues


def nl_component_count(g: int, locus: str, with_witnesses: bool = False):
    """Number of irreducible components of a lattice-defined locus in genus g,
    with classical labels and the orbit candidate behind each component.

    Each locus is a row of _LOCI, each component the class of a half-vector:

    nodal  norm -2 vectors in the genus-g period lattice: P_{0,-2} (class 0)
           always, plus P_{g-1,(g-2)/2} (class w/2) exactly when g = 2 mod 4.
    a11    norm -2 vectors orthogonal to a fixed root: H' (class 0) always,
           H'' (w/2) when g = 2 mod 4, H''' ((w+s1)/2) when g = 3 mod 4.
    a2     norm -6 vectors w = t1 + 2v supporting a cuspidal configuration:
           the single component H_{A_2}.  Only divisibility-2 candidates of
           class s1/2 are counted (the doubled lift is congruent to s1 mod
           2L).  Divisibility-6 candidates, realized by honest vectors, exist
           exactly when g = 4 mod 9: with g - 1 = 3t, the 3-part of
           q(x) = -1/6 needs t = 1 mod 3.  They are taken to span a
           non-saturated configuration, i.e. the surface carries a strictly
           larger Picard sublattice, and are booked under deeper loci rather
           than as new A2 components; nothing here computes that saturation.

    With with_witnesses every component carries the closed-form witness of
    find_witness, which exists for every Eichler candidate.
    """
    g = exact_int(g)
    if g < 3:
        raise ValueError("genus must be at least 3")
    locus = _canon_locus(locus)
    name, norm, exhaustive, named = _LOCI[locus]
    l = build_standard(name, g=g)
    # a candidate's divisibility is the order of its class, so the class
    # alone decides the label
    grp = discriminant_group(l)
    labels = {_half_class(grp, vectors): label for label, vectors in named}
    components = []
    for cand in eichler_candidates(l, norm):
        label = labels.get(cand.dual_class.residues)
        if label is None:
            if exhaustive:  # impossible by the discriminant arithmetic; keep loud
                raise RuntimeError(f"unclassified {locus} candidate {cand}")
            continue
        if with_witnesses:
            cand = OrbitCandidate(cand.norm, cand.divisibility, cand.dual_class, find_witness(l, cand))
        components.append(Component(label, cand))
    return len(components), tuple(components)


def locus_lattice(g: int, locus: str) -> IntegralLattice:
    """The period lattice in which a locus's vectors live."""
    return build_standard(_LOCI[_canon_locus(locus)][0], g=g)
