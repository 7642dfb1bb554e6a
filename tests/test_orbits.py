"""Orbit invariants, witness search, and locus component counts."""

import ast
import hashlib
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from nlk3.lattice import (
    STANDARD_NAMES,
    IntegralLattice,
    LatticeVector,
    build_standard,
    det,
    discriminant_group,
    from_text,
    divisibility,
    dual_class,
    hyperbolic_planes,
    is_primitive,
    smith_normal_form,
)
from nlk3.orbits import (
    LOCI,
    OrbitCandidate,
    _half_class,
    eichler_candidates,
    find_witness,
    locus_lattice,
    nl_component_count,
)

from lattice_helpers import direct_sum, snf_u_rows, to_text


def _elem(l, coords):
    return discriminant_group(l).element_of(coords)


def _pi(l, g):
    return _elem(l, [Fraction(1, 2 * g - 2)] + [Fraction(0)] * (l.rank - 1))


def _w2(l):
    v = [Fraction(0)] * l.rank
    v[l.labels.index("s1")] = Fraction(1, 2)
    return _elem(l, v)


# ---------------------------------------------------------------------------
# candidate enumeration


def test_candidates_norm_minus2_g5():
    la = build_standard("LambdaA1", g=5)
    cands = eichler_candidates(la, -2)
    assert len(cands) == 1
    assert cands[0].divisibility == 1
    assert not any(cands[0].dual_class.residues)


def test_candidates_norm_minus2_g6():
    la = build_standard("LambdaA1", g=6)
    cands = eichler_candidates(la, -2)
    assert [c.divisibility for c in cands] == [1, 2]
    assert cands[1].dual_class == 5 * _pi(la, 6)
    # the pure E7-factor class has q = -3/2, incompatible with norm -2, div 2
    assert all(c.dual_class != _w2(la) for c in cands)


def test_candidate_invariants_hold():
    for g, norm in [(4, -6), (5, -2), (6, -2), (6, -6), (7, -6)]:
        la = build_standard("LambdaA1", g=g)
        grp = discriminant_group(la)
        for c in eichler_candidates(la, norm):
            assert c.dual_class.order() == c.divisibility
            assert norm % c.divisibility == 0
            diff = grp.quadratic(c.dual_class) - Fraction(norm, c.divisibility**2)
            assert diff % 2 == 0


def test_candidates_deterministic_order():
    la = build_standard("LambdaA1", g=4)
    a = eichler_candidates(la, -6)
    b = eichler_candidates(la, -6)
    assert a == b
    divs = [c.divisibility for c in a]
    assert divs == sorted(divs)


def _lift_q_values(l):
    """q of every class of the whole group, taken from its lift."""
    grp = discriminant_group(l)
    out = {}
    for x in grp.elements():
        y = grp.lift(x)
        support = [i for i in range(l.rank) if y[i]]
        out[x] = sum(y[i] * l.gram[i][j] * y[j] for i in support for j in support)
    return out


def _full_scan_candidates(q_values, norm):
    """Reference enumeration: every divisor d of the norm, then every class."""
    out = []
    for d in range(1, abs(norm) + 1):
        if norm % d == 0:
            for x, q in q_values.items():
                if x.order() == d and (q - Fraction(norm, d * d)) % 2 == 0:
                    out.append(OrbitCandidate(norm, d, x))
    return tuple(out)


def test_candidates_match_full_group_scan():
    count = 0
    for name in ("LambdaG", "LambdaA1"):
        for g in range(3, 17):
            l = build_standard(name, g=g)
            q_values = _lift_q_values(l)
            for norm in (-2, -6, -10, -30):
                cands = eichler_candidates(l, norm)
                assert cands == _full_scan_candidates(q_values, norm), (name, g, norm)
                count += len(cands)
    assert count == 260


def test_candidates_match_full_group_scan_where_the_torsion_splits():
    # norm-30 and norm-210 torsion of Z/(2g-2), g = 31, 106, 211, splits
    # into several cyclic parts (Z/30 = Z/2 + Z/3 + Z/5 at g = 31), and
    # LambdaA1 adds E7's Z/2
    count = 0
    for name in ("LambdaG", "LambdaA1"):
        for g in (31, 106, 211):
            l = build_standard(name, g=g)
            q_values = _lift_q_values(l)
            for norm in (-30, -210):
                cands = eichler_candidates(l, norm)
                assert cands == _full_scan_candidates(q_values, norm), (name, g, norm)
                # d ascending, then residues in lexicographic order
                keys = [(c.divisibility, c.dual_class.residues) for c in cands]
                assert keys == sorted(keys), (name, g, norm)
                count += len(cands)
    assert count == 147


def test_eichler_classes_are_the_torsion_filtered_by_order_and_q():
    # the residue-tuple scan against the element route: DiscElement.order
    # and quadratic_is on each element of the norm-torsion
    for name, g in (("LambdaG", 31), ("LambdaA1", 31), ("LambdaA1", 106), ("LambdaA1", 7)):
        grp = discriminant_group(build_standard(name, g=g))
        for norm in (-2, -6, -30, -210):
            want = tuple((x.order(), x) for x in grp.elements(norm) if grp.quadratic_is(x, norm, x.order() ** 2))
            assert grp.eichler_classes(norm) == want, (name, g, norm)


def _random_even_block(rng):
    """A nondegenerate even Gram block of rank 1 to 3 with |det| <= 200."""
    while True:
        n = rng.randint(1, 3)
        b = [[0] * n for _ in range(n)]
        for i in range(n):
            b[i][i] = 2 * rng.randint(-6, 6)
            for j in range(i):
                b[i][j] = b[j][i] = rng.randint(-5, 5)
        if 0 < abs(det(b)) <= 200:
            return b


def test_candidates_match_full_group_scan_on_file_lattices():
    # a lattice read from text takes the full Smith normal form, whose u-rows
    # may be dense where a standard lattice's summand rows are sparse; U + U + B
    # in a shuffled basis, B a random even block
    u = IntegralLattice([[0, 1], [1, 0]])
    count = dense = 0
    for seed in range(30):
        rng = random.Random(seed)
        s = direct_sum(direct_sum(u, u), IntegralLattice(_random_even_block(rng)))
        perm = rng.sample(range(s.rank), s.rank)
        l = from_text(to_text(IntegralLattice([[s.gram[i][j] for j in perm] for i in perm])))
        assert l._standard is None
        grp = discriminant_group(l)
        dense += any(sum(map(bool, row)) > 1 for row in snf_u_rows(l))
        q_values = _lift_q_values(l)
        for norm in (-2, -6, -10):
            cands = eichler_candidates(l, norm)
            assert cands == _full_scan_candidates(q_values, norm), (seed, norm)
            # the witness check reads each class back through the u-rows
            assert all(find_witness(l, c) is not None for c in cands), (seed, norm)
            count += len(cands)
    assert (count, dense) == (130, 18)


def reference_u_blocks(l):
    """The greedy O(n^3) scan for orthogonal U blocks, as first shipped."""
    blocks = []
    used = set()
    n = l.rank
    for i in range(n):
        for j in range(i + 1, n):
            if i in used or j in used:
                continue
            if l.gram[i][i] != 0 or l.gram[j][j] != 0 or l.gram[i][j] != 1:
                continue
            others = [k for k in range(n) if k not in (i, j)]
            if all(l.gram[i][k] == 0 and l.gram[j][k] == 0 for k in others):
                blocks.append((i, j))
                used.update((i, j))
    return tuple(blocks)


# U; look-alikes that are not orthogonal U summands ([[0,1],[1,2]], a U with
# an off-block entry to a third vector, U(2), U(-1)); and filler blocks
_BLOCKS = (
    [[0, 1], [1, 0]],
    [[0, 1], [1, 0]],
    [[0, 1], [1, 2]],
    [[0, 1, 1], [1, 0, 0], [1, 0, -2]],
    [[0, 2], [2, 0]],
    [[0, -1], [-1, 0]],
    [[-2]],
    [[0]],
    build_standard("E8neg").gram,
)


@pytest.mark.parametrize("seed", range(40))
def test_u_blocks_match_reference_on_shuffled_blocks(seed):
    rng = random.Random(seed)
    blocks = rng.sample(_BLOCKS, rng.randint(1, len(_BLOCKS)))
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[offset + i][offset : offset + len(b)] = row
        offset += len(b)
    perm = rng.sample(range(n), n)
    l = IntegralLattice([[gram[perm[i]][perm[j]] for j in range(n)] for i in range(n)])
    assert hyperbolic_planes(l) == reference_u_blocks(l)


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_u_blocks_match_reference_on_standard_lattices(name):
    # the positions are scanned once per name and serve every g; they are
    # kept outside the lattice, which records only its (name, g)
    genera = (2, 3, 7, 100, 10**7) if name in ("LambdaG", "LambdaA1") else (None,)
    for g in genera:
        l = build_standard(name, g=g)
        assert hyperbolic_planes(l) == reference_u_blocks(l), g
        plain = IntegralLattice(l.gram, l.labels)
        copy = pickle.loads(pickle.dumps(l))
        assert plain == l == copy and hash(plain) == hash(l) == hash(copy)
        assert vars(copy) == vars(l) and set(vars(l)) == {"gram", "labels", "_hash", "_standard"}
        assert hyperbolic_planes(copy) == hyperbolic_planes(plain) == reference_u_blocks(l)
    shared = [hyperbolic_planes(build_standard(name, g=g)) for g in genera]
    assert all(blocks is shared[0] for blocks in shared)


def test_shared_planes_cannot_be_mutated():
    # a name's planes serve every lattice of the name, so the caller gets a
    # tuple: mutating it raises and leaves the next lattice's planes intact
    planes = hyperbolic_planes(build_standard("LambdaG", g=5))
    with pytest.raises(AttributeError):
        planes.clear()
    with pytest.raises(TypeError):
        planes[0] = (0, 0)
    later = build_standard("LambdaG", g=9)
    assert hyperbolic_planes(later) == reference_u_blocks(later) == ((1, 2), (3, 4))
    assert len(eichler_candidates(later, -2)) == 1


@pytest.mark.parametrize(
    "l",
    [build_standard("K3"), build_standard("LambdaA1", g=7), from_text(to_text(build_standard("LambdaG", g=6)))],
    ids=["K3", "LambdaA1(7)", "from_text"],
)
def test_orbit_work_writes_nothing_into_the_lattice(l):
    before = dict(vars(l))
    discriminant_group(l)
    for norm in (-2, -6):
        for cand in eichler_candidates(l, norm):
            assert find_witness(l, cand) is not None
    assert vars(l) == before


def test_candidates_preconditions():
    with pytest.raises(ValueError):
        eichler_candidates(build_standard("U"), -2)  # one hyperbolic plane only
    la = build_standard("LambdaA1", g=5)
    with pytest.raises(ValueError):
        eichler_candidates(la, -3)
    with pytest.raises(ValueError):
        eichler_candidates(la, 0)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_case_ii_g6():
    la = build_standard("LambdaA1", g=6)
    cand = OrbitCandidate(-2, 2, 5 * _pi(la, 6))
    v = find_witness(la, cand)
    assert v is not None
    assert la.describe(v) == "w + 2*e2 + 2*f2"
    assert la.norm(v) == -2
    assert divisibility(la, v) == 2
    assert dual_class(la, v) == cand.dual_class


def test_witness_case_iii_g7():
    la = build_standard("LambdaA1", g=7)
    cand = OrbitCandidate(-2, 2, 6 * _pi(la, 7) + _w2(la))
    v = find_witness(la, cand)
    assert v is not None
    assert la.describe(v) == "w + 2*e2 + 4*f2 + s1"
    assert la.norm(v) == -2
    assert divisibility(la, v) == 2


def test_witness_div1():
    la = build_standard("LambdaA1", g=9)
    grp = discriminant_group(la)
    cand = OrbitCandidate(-2, 1, grp.element((0,) * len(grp.factors)))
    v = find_witness(la, cand)
    assert v is not None
    assert la.describe(v) == "e2 - f2"


def test_witness_a2_root():
    la = build_standard("LambdaA1", g=6)
    cand = OrbitCandidate(-6, 2, _w2(la))
    v = find_witness(la, cand)
    assert v is not None
    assert la.describe(v) == "s1"


def test_witness_infeasible_candidate_returns_none():
    # norm -2 with the q = -3/2 class: q-value mismatch, no search performed
    la = build_standard("LambdaA1", g=5)
    cand = OrbitCandidate(-2, 2, _w2(la))
    assert find_witness(la, cand) is None


def test_witness_at_divisibility_zero_is_none():
    la = build_standard("LambdaA1", g=5)
    assert find_witness(la, OrbitCandidate(-2, 0, discriminant_group(la).element((0, 0)))) is None


def test_witness_needs_two_hyperbolic_planes():
    # E8neg is unimodular, so its one class passes the order and q checks,
    # and the search stops at the missing U planes
    e8 = build_standard("E8neg")
    cand = OrbitCandidate(-2, 1, discriminant_group(e8).element(()))
    with pytest.raises(ValueError, match="^witness search needs two orthogonal hyperbolic planes in the basis$"):
        find_witness(e8, cand)


def test_witness_closed_form_lambda_g():
    # nodal div-2 class w/2 in LambdaG: d*y = w has norm -10, so the witness
    # is w + 2*(e2 + b*f2) with b = (-2 + 10) / 8
    lg = build_standard("LambdaG", g=6)
    cand = OrbitCandidate(-2, 2, 5 * _pi(lg, 6))
    v = find_witness(lg, cand)
    assert v is not None
    assert lg.describe(v) == "w + 2*e2 + 2*f2"
    assert lg.norm(v) == -2
    assert divisibility(lg, v) == 2
    assert dual_class(lg, v) == cand.dual_class


def _witness_failure(l, cand, v):
    """Why v does not realize cand, checked with plain integer arithmetic."""
    c = v.coords
    n = l.rank
    gv = [sum(l.gram[i][j] * c[j] for j in range(n)) for i in range(n)]
    if gcd(*c) != 1:
        return "not primitive"
    if sum(a * b for a, b in zip(c, gv)) != cand.norm:
        return "wrong norm"
    d = cand.divisibility
    if gcd(*gv) != d:
        return "wrong divisibility"
    lift = discriminant_group(l).lift(cand.dual_class)
    if any((Fraction(a, d) - t).denominator != 1 for a, t in zip(c, lift)):
        return "v/d - lift not in L"
    return None


def test_witness_for_every_candidate():
    failures = []
    count = 0
    for name in ("LambdaG", "LambdaA1"):
        for g in range(3, 17):
            l = build_standard(name, g=g)
            for norm in (-2, -6, -10, -30):
                for cand in eichler_candidates(l, norm):
                    count += 1
                    v = find_witness(l, cand)
                    why = "no witness" if v is None else _witness_failure(l, cand, v)
                    if why:
                        failures.append((name, g, norm, cand.divisibility, why))
    assert count == 260
    assert failures == []


def _fraction_lift(l, x):
    """lift(x) by the definition: sum of a_i * (column i of v)/d_i, at the d_i > 1."""
    d, _, v = smith_normal_form(l.gram)
    positions = [i for i in range(l.rank) if d[i][i] > 1]
    out = [Fraction(0)] * l.rank
    for a, i in zip(x.residues, positions):
        for r in range(l.rank):
            out[r] += a * Fraction(v[r][i], d[i][i])
    return out


def reference_find_witness(l, cand):
    """find_witness with the Fraction start d*(lift % 1) and the separate
    norm, divisibility and class checks, as first shipped."""

    def validates(coords):
        v = list(coords)
        if not any(v) or not is_primitive(l, v) or l.norm(v) != cand.norm:
            return False
        return (divisibility(l, v), dual_class(l, v)) == (cand.divisibility, cand.dual_class)

    d = cand.divisibility
    if d < 1:
        return None
    x = cand.dual_class
    if x.order() != d:
        return None
    dy = [int(d * (c % 1)) for c in _fraction_lift(l, x)]
    b, rem = divmod(cand.norm - l.norm(dy), 2 * d * d)
    if rem:
        return None
    blocks = hyperbolic_planes(l)
    if validates(dy):
        return LatticeVector(dy)
    e, f = blocks[0]
    dy[e] += d
    dy[f] += d * b
    return LatticeVector(dy) if validates(dy) else None


def _noncyclic_lattice():
    # U^2 + <-4> + <-6>: discriminant group Z/2 x Z/12
    u = build_standard("U")
    return direct_sum(direct_sum(u, u), IntegralLattice([[-4, 0], [0, -6]], ("a", "b")))


def test_witness_matches_fraction_reference():
    lattices = [build_standard(name, g=g) for name in ("LambdaG", "LambdaA1") for g in range(3, 17)]
    lattices += [_noncyclic_lattice(), build_standard("Uperp")]
    count = 0
    for l in lattices:
        for norm in (-2, -4, -6, -10, -12, -30):
            for cand in eichler_candidates(l, norm):
                v = find_witness(l, cand)
                assert v is not None
                assert v == reference_find_witness(l, cand), (l.labels[0], l.rank, norm, cand)
                count += 1
    assert count == 398


def test_witness_none_cases_match_fraction_reference():
    # candidates that fail the order or the q-value condition
    la = build_standard("LambdaA1", g=6)
    grp = discriminant_group(la)
    for x in grp.elements():
        for d in (1, 2, 5, 10):
            for norm in (-2, -6, -10):
                cand = OrbitCandidate(norm, d, x)
                assert find_witness(la, cand) == reference_find_witness(la, cand), cand


@pytest.mark.parametrize("g, expr", [(1000, "w + 2*e2 + 498*f2"), (10**6, "w + 2*e2 + 499998*f2")])
def test_witness_large_genus(g, expr):
    lg = build_standard("LambdaG", g=g)
    cand = OrbitCandidate(-6, 2, _elem(lg, [Fraction(1, 2)] + [Fraction(0)] * (lg.rank - 1)))
    v = find_witness(lg, cand)
    assert v is not None
    assert lg.describe(v) == expr
    assert _witness_failure(lg, cand, v) is None


def test_witness_deterministic():
    la = build_standard("LambdaA1", g=6)
    cand = OrbitCandidate(-6, 2, _w2(la))
    assert find_witness(la, cand) == find_witness(la, cand)


def test_div6_class_is_realized_but_not_counted():
    # for g = 4 (mod 9) there are honest divisibility-6 vectors w = t1 + 2v
    # of norm -6 whose configuration span is non-saturated; they must show up
    # as candidates and witnesses yet stay out of the component count
    la = build_standard("LambdaA1", g=4)
    grp = discriminant_group(la)
    lift = [Fraction(0)] * la.rank
    lift[0] = Fraction(1, 3)
    lift[la.labels.index("s1")] = Fraction(1, 2)
    x = grp.element_of(lift)
    assert x.order() == 6
    cands = eichler_candidates(la, -6)
    assert any(c.divisibility == 6 and c.dual_class == x for c in cands)
    cand = next(c for c in cands if c.divisibility == 6 and c.dual_class == x)
    v = find_witness(la, cand)
    assert v is not None
    assert la.norm(v) == -6
    assert divisibility(la, v) == 6
    assert is_primitive(la, v)
    # the vector is congruent to s1 mod 2L (it is an honest t1 + 2v shape)...
    s1 = la.labels.index("s1")
    assert all((c - (1 if i == s1 else 0)) % 2 == 0 for i, c in enumerate(v.coords))
    # ...but the component count books only the divisibility-2 orbit
    n, comps = nl_component_count(4, "a2")
    assert n == 1
    assert comps[0].candidate.divisibility == 2
    assert comps[0].candidate.dual_class == _w2(la)


def test_a2_divisibility_six_candidates_occur_at_g_4_mod_9():
    # a class x = (e, j*(g-1)/3) of order 6 in Z/2 + Z/(2g-2) needs 3 | g-1;
    # with g-1 = 3t, q(x) = -3e/2 - j^2*t/6 = -6/6^2 mod 2 reads
    # j^2*t = 1 - 9e mod 12, solvable (e = 1, j = 2) exactly when t = 1 mod 3
    genera = range(3, 101)
    six = [g for g in genera if any(c.divisibility == 6 for c in eichler_candidates(build_standard("LambdaA1", g=g), -6))]
    assert six == [g for g in genera if g % 9 == 4]
    assert six == [4, 13, 22, 31, 40, 49, 58, 67, 76, 85, 94]


# ---------------------------------------------------------------------------
# component counts


@pytest.mark.parametrize("g", range(3, 31))
def test_nodal_counts(g):
    n, comps = nl_component_count(g, "nodal")
    expected = 2 if g % 4 == 2 else 1
    assert n == expected
    assert comps[0].label == "P_{0,-2}"
    if expected == 2:
        assert comps[1].label == "P_{g-1,(g-2)/2}"


@pytest.mark.parametrize("g", range(3, 31))
def test_a11_counts(g):
    n, comps = nl_component_count(g, "a11")
    expected = 1 + (g % 4 == 2) + (g % 4 == 3)
    assert n == expected
    labels = [c.label for c in comps]
    assert labels[0] == "H'"
    if g % 4 == 2:
        assert labels == ["H'", "H''"]
    if g % 4 == 3:
        assert labels == ["H'", "H'''"]


@pytest.mark.parametrize("g", range(3, 31))
def test_a2_counts(g):
    n, comps = nl_component_count(g, "a2")
    assert n == 1
    assert comps[0].label == "H_{A_2}"
    la = locus_lattice(g, "a2")
    assert comps[0].candidate.divisibility == 2
    assert comps[0].candidate.dual_class == _w2(la)


@pytest.mark.parametrize("g", [5, 6, 7, 9, 10, 11])
def test_witnesses_round_trip(g):
    for locus in ("nodal", "a11", "a2"):
        l = locus_lattice(g, locus)
        n, comps = nl_component_count(g, locus, with_witnesses=True)
        for comp in comps:
            cand = comp.candidate
            v = cand.witness
            assert v is not None, (g, locus, comp.label)
            assert l.norm(v) == cand.norm
            assert divisibility(l, v) == cand.divisibility
            assert dual_class(l, v) == cand.dual_class
            assert is_primitive(l, v)


@pytest.mark.parametrize("g", range(3, 15))
def test_component_witness_strings(g):
    div2 = [f"w + 2*e2 + {(g - 2) // 2}*f2"] if g % 4 == 2 else []
    h3 = [f"w + 2*e2 + {(g + 1) // 2}*f2 + s1"] if g % 4 == 3 else []
    expected = {"nodal": ["e2 - f2", *div2], "a11": ["e2 - f2", *div2, *h3], "a2": ["s1"]}
    for locus, exprs in expected.items():
        l = locus_lattice(g, locus)
        _, comps = nl_component_count(g, locus, with_witnesses=True)
        assert [l.describe(c.candidate.witness) for c in comps] == exprs


# sha256 over repr(nl_component_count(g, locus, with_witnesses=g % 5 == 0)),
# each followed by a newline, for the genera below and the loci in LOCI order
COUNTS_SHA256 = "73181ca5055e6d57c1d1a461a4105d8c5fe7c392be3a76a823c21223f43dfeb6"


def test_component_counts_sha256():
    h = hashlib.sha256()
    for g in [*range(3, 401), 997, 2002, 10**6]:
        for locus in LOCI:
            h.update(repr(nl_component_count(g, locus, with_witnesses=g % 5 == 0)).encode() + b"\n")
    assert h.hexdigest() == COUNTS_SHA256


def test_gram_row_classes_equal_dual_class():
    # the labels read w/2, s1/2 and (w+s1)/2 from the sums of w's and s1's
    # Gram rows: (g-1)*[w/(2g-2)], [s1/2] and their sum by dual_class
    for g in range(3, 201):
        for name in ("LambdaG", "LambdaA1"):
            l = build_standard(name, g=g)
            grp = discriminant_group(l)
            basis = {s: [int(t == s) for t in l.labels] for s in ("w", "s1") if s in l.labels}
            w = (g - 1) * dual_class(l, basis["w"])
            expected = {(): grp.element((0,) * len(grp.factors)), ("w",): w}
            if name == "LambdaA1":
                s1 = dual_class(l, basis["s1"])
                expected.update({("s1",): s1, ("w", "s1"): w + s1})
            for vectors, x in expected.items():
                assert _half_class(grp, vectors) == x.residues, (name, g, vectors)


def test_component_count_determinism():
    assert nl_component_count(10, "a11", with_witnesses=True) == nl_component_count(10, "a11", with_witnesses=True)


def test_locus_names():
    assert nl_component_count(6, "A_{1,1}") == nl_component_count(6, "a11")
    assert nl_component_count(6, "A_2") == nl_component_count(6, "a2")
    with pytest.raises(ValueError):
        nl_component_count(6, "A_3")
    with pytest.raises(ValueError):
        nl_component_count(2, "nodal")


@pytest.mark.parametrize("locus", LOCI)
def test_unnamed_candidate_raises_unless_only_named_classes_count(monkeypatch, locus):
    # the last generator is the class of w/(2g-2), of order 2g-2 = 8 at
    # g = 5, and no half-vector has a class of that order: nodal and a11
    # must name every candidate, a2 counts only its named class
    from nlk3 import orbits

    expected = nl_component_count(5, locus, with_witnesses=True)
    grp = discriminant_group(locus_lattice(5, locus))
    norm = -6 if locus == "a2" else -2
    extra = OrbitCandidate(norm, 8, grp.element((0,) * (len(grp.factors) - 1) + (1,)))
    real = orbits.eichler_candidates
    monkeypatch.setattr(orbits, "eichler_candidates", lambda l, n: (*real(l, n), extra))
    if locus == "a2":
        assert nl_component_count(5, locus, with_witnesses=True) == expected
    else:
        with pytest.raises(RuntimeError, match=f"^unclassified {locus} candidate OrbitCandidate\\(norm=-2, divisibility=8,"):
            nl_component_count(5, locus)


def test_orbits_reads_one_private_name_of_lattice():
    # the component-count labels read classes straight off Gram rows; every
    # other read of lattice goes through its public names
    from nlk3 import lattice, orbits

    grp = discriminant_group(build_standard("LambdaA1", g=6))
    owners = [lattice, grp, grp.lattice, grp.element((1, 3))]
    owners += [c for c in vars(lattice).values() if isinstance(c, type) and c.__module__ == lattice.__name__]
    private = {n for o in owners for n in vars(o) if n.startswith("_") and not n.endswith("__")}
    tree = ast.parse(Path(orbits.__file__).read_text(encoding="utf-8"))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "lattice":
            read.update(a.name for a in node.names)
    assert read & private == {"_class_of"}
