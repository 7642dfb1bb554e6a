"""Lattice core: SNF, determinants, discriminant groups, complements."""

import os
import pickle
import random
import subprocess
import sys
from copy import deepcopy
from fractions import Fraction
from itertools import islice
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from nlk3 import lattice
from nlk3._inputs import exact_int, exact_ints
from nlk3.chern import SurfaceChernData, net_counts
from nlk3.lattice import (
    DiscElement,
    DiscriminantGroup,
    STANDARD_NAMES,
    IntegralLattice,
    build_standard,
    det,
    discriminant_group,
    divisibility,
    dual_class,
    from_text,
    is_primitive,
    orbit_invariants,
    orthogonal_complement,
    smith_normal_form,
)
from nlk3.nldiv import NLKey
from nlk3.orbits import eichler_candidates, locus_lattice, nl_component_count
from nlk3.siegel import GenusTwoSeries, HalfIntegralTable, binomial_pow, chi10, default_chi10_exponents

from lattice_helpers import direct_sum, full_snf_group, noncyclic_lattice, to_text


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def lift_pairing(l, grp, x, y):
    """lift(x).G.lift(y) in Q: the definition the residue forms must agree with."""
    a, b = grp.lift(x), grp.lift(y)
    return sum(a[i] * l.gram[i][j] * b[j] for i in range(l.rank) for j in range(l.rank))


def mod2_rep(value):
    """Representative of value mod 2Z in (-2, 0]."""
    r = value % 2
    return r - 2 if r else r


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_hyperbolic_gram():
    d, u, v = smith_normal_form([[0, 3], [3, 0]])
    assert [d[0][0], d[1][1]] == [3, 3]
    assert mat_mul(mat_mul([list(r) for r in u], [[0, 3], [3, 0]]), [list(r) for r in v]) == [list(r) for r in d]


def test_snf_reorders_divisibility():
    d, _, _ = smith_normal_form([[4, 0], [0, 2]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_snf_identity():
    d, u, v = smith_normal_form([[1, 0], [0, 1]])
    assert d == ((1, 0), (0, 1))


def test_snf_rectangular():
    m = [[2, 4, 4]]
    d, u, v = smith_normal_form(m)
    assert d[0][0] == 2
    assert mat_mul(mat_mul([list(r) for r in u], m), [list(r) for r in v]) == [list(r) for r in d]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_snf_properties(data):
    rows = data.draw(st.integers(1, 10))
    cols = data.draw(st.integers(1, 10))
    m = data.draw(
        st.lists(st.lists(st.integers(-50, 50), min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    )
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul([list(r) for r in u], m), [list(r) for r in v]) == [list(r) for r in d]
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    assert all(x >= 0 for x in diag)
    for i in range(len(diag) - 1):
        if diag[i + 1] != 0:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        # zero diagonal entries must come last
        if diag[i] == 0:
            assert diag[i + 1] == 0
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0


def reference_snf(m):
    """The Smith normal form as first shipped, kept verbatim: the pivot rule
    (first entry of least |a|, row-major) and every step fix u and v, which
    the lifts, the class residues and `lattice snf` print."""
    a = [[int(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, k, q):  # a[i] -= q*a[k]
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_op(j, k, q):  # col j -= q*col k
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    for k in range(min(rows, cols)):
        while True:
            pivot = None
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != k:
                row_swap(pivot[0], k)
            if pivot[1] != k:
                col_swap(pivot[1], k)
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    row_op(i, k, a[i][k] // a[k][k])
                    if a[i][k] != 0:
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    col_op(j, k, a[k][j] // a[k][k])
                    if a[k][j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % a[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            u[k] = [x + y for x, y in zip(u[k], u[offender])]

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    freeze = lambda mat: tuple(tuple(int(x) for x in row) for row in mat)
    return freeze(a), freeze(u), freeze(v)


def standard_lattices(genera):
    for name in STANDARD_NAMES:
        if name in ("LambdaG", "LambdaA1"):
            for g in genera:
                yield name, g
        else:
            yield name, None


@pytest.mark.parametrize("name,g", list(standard_lattices([*range(2, 61), 1000])))
def test_snf_matches_reference_on_standard_lattices(name, g):
    gram = build_standard(name, g=g).gram
    assert smith_normal_form(gram) == reference_snf(gram)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_snf_matches_reference_on_sparse_matrices(data):
    rows = data.draw(st.integers(0, 9))
    cols = data.draw(st.integers(1, 9))
    entry = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-12, 12), st.integers(-1000, 1000))
    m = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    assert smith_normal_form(m) == reference_snf(m)


# ---------------------------------------------------------------------------
# standard lattices and determinants


DETS = {
    "U": -1,
    "E8neg": 1,
    "E7neg": -2,
    "K3": -1,
    "Uperp": 1,
}


@pytest.mark.parametrize("name,expected", sorted(DETS.items()))
def test_standard_determinants(name, expected):
    assert build_standard(name).determinant() == expected


def test_k3_shape():
    k3 = build_standard("K3")
    assert k3.rank == 22
    assert k3.determinant() == -1


def test_period_lattice_determinants():
    assert build_standard("LambdaG", g=6).determinant() == -10
    assert build_standard("LambdaA1", g=6).determinant() == 20


def test_e8_chain_convention():
    e8 = build_standard("E8neg")
    t = lambda i: [1 if j == i - 1 else 0 for j in range(8)]
    assert e8.pairing(t(1), t(2)) == 1
    assert e8.pairing(t(1), t(3)) == 0
    assert e8.pairing(t(5), t(8)) == 1
    assert e8.norm(t(1)) == -2


def test_e7_is_t1_complement_in_e8():
    e8 = build_standard("E8neg")
    t1 = [1, 0, 0, 0, 0, 0, 0, 0]
    comp, emb = orthogonal_complement(e8, [t1])
    assert comp.rank == 7
    assert comp.determinant() == -2
    assert build_standard("E7neg").determinant() == -2
    assert discriminant_group(comp).factors == discriminant_group(build_standard("E7neg")).factors


def test_direct_sum_det_multiplicative():
    u = build_standard("U")
    e8 = build_standard("E8neg")
    assert direct_sum(u, e8).determinant() == u.determinant() * e8.determinant()
    assert direct_sum(u, u).rank == 4
    assert direct_sum(u, u).determinant() == 1


def chained_build(name, g=None):
    """The standard lattices as orthogonal sums, one direct_sum at a time."""
    def root_lattice(diag, edges, labels):
        gram = [[0] * len(diag) for _ in diag]
        for i, x in enumerate(diag):
            gram[i][i] = x
        for (i, j), x in edges.items():
            gram[i][j] = gram[j][i] = x
        return IntegralLattice(gram, labels)

    e8_edges = dict.fromkeys([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)], 1)
    e7_edges = {(0, 1): 2, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (3, 6): 1}
    u = lambda k: IntegralLattice([[0, 1], [1, 0]], (f"e{k}", f"f{k}"))
    e8 = lambda p: root_lattice([-2] * 8, e8_edges, [f"{p}{i}" for i in range(1, 9)])
    e7 = root_lattice([-6] + [-2] * 6, e7_edges, [f"s{i}" for i in range(1, 8)])
    summands = {
        "U": [u(1)],
        "E8neg": [e8("t")],
        "E7neg": [e7],
        "Uperp": [u(1), u(2), e8("t"), e8("u")],
        "K3": [u(1), u(2), u(3), e8("t"), e8("u")],
        "LambdaG": [u(2), u(3), e8("t"), e8("u")],
        "LambdaA1": [u(2), u(3), e8("u"), e7],
    }[name]
    if g is not None:
        summands.insert(0, IntegralLattice([[-(2 * g - 2)]], ("w",)))
    l = summands[0]
    for m in summands[1:]:
        l = direct_sum(l, m)
    return l


def test_e7_images_span_the_complement_of_t1_in_e8():
    # s1 = t1 + 2*t2 and s_i = t_(i+1): orthogonal to t1, saturated in E8,
    # and their pairings are build_standard's E7neg Gram
    e8 = build_standard("E8neg")
    images = lattice._E7_IN_E8
    t1 = (1, 0, 0, 0, 0, 0, 0, 0)
    assert len(images) == 7 and all(e8.pairing(x, t1) == 0 for x in images)
    d, _, _ = smith_normal_form(images)
    assert [d[i][i] for i in range(7)] == [1] * 7
    gram = tuple(tuple(e8.pairing(x, y) for y in images) for x in images)
    assert gram == build_standard("E7neg").gram
    comp, _ = orthogonal_complement(e8, [t1])
    assert comp.determinant() == build_standard("E7neg").determinant() == -2


@pytest.mark.parametrize("name,g", list(standard_lattices([2, 3, 7, 1000])))
def test_build_standard_equals_chained_direct_sums(name, g):
    l = build_standard(name, g=g)
    expected = chained_build(name, g)
    assert (l.gram, l.labels) == (expected.gram, expected.labels)


def block_diagonal_build(name, g=None):
    """build_standard as one plain _block_diagonal assembly of the summands."""
    blocks = lattice._SUMMANDS[name]
    if g is not None:
        blocks = ((((-(2 * g - 2),),), ("w",)), *blocks)
    return IntegralLattice(*lattice._block_diagonal(blocks))


def padded_summand_table(name):
    """(factors, columns, pairings, supports) of the fixed summands of
    build_standard(name): each invariant factor d > 1 of each summand's own
    Smith normal form, with its v-column and u-row padded at the summand's
    offset, stable-sorted by d; the columns' pairings, each a dense product
    over the whole Gram, and each u-row's nonzero (index, entry) pairs."""
    grams = [gram for gram, _ in lattice._SUMMANDS[name]]
    offset = int(name in lattice.PERIOD_LATTICES)
    n = offset + sum(map(len, grams))
    gens = []
    for gram in grams:
        d, u, v = smith_normal_form(gram)

        def pad(x):
            return (0,) * offset + tuple(x) + (0,) * (n - offset - len(gram))

        for i in range(len(gram)):
            if d[i][i] > 1:
                gens.append((d[i][i], pad(row[i] for row in v), pad(u[i])))
        offset += len(gram)
    gens.sort(key=lambda t: t[0])
    # every column is 0 at w, so w's entry (g = 3 here) reaches no pairing
    whole = block_diagonal_build(name, 3 if name in lattice.PERIOD_LATTICES else None).gram
    cols = tuple(col for _, col, _ in gens)
    return (
        tuple(f for f, _, _ in gens),
        cols,
        tuple(tuple(sum(map(mul, ci, dense_mat_vec(whole, cj))) for cj in cols) for ci in cols),
        tuple(tuple((j, c) for j, c in enumerate(row) if c) for _, _, row in gens),
    )


def test_each_standard_name_has_at_most_one_factored_summand():
    # a standard name's group table is that of its one summand whose
    # determinant is not +-1 (E7neg), if it has one
    for name, summands in lattice._SUMMANDS.items():
        assert sum(abs(det(gram)) != 1 for gram, _ in summands) <= 1, name
    factored = [name for name in lattice._SUMMANDS if lattice._standard_template(name)[2][0]]
    assert factored == ["LambdaA1", "E7neg"]


@pytest.mark.parametrize("name,g", list(standard_lattices([*range(2, 201), 10**6, 10**7])))
def test_build_standard_equals_block_diagonal_assembly(name, g):
    # build_standard sets a period lattice's fields without running the
    # constructor's checks; the result must be the lattice they give
    l = build_standard(name, g=g)
    expected = block_diagonal_build(name, g)
    assert (l.gram, l.labels, hash(l), l._standard) == (expected.gram, expected.labels, hash(expected), (name, g))
    template, planes, table = lattice._standard_template(name)
    assert table == padded_summand_table(name)
    assert planes == lattice.hyperbolic_planes(template)
    assert type(l) is IntegralLattice and {type(x) for row in l.gram for x in row} == {int}
    assert l == expected and expected._standard is None
    # a copy is a plain value: equal, hashing equal, and with the same group
    # from the full Smith normal form
    grp = DiscriminantGroup(l)
    for copy in (pickle.loads(pickle.dumps(l)), deepcopy(l)):
        assert copy == l and hash(copy) == hash(l)
        copy_grp = DiscriminantGroup(copy)
        assert (copy_grp.factors, copy_grp.lifts) == (grp.factors, grp.lifts)


def test_standard_lattices_share_their_constant_rows():
    lg5, lg6 = build_standard("LambdaG", g=5), build_standard("LambdaG", g=6)
    assert lg5.gram[1] is lg6.gram[1]
    assert all(a is b for a, b in zip(lg5.gram[1:], lg6.gram[1:]))
    assert lg5.gram[0] != lg6.gram[0]
    assert all(a is b for a, b in zip(build_standard("K3").gram, build_standard("K3").gram))


def test_build_standard_runs_the_constructor_once_per_name(monkeypatch):
    calls = []
    checked_init = IntegralLattice.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(IntegralLattice, "__init__", counting_init)
    lattice._standard_template.cache_clear()
    rng = random.Random(0)
    names = [rng.choice(STANDARD_NAMES) for _ in range(100)]
    for name in names:
        build_standard(name, g=rng.randint(2, 10**6) if name in lattice.PERIOD_LATTICES else None)
    assert len(calls) == len(set(names))


def dense_mat_vec(a, x):
    return [sum(map(mul, row, x)) for row in a]


def random_symmetric(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            a[i][j] = a[j][i] = rng.randint(-9, 9)
    return a


def test_sparse_mat_vec_equals_the_dense_product():
    rng = random.Random(0)
    for n in range(1, 23):
        for _ in range(5):
            a = random_symmetric(rng, n)
            vectors = [[0] * n, [rng.randint(-50, 50) for _ in range(n)]]
            for i in range(n):
                vectors.append([int(j == i) for j in range(n)])
            vectors.append([rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(n)])
            for x in vectors:
                assert lattice._mat_vec(a, x) == dense_mat_vec(a, x), (a, x)
    for x in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match=f"length mismatch: 3 and {len(x)}"):
            lattice._mat_vec(random_symmetric(rng, 3), x)


def test_integer_checks_agree_on_both_routes():
    # all-int input takes the type scan, anything else goes entry by entry
    assert exact_ints((1, -2, 3)) == (1, -2, 3)
    for mixed in ((True, Fraction(4, 2), 2.0, 5), (1, 2, True), (Fraction(-6, 3),)):
        out = exact_ints(mixed)
        assert out == tuple(int(x) for x in mixed)
        assert {type(x) for x in out} == {int}
    with pytest.raises(ValueError, match="non-integral entry 2.5"):
        exact_ints((1, 2, 2.5))
    rows = lattice._freeze([[0, True], [Fraction(4, 2), 2.0]])
    assert rows == ((0, 1), (2, 2)) and {type(x) for row in rows for x in row} == {int}
    plain = ((0, 1), (1, 0))
    assert lattice._freeze(plain)[0] is plain[0]
    with pytest.raises(ValueError, match="non-integral entry 2.5"):
        lattice._freeze([[0, 1], [1, 2.5]])


@pytest.mark.parametrize("inf", [float("inf"), float("-inf")])
def test_exact_int_refuses_infinities_with_value_error(inf):
    # int() of an infinity raises OverflowError; exact_int keeps its
    # ValueError promise, here and through a public entry point
    with pytest.raises(ValueError, match=f"^non-integral entry {inf!r}$"):
        exact_int(inf)
    with pytest.raises(ValueError, match=f"^non-integral entry {inf!r}$"):
        build_standard("LambdaG", g=inf)


def test_constructor_reports_first_bad_entry_in_row_major_order():
    with pytest.raises(ValueError, match=r"not symmetric at \(2, 0\)"):
        IntegralLattice([[0, 0, 1], [0, 0, 5], [0, 3, 0]])
    with pytest.raises(ValueError, match=r"not symmetric at \(1, 0\)"):
        IntegralLattice([[0, 1, 0], [2, 0, 0], [0, 0, 3]])
    with pytest.raises(ValueError, match="odd diagonal entry 3 at position 1"):
        IntegralLattice([[0, 1, 0], [1, 3, 0], [7, 0, 0]])


def test_constructor_rejects_bad_gram():
    with pytest.raises(ValueError):
        IntegralLattice([[1]])  # odd diagonal
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        IntegralLattice([[0, 1]])  # not square
    with pytest.raises(ValueError):
        IntegralLattice([[2]], labels=("a", "b"))


@pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\nb", "a\u00a0b", "a\r", " a"])
def test_labels_must_be_nonempty_and_contain_no_whitespace(label):
    # describe() joins labels with spaces and from_text splits them on any
    # whitespace, so a label holding any could not be read back
    with pytest.raises(ValueError, match="labels must be nonempty and contain no whitespace"):
        IntegralLattice([[2]], labels=[label])


def test_labels_without_whitespace_read_back():
    l = IntegralLattice([[0, 1], [1, 0]], labels=["eé", "f_1'"])
    assert from_text(to_text(l)) == l
    assert l.describe([1, -2]) == "eé - 2*f_1'"


def test_lattice_hash_is_the_hash_of_its_fields():
    a = build_standard("LambdaG", g=9)
    b = IntegralLattice([list(row) for row in a.gram], list(a.labels))
    assert a == b and a is not b
    assert hash(a) == hash(b) == hash((a.gram, a.labels))
    assert discriminant_group(b) is discriminant_group(a)
    assert IntegralLattice._fields == ("gram", "labels")
    assert repr(IntegralLattice([[0, 1], [1, 0]])) == "IntegralLattice(gram=((0, 1), (1, 0)), labels=('b1', 'b2'))"
    assert IntegralLattice([[0, 1], [1, 0]]) != IntegralLattice([[0, 1], [1, 0]], ("e", "f"))


def test_lattice_pickled_in_another_process_hashes_equal(monkeypatch):
    # string hashes are salted per process, so a pickled hash would be stale
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    code = "import pickle, sys; from nlk3.lattice import build_standard; sys.stdout.write(pickle.dumps(build_standard('LambdaA1', g=5)).hex())"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONHASHSEED": seed},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = pickle.loads(bytes.fromhex(proc.stdout))
    here = build_standard("LambdaA1", g=5)
    assert loaded == here
    assert hash(loaded) == hash(here)
    assert {loaded: 1}[here] == 1
    # the copy is a plain value: its group comes from the full Smith normal
    # form, and equals the original's
    grp = DiscriminantGroup(here)
    ranks = recorded_snf_ranks(monkeypatch)
    copy_grp = DiscriminantGroup(loaded)
    assert ranks == [20]
    assert (copy_grp.factors, copy_grp.lifts) == (grp.factors, grp.lifts)
    # so does a copy at g = 2, where the summand route does not apply
    genus2 = pickle.loads(pickle.dumps(build_standard("LambdaG", g=2)))
    DiscriminantGroup(genus2)
    assert ranks == [20, 21]


def test_non_integral_entries_raise():
    with pytest.raises(ValueError, match="non-integral entry Fraction\\(5, 2\\)"):
        IntegralLattice([[Fraction(5, 2), 1], [1, 0]])
    with pytest.raises(ValueError, match="non-integral entry 2.7"):
        smith_normal_form([[2.7, 1], [1, 0.5]])
    with pytest.raises(ValueError, match="non-integral"):
        det([[1, 0], [0, Fraction(1, 3)]])
    u = build_standard("U")
    half = [Fraction(1, 2), 1]
    for fn in (
        lambda v: u.pairing(v, [1, 0]),
        lambda v: u.pairing([1, 0], v),
        lambda v: dual_class(u, v),
        lambda v: divisibility(u, v),
        lambda v: is_primitive(u, v),
    ):
        with pytest.raises(ValueError, match="non-integral entry Fraction\\(1, 2\\)"):
            fn(half)
        with pytest.raises(ValueError, match="non-integral entry 0.5"):
            fn([0.5, 1])


def test_integral_non_int_entries_are_accepted():
    l = IntegralLattice([[Fraction(4, 2), True], [True, 0.0]])
    assert l.gram == ((2, 1), (1, 0))
    assert all(type(x) is int for row in l.gram for x in row)
    assert l.pairing([Fraction(4, 2), True], [True, 0]) == 5
    assert divisibility(l, [Fraction(6, 3), 0]) == 2
    d, _, _ = smith_normal_form([[Fraction(4, 2), True], [True, 0]])
    assert all(type(x) is int for row in d for x in row)
    assert det([[Fraction(4, 2), True], [True, 0]]) == -1


@pytest.mark.parametrize(
    "build",
    [
        lambda x: discriminant_group(build_standard("LambdaG", g=4)).element((x,)),
        lambda x: x * discriminant_group(build_standard("LambdaG", g=4)).element((1,)),
        lambda x: NLKey(x, 1, -2),
        lambda x: HalfIntegralTable({-1: 2, 0: x}),
    ],
    ids=["disc-residue", "disc-scalar", "nl-key", "exponent-table"],
)
def test_scalars_are_not_truncated(build):
    assert build(Fraction(6, 2)) == build(3.0) == build(3)
    with pytest.raises(ValueError, match=r"non-integral entry Fraction\(5, 2\)"):
        build(Fraction(5, 2))
    with pytest.raises(ValueError, match="non-integral entry 2.5"):
        build(2.5)


def _typed_lift_multiple(m):
    # the types too: m = 6.0 must not turn the lift into floats
    grp = discriminant_group(build_standard("LambdaG", g=4))
    return [(c, type(c)) for c in grp.lift_multiple(grp.element((1,)), m)]


@pytest.mark.parametrize(
    "call,good",
    [
        (lambda x: build_standard("LambdaG", g=x), 5),
        (lambda x: build_standard("LambdaA1", g=x), 5),
        (lambda x: eichler_candidates(build_standard("LambdaG", g=5), x), -2),
        (lambda x: discriminant_group(build_standard("LambdaA1", g=6)).eichler_classes(x), -6),
        (lambda x: nl_component_count(x, "nodal"), 6),
        (lambda x: locus_lattice(x, "a2"), 6),
        (lambda x: GenusTwoSeries({(x, 0, 1): 7}, 3, 3), 1),
        (lambda x: GenusTwoSeries({}, x, 1), 2),
        (lambda x: GenusTwoSeries({}, 1, x), 2),
        (lambda x: GenusTwoSeries({}, 1, 1, x), 2),
        (lambda x: net_counts(SurfaceChernData(x, -16, 8, 4)), 32),
        (lambda x: GenusTwoSeries({(1, 0, 1): 7}, 3, 3).coefficient(x, 0, 1), 1),
        (_typed_lift_multiple, 6),
        (lambda x: default_chi10_exponents().c(x), 1),
        (lambda x: chi10(trunc_k=x, trunc_m=2), 2),
        (lambda x: chi10(trunc_k=2, trunc_m=x), 2),
        (lambda x: binomial_pow((x, 0, 1), 2, 2, 2), 1),
        (lambda x: binomial_pow((1, 0, 1), x, 2, 2), 2),
        (lambda x: binomial_pow((1, 0, 1), 2, x, 2), 2),
        (lambda x: binomial_pow((1, 0, 1), 2, 2, x), 2),
        (lambda x: binomial_pow((1, 0, 1), 2, 2, 2, x), 6),
    ],
    ids=[
        "lambda-g", "lambda-a1", "eichler-norm", "eichler-classes-norm", "components-g", "locus-g", "series-index",
        "trunc-k", "trunc-m", "trunc-l", "chern-data", "series-coefficient", "lift-multiple", "exponent",
        "chi10-trunc-k", "chi10-trunc-m", "pow-monomial", "pow-exponent", "pow-trunc-k", "pow-trunc-m", "pow-trunc-l",
    ],
)
def test_entry_points_do_not_truncate(call, good):
    assert call(Fraction(2 * good, 2)) == call(float(good)) == call(good)
    for bad in (Fraction(2 * good + 1, 2), good + 0.5, str(good)):
        with pytest.raises(ValueError, match="non-integral entry"):
            call(bad)


def test_rows_may_be_iterators():
    rows = [[0, 1], [1, 0]]
    assert IntegralLattice(iter(row) for row in rows).gram == ((0, 1), (1, 0))
    assert smith_normal_form(iter(row) for row in rows) == smith_normal_form(rows)
    assert build_standard("U").pairing(iter([1, 2]), iter([3, 4])) == 10


def test_build_standard_argument_validation():
    with pytest.raises(ValueError):
        build_standard("LambdaG")
    with pytest.raises(ValueError):
        build_standard("U", g=5)
    with pytest.raises(ValueError):
        build_standard("E6neg")
    with pytest.raises(ValueError):
        build_standard("LambdaG", g=1)


# ---------------------------------------------------------------------------
# discriminant groups


def test_disc_group_orders():
    # orders 2g-2 and 2(2g-2) across several genera
    for g in (4, 5, 6, 7, 11):
        assert discriminant_group(build_standard("LambdaG", g=g)).order == 2 * g - 2
        assert discriminant_group(build_standard("LambdaA1", g=g)).order == 2 * (2 * g - 2)


def test_group_methods_reject_elements_of_other_groups():
    # LambdaA1(6)'s (1, 3) once read as q = -1/10 in LambdaG(6)'s group: the
    # residues were zipped against the wrong factors and silently cut short
    grp = discriminant_group(build_standard("LambdaG", g=6))
    own = grp.element((1,))
    foreign = (
        discriminant_group(build_standard("LambdaA1", g=6)).element((1, 3)),
        discriminant_group(build_standard("LambdaG", g=7)).element((1,)),
        DiscElement((), ()),
    )
    for x in foreign:
        calls = (
            lambda: grp.quadratic(x),
            lambda: grp.quadratic_is(x, -1, 10),
            lambda: grp.bilinear(x, own),
            lambda: grp.bilinear(own, x),
            lambda: grp.lift(x),
            lambda: grp.lift_multiple(x, 10),
            # the group check comes before the checks of m
            lambda: grp.lift_multiple(x, 3),
            lambda: grp.lift_multiple(x, 2.5),
            lambda: own + x,
        )
        for call in calls:
            with pytest.raises(ValueError, match="^elements of different groups$"):
                call()
    # an element of an equal group is one of this group
    twin = discriminant_group(from_text(to_text(build_standard("LambdaG", g=6)))).element((3,))
    assert grp.quadratic(twin) == grp.quadratic(grp.element((3,))) == Fraction(-9, 10)
    assert grp.lift_multiple(twin, 10) == grp.lift_multiple(grp.element((3,)), 10)


def test_disc_group_factors():
    assert discriminant_group(build_standard("LambdaG", g=6)).factors == (10,)
    assert discriminant_group(build_standard("LambdaA1", g=6)).factors == (2, 10)
    assert discriminant_group(build_standard("E7neg")).factors == (2,)
    assert discriminant_group(build_standard("Uperp")).factors == ()
    assert discriminant_group(build_standard("K3")).factors == ()


SUMMAND_GENERA = [*range(2, 401), 10**3, 10**6, 10**7]


@pytest.mark.parametrize("name", STANDARD_NAMES)
def test_summand_groups_equal_the_full_snf(name):
    """The group of a standard lattice, built from its summands, equals the
    one read off the Smith normal form of its whole Gram matrix.

    Why this is exact for LambdaG and LambdaA1 at every g >= 3 and not only at
    the genera tried: the w row and column hold a single entry, -(2g-2), and
    an elimination step only touches entries facing a nonzero entry of the
    pivot row or column, so that entry stays alone until w is the pivot.  The
    pivot is an entry of least |a|; |2g-2| >= 4 exceeds every pivot the
    summands take (E8neg takes 1 and 2, E7neg 1, 2 and 3), so w is pivoted
    last.  Before that, the entry is read only by the divisibility test
    x % p, and every such test is at |p| = 2 (at pivot 3 a remainder is left
    and the step repeats), where the even entry passes.  So the full Smith
    normal form runs the same operations for every g >= 3, and g reaches its
    output only through that entry; the test compares g = 2..400 and three
    huge genera.  At g = 2 the pivot -2 ties the 2-pivots of E8neg and the
    generators differ, so g = 2 keeps the full route (compared here too).
    """
    rng = random.Random(name)
    for g in SUMMAND_GENERA if name in ("LambdaG", "LambdaA1") else [None]:
        l = build_standard(name, g=g)
        grp = DiscriminantGroup(l)
        factors, lifts, gram, rows = full_snf_group(l)
        assert (grp.factors, grp.lifts, grp._gram) == (factors, lifts, gram), (name, g)
        for _ in range(3):
            # y = sum a_i*lift_i + (lattice vector) has residues a
            a = [rng.randrange(f) for f in factors]
            shift = [rng.randint(-5, 5) for _ in range(l.rank)]
            y = [sum((x * lift[r] for x, lift in zip(a, lifts)), Fraction(s)) for r, s in enumerate(shift)]
            assert grp.element_of(y).residues == tuple(a)
            # v/div(v) has the residues the full route's u-rows read off G.v/div(v)
            v = [rng.randint(-9, 9) for _ in range(l.rank)]
            if any(v):
                gv = [sum(map(mul, row, v)) for row in l.gram]
                div = gcd(*gv)
                want = tuple(sum(map(mul, row, gv)) // div % f for row, f in zip(rows, factors))
                assert grp._class_of([c // div for c in gv]).residues == want


def recorded_snf_ranks(monkeypatch):
    ranks = []
    full = lattice.smith_normal_form

    def recording(m):
        ranks.append(len(m))
        return full(m)

    monkeypatch.setattr(lattice, "smith_normal_form", recording)
    return ranks


def test_standard_groups_take_no_full_snf(monkeypatch):
    ranks = recorded_snf_ranks(monkeypatch)
    lattice._standard_template.cache_clear()
    for name, g in standard_lattices([3, 4, 50, 10**6]):
        DiscriminantGroup(build_standard(name, g=g))
    # E7 once for each name that holds it (E7neg and LambdaA1); U and E8neg
    # are unimodular and the rank-1 block <-(2g-2)> is its own Smith normal
    # form, so neither is factored
    assert ranks == [7, 7]


def test_other_lattices_take_the_full_snf(monkeypatch):
    lam = build_standard("LambdaA1", g=5)
    others = [
        build_standard("LambdaG", g=2),
        build_standard("LambdaA1", g=2),
        from_text(to_text(lam)),
        direct_sum(build_standard("E7neg"), build_standard("U")),
        orthogonal_complement(build_standard("K3"), [[1, 1] + [0] * 20])[0],
    ]
    ranks = recorded_snf_ranks(monkeypatch)
    for l in others:
        # the routing condition of DiscriminantGroup
        assert l._standard is None or l._standard[1] == 2
        DiscriminantGroup(l)
    assert ranks == [21, 20, 20, 9, 21]


def test_summand_snfs_wait_for_the_first_group():
    # importing the package (and the CLI) factors no summand and builds no
    # standard lattice's template
    code = (
        "import nlk3.cli; from nlk3.lattice import _standard_template\n"
        "print(_standard_template.cache_info().currsize, _standard_template.cache_parameters()['maxsize'])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(len(STANDARD_NAMES))]


@pytest.mark.parametrize("name,g", [("U", None), ("E8neg", None), ("E7neg", None), ("LambdaG", 6), ("LambdaA1", 6), ("LambdaA1", 7)])
def test_invariant_factor_product_is_det(name, g):
    l = build_standard(name, g=g) if g else build_standard(name)
    assert prod(discriminant_group(l).factors, start=1) == abs(l.determinant())


def test_pi_class_q_value():
    lg = build_standard("LambdaG", g=6)
    pi = [Fraction(1, 10)] + [Fraction(0)] * 20
    grp = discriminant_group(lg)
    assert grp.quadratic(grp.element_of(pi)) == Fraction(-1, 10)


def test_w2_class_q_value():
    la = build_standard("LambdaA1", g=6)
    s1 = la.labels.index("s1")
    w2 = [Fraction(0)] * 20
    w2[s1] = Fraction(1, 2)
    grp = discriminant_group(la)
    assert grp.quadratic(grp.element_of(w2)) == Fraction(-3, 2)


def test_e7_generator_q_value():
    e7 = build_standard("E7neg")
    grp = discriminant_group(e7)
    (gen,) = [x for x in grp.elements() if any(x.residues)]
    assert grp.quadratic(gen) == Fraction(-3, 2)


def test_q_values_lie_in_canonical_interval():
    for l in (build_standard("E7neg"), build_standard("LambdaA1", g=5), build_standard("LambdaG", g=7)):
        grp = discriminant_group(l)
        for x in grp.elements():
            q = grp.quadratic(x)
            assert Fraction(-2) < q <= 0


@pytest.mark.parametrize("g", [4, 5, 6, 7])
def test_quadratic_form_polarization_law(g):
    # q(x+y) - q(x) - q(y) = 2 b(x, y) mod 2Z
    grp = discriminant_group(build_standard("LambdaA1", g=g))
    xs = list(grp.elements())
    for x in xs:
        for y in xs:
            lhs = grp.quadratic(x + y) - grp.quadratic(x) - grp.quadratic(y)
            rhs = 2 * grp.bilinear(x, y)
            assert (lhs - rhs) % 2 == 0


@pytest.mark.parametrize(
    "name,g", [("E7neg", None), ("LambdaG", 7), ("LambdaA1", 4), ("LambdaA1", 5), ("LambdaA1", 6), ("LambdaA1", 7)]
)
def test_residue_forms_match_lift_definition(name, g):
    l = build_standard(name, g=g) if g else build_standard(name)
    grp = discriminant_group(l)
    xs = list(grp.elements())
    assert len(xs) == grp.order
    for x in xs:
        assert grp.quadratic(x) == mod2_rep(lift_pairing(l, grp, x, x))
    # b on every pair, with G.lift(y) computed once per y
    g_lifts = {y: [sum(row[j] * c for j, c in enumerate(grp.lift(y))) for row in l.gram] for y in xs}
    for x in xs:
        a = grp.lift(x)
        for y in xs:
            assert grp.bilinear(x, y) == sum(p * q for p, q in zip(a, g_lifts[y])) % 1


@pytest.mark.parametrize("name,g", [("E7neg", None), ("LambdaG", 7), ("LambdaA1", 6), ("LambdaA1", 7)])
def test_element_of_is_class_of_any_lift(name, g):
    # element_of(lift(x) + v) == x for lattice vectors v, with mixed denominators
    l = build_standard(name, g=g) if g else build_standard(name)
    grp = discriminant_group(l)
    shift = [(3 * i) % 5 - 2 for i in range(l.rank)]
    for x in grp.elements():
        y = grp.lift(x)
        assert grp.element_of(y) == x
        assert grp.element_of([c + s for c, s in zip(y, shift)]) == x


@pytest.mark.parametrize("name,g", [("E7neg", None), ("LambdaG", 7), ("LambdaA1", 6), ("LambdaA1", 7), ("K3", None)])
def test_elements_yields_torsion(name, g):
    l = build_standard(name, g=g) if g else build_standard(name)
    grp = discriminant_group(l)
    everything = list(grp.elements())
    assert list(grp.elements(0)) == everything
    for n in (1, 2, 3, 4, 6, 12, -2, -6, -10, -30):
        assert list(grp.elements(n)) == [x for x in everything if not any((n * x).residues)]


@pytest.mark.parametrize(
    "gram",
    [
        [[0]],
        [[2, 2], [2, 2]],
        [[2, 1, 3], [1, 2, 3], [3, 3, 6]],  # third row = first + second
    ],
)
def test_degenerate_lattice_has_no_discriminant_group(gram):
    l = IntegralLattice(gram)
    assert l.determinant() == 0
    with pytest.raises(ValueError, match="degenerate"):
        DiscriminantGroup(l)
    with pytest.raises(ValueError, match="degenerate"):
        discriminant_group(l)


def test_element_arithmetic():
    grp = discriminant_group(build_standard("LambdaA1", g=6))
    x = grp.element((1, 3))
    assert (x + x).residues == (0, 6)
    assert ((-1) * x).residues == (1, 7)
    assert (5 * x).residues == (1, 15 % 10)
    assert x.order() == 10
    assert grp.element((1, 0)).order() == 2
    assert grp.element((0, 0)).order() == 1
    with pytest.raises(ValueError):
        x + discriminant_group(build_standard("E7neg")).element((1,))


def test_disc_element_checks_and_reduces_its_residues():
    with pytest.raises(ValueError, match="^1 residues for 2 invariant factors$"):
        DiscElement((2, 10), (1,))
    with pytest.raises(ValueError, match="^3 residues for 2 invariant factors$"):
        DiscElement((2, 10), (1, 2, 3))
    with pytest.raises(ValueError, match=r"^non-integral entry 2\.5$"):
        DiscElement((2, 10), (1, 2.5))
    with pytest.raises(ValueError, match=r"^non-integral entry 2\.5$"):
        DiscElement((2.5, 10), (1, 2))
    # a factor below 1 would divide by zero or store a negative residue
    with pytest.raises(ValueError, match="^invariant factor 0 is below 1$"):
        DiscElement((0,), (1,))
    with pytest.raises(ValueError, match="^invariant factor -3 is below 1$"):
        DiscElement((-3,), (1,))
    cases = {(-3, -13): (1, 7), (True, False): (1, 0), (-1, True): (1, 1), (4.0, Fraction(24, 2)): (0, 2)}
    for residues, reduced in cases.items():
        x = DiscElement((2, 10), residues)
        assert x.residues == reduced and all(type(a) is int for a in x.residues), residues
    assert DiscElement((), ()).residues == ()


@pytest.mark.parametrize(
    "name,g", [("E7neg", None), ("K3", None), ("LambdaG", 7), ("LambdaG", 50), ("LambdaA1", 6), ("LambdaA1", 10**6)]
)
def test_internal_elements_equal_the_checked_constructor(name, g):
    # elements(n), _class_of, + and c*x build elements through
    # Record._trusted, without the constructor's checks; each must be the
    # element DiscElement(...) gives for the unreduced residues
    l = build_standard(name, g=g)
    grp = discriminant_group(l)
    f = grp.factors
    rng = random.Random(f"{name}{g}")

    def assert_checked(x, residues):
        y = DiscElement(f, residues)
        assert x == y and hash(x) == hash(y) and x.residues == y.residues, (x, residues)

    for n in (0, 2, -6):
        for x in islice(grp.elements(n), 40):
            assert_checked(x, x.residues)
    rows = full_snf_group(l)[3]
    for _ in range(40):
        gy = [rng.randint(-50, 50) for _ in range(l.rank)]
        assert_checked(grp._class_of(gy), [sum(map(mul, row, gy)) for row in rows])
        a, b = ([rng.randint(-3 * d, 3 * d) for d in f] for _ in "ab")
        x, y = grp.element(a), grp.element(b)
        c = rng.randint(-(10**6), 10**6)
        assert_checked(x + y, [p + q for p, q in zip(a, b)])
        assert_checked(x + (-1) * y, [p - q for p, q in zip(a, b)])
        assert_checked(c * x, [c * p for p in a])


def test_element_of_rejects_non_dual_vectors():
    grp = discriminant_group(build_standard("LambdaG", g=6))
    with pytest.raises(ValueError):
        grp.element_of([Fraction(1, 3)] + [Fraction(0)] * 20)


def test_generator_lifts_map_to_unit_residues():
    for g in (5, 6, 7):
        grp = discriminant_group(build_standard("LambdaA1", g=g))
        for i, lift in enumerate(grp.lifts):
            x = grp.element_of(lift)
            expected = tuple(1 if j == i else 0 for j in range(len(grp.factors)))
            assert x.residues == expected


LIFT_CASES = [("E7neg", None), ("LambdaG", 7), ("LambdaA1", 6), ("LambdaA1", 7), ("Uperp", None), ("K3", None), ("noncyclic", None)]


def lift_case(name, g):
    if name == "noncyclic":
        return noncyclic_lattice()
    return build_standard(name, g=g) if g else build_standard(name)


@pytest.mark.parametrize("name,g", LIFT_CASES)
def test_lifts_match_fraction_definition(name, g):
    l = lift_case(name, g)
    grp = DiscriminantGroup(l)
    assert "lifts" not in vars(grp)  # computed on each read
    factors, lifts, _, _ = full_snf_group(l)
    assert grp.factors == factors
    assert grp.lifts == lifts
    for x in grp.elements():
        want = tuple(sum((a * lift[i] for a, lift in zip(x.residues, lifts)), Fraction(0)) for i in range(l.rank))
        assert grp.lift(x) == want
        assert all(type(c) is Fraction for c in grp.lift(x))
        for m in (x.order(), 2 * x.order(), -x.order()):
            assert grp.lift_multiple(x, m) == [int(m * (c % 1)) for c in want]


def test_lift_multiple_requires_an_annihilator():
    grp = discriminant_group(noncyclic_lattice())
    assert grp.factors == (2, 12)
    x = grp.element((1, 3))
    assert x.order() == 4
    for m in (1, 2, 3, 6):
        with pytest.raises(ValueError, match="does not annihilate"):
            grp.lift_multiple(x, m)
    assert grp.lift_multiple(x, 0) == [0] * 6


@pytest.mark.parametrize("name,g", LIFT_CASES)
def test_quadratic_is_matches_quadratic(name, g):
    grp = discriminant_group(lift_case(name, g))
    for x in grp.elements():
        q = grp.quadratic(x)
        for den in (1, 2, 3, 4, 9, 12, 144, x.order() ** 2, -4):
            for num in range(-13, 14):
                assert grp.quadratic_is(x, num, den) == (q == mod2_rep(Fraction(num, den))), (x, num, den)


# ---------------------------------------------------------------------------
# divisibility and dual classes


def test_divisibility_basics():
    e8 = build_standard("E8neg")
    assert divisibility(e8, [1, 0, 0, 0, 0, 0, 0, 0]) == 1
    lg = build_standard("LambdaG", g=6)
    w = [1] + [0] * 20
    assert divisibility(lg, w) == 10
    assert discriminant_group(lg).quadratic(dual_class(lg, w)) == Fraction(-1, 10)
    la = build_standard("LambdaA1", g=6)
    s1 = [0] * 20
    s1[la.labels.index("s1")] = 1
    assert divisibility(la, s1) == 2
    assert discriminant_group(la).quadratic(dual_class(la, s1)) == Fraction(-3, 2)


def test_divisibility_divides_norm():
    la = build_standard("LambdaA1", g=5)
    vectors = [
        [1, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
        [0, 1, -3, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [2, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1],
    ]
    for v in vectors:
        n = la.norm(v)
        d = divisibility(la, v)
        assert n % d == 0
        # dual class has order exactly div for primitive v
        if is_primitive(la, v):
            assert dual_class(la, v).order() == d


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dual_class_matches_fraction_route(data):
    name = data.draw(st.sampled_from(["LambdaG", "LambdaA1"]))
    l = build_standard(name, g=data.draw(st.integers(2, 40)))
    v = data.draw(st.lists(st.integers(-6, 6), min_size=l.rank, max_size=l.rank).filter(any))
    d = divisibility(l, v)
    assert dual_class(l, v) == discriminant_group(l).element_of([Fraction(c, d) for c in v])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_orbit_invariants_match_separate_routes(data):
    name = data.draw(st.sampled_from(["LambdaG", "LambdaA1", "noncyclic"]))
    l = noncyclic_lattice() if name == "noncyclic" else build_standard(name, g=data.draw(st.integers(2, 40)))
    v = data.draw(st.lists(st.integers(-6, 6), min_size=l.rank, max_size=l.rank).filter(any))
    assert orbit_invariants(l, v) == (l.norm(v), divisibility(l, v), dual_class(l, v))


def test_divisibility_rejects_zero():
    with pytest.raises(ValueError):
        divisibility(build_standard("U"), [0, 0])


def test_is_primitive():
    u = build_standard("U")
    assert is_primitive(u, [1, 2])
    assert not is_primitive(u, [2, 4])
    assert not is_primitive(u, [0, 0])


# ---------------------------------------------------------------------------
# orthogonal complements


def test_complement_of_polarization_in_k3():
    k3 = build_standard("K3")
    g = 6
    h = [1, g - 1] + [0] * 20  # e1 + (g-1) f1
    comp, emb = orthogonal_complement(k3, [h])
    assert comp.rank == 21
    assert abs(comp.determinant()) == 2 * g - 2
    assert discriminant_group(comp).factors == discriminant_group(build_standard("LambdaG", g=g)).factors
    # embedding is primitive: all invariant factors of the embedding matrix are 1
    d, _, _ = smith_normal_form([list(e) for e in emb])
    assert all(d[i][i] == 1 for i in range(comp.rank))
    # embedded vectors really are orthogonal to h
    for e in emb:
        assert k3.pairing(e, h) == 0


def test_complement_of_polarization_and_root_in_k3():
    k3 = build_standard("K3")
    g = 6
    h = [1, g - 1] + [0] * 20
    t1 = [0] * 6 + [1] + [0] * 15
    comp, emb = orthogonal_complement(k3, [h, t1])
    assert comp.rank == 20
    assert abs(comp.determinant()) == 2 * (2 * g - 2)
    assert discriminant_group(comp).factors == discriminant_group(build_standard("LambdaA1", g=g)).factors


def test_complement_degenerate_edge():
    u = build_standard("U")
    comp, emb = orthogonal_complement(u, [[1, 0]])
    assert comp.rank == 1
    assert comp.determinant() == 0


def test_complement_input_validation():
    with pytest.raises(ValueError):
        orthogonal_complement(build_standard("U"), [])
    with pytest.raises(ValueError):
        orthogonal_complement(build_standard("U"), [[1, 0, 0]])


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name,g", [("U", None), ("E8neg", None), ("E7neg", None), ("K3", None), ("Uperp", None), ("LambdaG", 6), ("LambdaA1", 7)])
def test_text_round_trip(name, g):
    l = build_standard(name, g=g) if g else build_standard(name)
    assert from_text(to_text(l)) == l


def test_from_text_malformed():
    with pytest.raises(ValueError, match="line 1"):
        from_text("hello\n")
    with pytest.raises(ValueError, match="line 2"):
        from_text("rank 2\n0 1 7\n1 0\ne1 f1\n")
    with pytest.raises(ValueError, match="labels"):
        from_text("rank 2\n0 1\n1 0\ne1\n")
    with pytest.raises(ValueError):
        from_text("rank 2\n0 1\n1 0\ne1 f1\nextra\n")


@pytest.mark.parametrize(
    "text,msg",
    [
        ("rank 2\n0 1_0\n1_0 0\n", "^line 2: non-integer entry$"),
        ("rank 2\n0 \u0662\n\u0662 0\n", "^line 2: non-integer entry$"),
        ("rank 2\n0 1\n1 \uff11\n", "^line 3: non-integer entry$"),
        ("rank 1_0\n", "^line 1: malformed rank header$"),
        ("rank \u0662\n0 1\n1 0\n", "^line 1: malformed rank header$"),
        ("rank \uff12\n0 1\n1 0\n", "^line 1: malformed rank header$"),
    ],
)
def test_from_text_refuses_numbers_int_alone_would_read(text, msg):
    # '1_0' and digits of other scripts fail their line, as any non-number does
    with pytest.raises(ValueError, match=msg):
        from_text(text)


def test_from_text_reads_signed_integers():
    assert from_text("rank +2\n-2 +3\n+3 -2\n").gram == ((-2, 3), (3, -2))


def test_from_text_full_line_comment():
    assert from_text("rank 2\n# hyperbolic plane\n0 1\n1 0\n") == IntegralLattice([[0, 1], [1, 0]])


def test_from_text_trailing_comment():
    l = from_text("# U\nrank 2  # header\n0 1 # row 1\n1 0\ne f # labels\n")
    assert l.gram == ((0, 1), (1, 0))
    assert l.labels == ("e", "f")


def test_from_text_errors_name_file_lines():
    with pytest.raises(ValueError, match="line 4: non-integer entry"):
        from_text("rank 2\n0 1\n\n1 x\n")
    with pytest.raises(ValueError, match="line 5: expected 2 entries"):
        from_text("# comment\n\nrank 2\n0 1\n1 0 0\n")
    with pytest.raises(ValueError, match="line 3: expected 'rank N' header"):
        from_text("\n# only comments before\nnot a header\n")
    with pytest.raises(ValueError, match="trailing content at line 7"):
        from_text("rank 2\n0 1\n1 0\n\ne f\n\nextra\n")
    # the header holds exactly 'rank N' with N >= 0, as a Gram row holds
    # exactly N entries
    with pytest.raises(ValueError, match="^line 1: expected 'rank N' header$"):
        from_text("rank 2 7\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="^line 2: malformed rank header$"):
        from_text("\nrank -1\n")


def test_from_text_drops_one_leading_byte_order_mark():
    u = IntegralLattice([[0, 1], [1, 0]], ("e", "f"))
    assert from_text("\ufeffrank 2\n0 1\n1 0\ne f\n") == u
    assert from_text("\ufeff# U\nrank 2\n0 1\n1 0\ne f\n") == u
    # a second mark, or one anywhere else, is an ordinary character
    with pytest.raises(ValueError, match="line 1: expected 'rank N' header"):
        from_text("\ufeff\ufeffrank 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="line 2: non-integer entry"):
        from_text("rank 2\n\ufeff0 1\n1 0\n")


def test_describe():
    lg = build_standard("LambdaG", g=6)
    v = [1, 2, 2] + [0] * 18
    assert lg.describe(v) == "w + 2*e2 + 2*f2"
    assert lg.describe([0] * 21) == "0"
    w = [0, -1, 3] + [0] * 18
    assert lg.describe(w) == "-e2 + 3*f2"


def test_describe_takes_each_sign_from_its_coefficient():
    # a label may begin with '-': the sign between terms is the coefficient's
    l = IntegralLattice([[0, 1], [1, 0]], ("e", "-f"))
    assert l.describe([1, 1]) == "e + -f"
    assert l.describe([1, -1]) == "e - -f"
    assert l.describe([-1, 2]) == "-e + 2*-f"
    assert l.describe([0, -3]) == "-3*-f"


# ---------------------------------------------------------------------------
# randomized even lattices


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_even_lattice_disc_order(data):
    n = data.draw(st.integers(1, 5))
    a = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    gram = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    l = IntegralLattice(gram)
    if l.determinant() == 0:
        return
    grp = discriminant_group(l)
    assert prod(grp.factors, start=1) == abs(l.determinant())
    for x, lift in zip(range(len(grp.factors)), grp.lifts):
        # d_i * lift is an honest lattice vector
        assert all((grp.factors[x] * c).denominator == 1 for c in lift)
    # the residue forms agree with the lift definition on every generator pair
    gens = [grp.element(tuple(int(i == j) for j in range(len(grp.factors)))) for i in range(len(grp.factors))]
    for a in gens:
        assert grp.quadratic(a) == mod2_rep(lift_pairing(l, grp, a, a))
        for b in gens:
            assert grp.bilinear(a, b) == lift_pairing(l, grp, a, b) % 1


# ---------------------------------------------------------------------------
# error and edge branches the tests above do not reach


def test_pairing_rejects_vectors_of_different_lengths():
    with pytest.raises(ValueError, match="^length mismatch: 3 and 2$"):
        IntegralLattice([[0, 1], [1, 0]]).pairing([1, 0, 0], [1, 0])


def test_det_of_empty_and_non_square_matrices():
    assert det([]) == 1
    with pytest.raises(ValueError, match="^determinant requires a square matrix$"):
        det([[1, 2], [3]])


def test_snf_rejects_a_ragged_matrix():
    with pytest.raises(ValueError, match="^ragged matrix$"):
        smith_normal_form([[1, 2], [3]])


def test_element_of_rejects_a_vector_of_another_length():
    grp = discriminant_group(build_standard("LambdaG", g=3))
    with pytest.raises(ValueError, match="^vector length must match rank$"):
        grp.element_of([Fraction(1, 4)])


def test_from_text_header_and_row_count_errors():
    with pytest.raises(ValueError, match="^line 1: malformed rank header$"):
        from_text("rank two\n")
    with pytest.raises(ValueError, match="^expected 2 Gram rows after the header$"):
        from_text("rank 2\n0 1\n")


def test_constructed_lattice_copies_by_gram_and_labels():
    # a lattice with no standard name pickles as its Gram and labels; its
    # labels are strings, whose hashes are salted per process
    gram, labels = ((-2, 1), (1, -4)), ("a", "b")
    here = IntegralLattice(gram, labels)
    seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
    code = (
        "import pickle, sys; from nlk3.lattice import IntegralLattice; "
        f"sys.stdout.write(pickle.dumps(IntegralLattice({gram!r}, {labels!r})).hex())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
        env={**os.environ, "PYTHONHASHSEED": seed},
    )
    assert proc.returncode == 0, proc.stderr
    assert here.__reduce__() == (IntegralLattice, (gram, labels))
    for copy in (pickle.loads(pickle.dumps(here)), deepcopy(here), pickle.loads(bytes.fromhex(proc.stdout))):
        assert copy == here and hash(copy) == hash(here)
        assert (copy.gram, copy.labels, copy._standard) == (gram, labels, None)
