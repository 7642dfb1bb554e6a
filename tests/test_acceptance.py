"""Acceptance gate: one test per reproduction criterion, exact equality only.

Run with `python3 -m pytest tests/test_acceptance.py -v` for one pass/fail
line per criterion.  Every expected value below is a frozen literal; nothing
is derived from the code under test.
"""

import random
from fractions import Fraction

from nlk3 import chern, lattice, nldiv, orbits, siegel
from nlk3.cli import main


def test_criterion_1_net_counts():
    data = chern.SurfaceChernData(32, -16, 8, 4)
    assert chern.net_counts(data) == (216, 1914)
    assert chern.net_counts(data, degree=4) == (864, 7656)
    print("criterion 1 PASS: net-of-conics counts (216, 1914) / (864, 7656)")


def test_criterion_2_unigonal_counts():
    table = chern.default_unigonal_table()
    a2, a11 = chern.unigonal_counts(table)
    assert (a2, a11) == (816, 33480)
    # the double-point degree, the number criterion 2 prints
    assert 2 * (a2 + a11) == 68592
    print("criterion 2 PASS: unigonal counts 816 / 68592 / 33480")


def test_criterion_3_cusp_form_coefficients():
    series = siegel.chi10(trunc_k=2, trunc_m=2)
    assert series.coefficient(1, 1, 1) == 1
    assert series.coefficient(1, 0, 1) == -2
    assert series.coefficient(1, 1, 2) == -16
    print("criterion 3 PASS: cusp form coefficients 1 / -2 / -16")


def test_criterion_4_eisenstein_product_coefficients():
    series = siegel.e4e6()
    assert series.coefficient(0, 0, 0) == 1
    assert series.coefficient(1, 0, 0) == -264
    assert series.coefficient(0, 0, 1) == -264
    assert series.coefficient(1, 1, 1) == 57792
    assert series.coefficient(1, 0, 1) == -45360
    print("criterion 4 PASS: Eisenstein product coefficients")


def test_criterion_5_weight10_fit_cross_pipeline():
    fit = siegel.fit_weight10({(1, 1, 1): 1632, (1, 0, 1): 66960})
    assert fit.a == 1
    assert fit.b == -56160
    cuspidal = siegel.predict_nl(fit, "cuspidal")
    binodal = siegel.predict_nl(fit, "binodal")
    assert (cuspidal, binodal) == (816, 33480)
    # agreement with the surface-geometry pipeline of criterion 2
    assert (cuspidal, binodal) == chern.unigonal_counts(chern.default_unigonal_table())
    print("criterion 5 PASS: fit (1, -56160), predictions match criterion 2")


def test_criterion_6_component_counts_and_witnesses():
    for g in range(3, 101):
        nodal, _ = orbits.nl_component_count(g, "nodal")
        a11, _ = orbits.nl_component_count(g, "a11")
        a2, _ = orbits.nl_component_count(g, "a2")
        assert nodal == (2 if g % 4 == 2 else 1), f"nodal count at g={g}"
        assert a11 == (2 if g % 4 in (2, 3) else 1), f"a11 count at g={g}"
        assert a2 == 1, f"a2 count at g={g}"
    for g in (6, 7):
        for locus in orbits.LOCI:
            _, comps = orbits.nl_component_count(g, locus, with_witnesses=True)
            lat = orbits.locus_lattice(g, locus)
            for comp in comps:
                cand = comp.candidate
                w = cand.witness
                assert w is not None, f"missing witness g={g} {locus} {comp.label}"
                assert lattice.is_primitive(lat, w)
                assert lat.norm(w) == cand.norm
                assert lattice.divisibility(lat, w) == cand.divisibility
                assert lattice.dual_class(lat, w) == cand.dual_class
    print("criterion 6 PASS: component counts g=3..100, witnesses at g=6,7")


def test_criterion_7_discriminant_groups():
    for g in (4, 5, 6, 7, 11):
        grp_g = lattice.discriminant_group(lattice.build_standard("LambdaG", g=g))
        assert grp_g.factors == (2 * g - 2,), f"LambdaG({g})"
        grp_a = lattice.discriminant_group(lattice.build_standard("LambdaA1", g=g))
        assert grp_a.factors == (2, 2 * g - 2), f"LambdaA1({g})"
        assert grp_a.quadratic(grp_a.element((1, 0))) == Fraction(-3, 2), f"q at g={g}"
    print("criterion 7 PASS: discriminant groups and the -3/2 class")


def test_criterion_8_triangular_decomposition_consistency():
    for g in range(3, 41):
        reps = nldiv.triangular_decomposition(nldiv.NLKey(g, 0, -2))
        count, _ = orbits.nl_component_count(g, "nodal")
        assert len(reps) == count, f"g={g}: {len(reps)} reps vs {count} components"
        keys = {(rep.d, rep.n) for rep, _ in reps}
        want = {(0, -2)}
        if g % 4 == 2:
            want.add((g - 1, (g - 2) // 2))
        assert keys == want, f"g={g}"
    print("criterion 8 PASS: triangular decomposition matches nodal components")


def test_criterion_9_property_suite():
    # index symmetry and support condition of the computed expansions
    for series in (siegel.chi10(trunc_k=2, trunc_m=2), siegel.e4e6()):
        for (k, l, m), value in series.coeffs.items():
            assert 4 * k * m - l * l >= 0, f"support at {(k, l, m)}"
            assert series.coefficient(k, -l, m) == value, f"l-symmetry at {(k, l, m)}"
            assert series.coefficient(m, l, k) == value, f"k,m-symmetry at {(k, l, m)}"
    # Smith form identity u*mat*v == d with unimodular transforms
    rng = random.Random(20260816)
    for _ in range(5):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = tuple(tuple(rng.randint(-50, 50) for _ in range(m)) for _ in range(n))
        d, u, v = lattice.smith_normal_form(mat)
        for i in range(n):
            for j in range(m):
                assert sum(u[i][a] * mat[a][b] * v[b][j] for a in range(n) for b in range(m)) == d[i][j]
        assert abs(lattice.det(u)) == 1
        assert abs(lattice.det(v)) == 1
    # (1-x)^c * (1-x)^-c == 1 within the truncation window
    for c in (-128, -1, 3, 57):
        prod = siegel.series_mul(
            siegel.binomial_pow((1, 1, 1), c, 4, 4),
            siegel.binomial_pow((1, 1, 1), -c, 4, 4),
        )
        assert prod == siegel.GenusTwoSeries({(0, 0, 0): 1}, 4, 4), f"binomial inverse c={c}"
    # determinism
    assert orbits.nl_component_count(10, "a11") == orbits.nl_component_count(10, "a11")
    assert siegel.chi10(trunc_k=2, trunc_m=2) == siegel.chi10(trunc_k=2, trunc_m=2)
    assert nldiv.triangular_decomposition(nldiv.NLKey(14, 0, -2)) == nldiv.triangular_decomposition(
        nldiv.NLKey(14, 0, -2)
    )
    print("criterion 9 PASS: property suite")


def test_cli_verify_agrees(capsys):
    assert main(["verify", "--all"]) == 0
    capsys.readouterr()
    print("verify PASS: command-line suite reports all criteria green")
