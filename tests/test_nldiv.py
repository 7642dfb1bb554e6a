"""NL divisor keys: delta, vector data, mu, triangular decomposition."""

import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from nlk3 import nldiv
from nlk3.nldiv import NLKey, _square_divisors, delta, mu_coefficient, nl_vector_data, triangular_decomposition
from nlk3.orbits import nl_component_count


def test_delta():
    assert delta(NLKey(6, 0, -2)) == -20
    assert delta(NLKey(6, 5, 2)) == -5
    assert delta(NLKey(6, 1, 0)) == -1


def test_vector_data_examples():
    d = nl_vector_data(NLKey(6, 0, -2))
    assert d.half_norm == Fraction(-1)
    assert d.disc_class == 0
    assert d.multiplicity_two

    d = nl_vector_data(NLKey(6, 5, 2))
    assert d.half_norm == Fraction(-1, 4)
    assert d.disc_class == 5
    assert d.multiplicity_two

    d = nl_vector_data(NLKey(6, 1, 0))
    assert d.half_norm == Fraction(-1, 20)
    assert d.disc_class == 1
    assert not d.multiplicity_two


def test_vector_data_rejects_nonnegative_delta():
    with pytest.raises(ValueError):
        nl_vector_data(NLKey(6, 5, 3))  # Delta = 5
    with pytest.raises(ValueError):
        nl_vector_data(NLKey(6, 0, 0))


def test_prim_equiv():
    # two keys cut the same primitive locus exactly when Delta and d mod 2g-2
    # agree, i.e. when their vector-side data agree; beta + L shifts
    # (d, n) = (0, -2) to (10, 8)
    assert nl_vector_data(NLKey(6, 0, -2)) == nl_vector_data(NLKey(6, 10, 8))
    assert nl_vector_data(NLKey(6, 0, -2)) != nl_vector_data(NLKey(6, 5, 2))
    assert nl_vector_data(NLKey(6, 5, 2)) == nl_vector_data(NLKey(6, -5, 2))


def test_mu_examples():
    target = NLKey(6, 0, -2)
    assert mu_coefficient(target, NLKey(6, 5, 2)) == 2  # (x, y) = (+-2, -+1)
    assert mu_coefficient(target, NLKey(6, 0, -2)) == 2  # (x, y) = (+-1, 0)


def test_mu_validation():
    with pytest.raises(ValueError):
        mu_coefficient(NLKey(6, 0, -2), NLKey(6, 0, 2))  # T_i < 0
    with pytest.raises(ValueError):
        mu_coefficient(NLKey(5, 0, -2), NLKey(6, 5, 2))


def test_mu_zero_when_not_square():
    assert mu_coefficient(NLKey(6, 0, -3), NLKey(6, 0, -2)) == 0  # ratio 3/2
    assert mu_coefficient(NLKey(6, 1, -2), NLKey(6, 0, -2)) == 0  # ratio 21/20, not an integer
    assert mu_coefficient(NLKey(6, 0, -4), NLKey(6, 0, -2)) == 0  # ratio 2, an integer but not a square


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mu_stays_in_range(data):
    g = data.draw(st.integers(3, 30))
    d = data.draw(st.integers(-4 * g, 4 * g))
    n = data.draw(st.integers(-4 * g, 4 * g))
    di = data.draw(st.integers(-4 * g, 4 * g))
    ni = data.draw(st.integers(-4 * g, 4 * g))
    rep = NLKey(g, di, ni)
    if di * di - 2 * ni * (g - 1) <= 0:
        return
    mu = mu_coefficient(NLKey(g, d, n), rep)
    assert mu in (0, 1, 2)


def test_triangular_g6():
    reps = triangular_decomposition(NLKey(6, 0, -2))
    assert [(r.d, r.n, mu) for r, mu in reps] == [(5, 2, 2), (0, -2, 2)]


def test_triangular_g5():
    reps = triangular_decomposition(NLKey(5, 0, -2))
    assert [(r.d, r.n, mu) for r, mu in reps] == [(0, -2, 2)]


def test_triangular_g4_evenness_filter():
    # x = 2 would propose the representative (3, 1), but odd self-intersection
    # never occurs in an even lattice; only the identity class remains
    reps = triangular_decomposition(NLKey(4, 0, -2))
    assert [(r.d, r.n, mu) for r, mu in reps] == [(0, -2, 2)]


def test_triangular_odd_n_target_is_empty():
    assert triangular_decomposition(NLKey(4, 0, -1)) == ()


def test_triangular_rejects_nonnegative_delta():
    with pytest.raises(ValueError):
        triangular_decomposition(NLKey(6, 0, 2))


def test_triangular_sorted_by_rep_delta():
    for g in (5, 6, 8, 12):
        reps = triangular_decomposition(NLKey(g, 0, -8))
        deltas = [abs(delta(r)) for r, _ in reps]
        assert deltas == sorted(deltas)
        for r, mu in reps:
            assert 0 <= r.d <= 2 * g - 3
            assert r.n % 2 == 0
            assert mu in (1, 2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_triangular_reps_are_inequivalent_and_reproduce_target_t(data):
    g = data.draw(st.integers(3, 20))
    d = data.draw(st.integers(0, 2 * g - 3))
    n = data.draw(st.integers(-30, -1))
    key = NLKey(g, d, n)
    if delta(key) >= 0:
        return
    reps = triangular_decomposition(key)
    t = d * d - 2 * n * (g - 1)
    for i, (r, mu) in enumerate(reps):
        ti = r.d * r.d - 2 * r.n * (g - 1)
        assert ti > 0 and t % ti == 0
        for r2, _ in reps[i + 1 :]:
            assert (delta(r), r.d % (2 * g - 2)) != (delta(r2), r2.d % (2 * g - 2))


def reference_triangular(key):
    """triangular_decomposition as first shipped: a scan over every d_i in [0, 2g-2)."""
    dlt = delta(key)
    if dlt >= 0:
        raise ValueError(f"key {key} has Delta = {dlt} >= 0: nothing to decompose")
    g = key.g
    m = 2 * g - 2
    t = -dlt
    out = []
    x = 1
    while x * x <= t:
        if t % (x * x) == 0:
            ti = t // (x * x)
            for di in range(m):
                if (x * di - key.d) % m != 0:
                    continue
                num = di * di - ti
                if num % m != 0:
                    continue
                ni = num // m
                if ni % 2 != 0:
                    continue
                rep = NLKey(g, di, ni)
                mu = mu_coefficient(key, rep)
                if mu > 0:
                    out.append((rep, mu))
        x += 1
    out.sort(key=lambda pair: (abs(delta(pair[0])), pair[0].d))
    return tuple(out)


def _outcome(fn, key):
    try:
        return fn(key)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_triangular_matches_reference_scan():
    # the closed-form solution of x*d_i = d (mod 2g-2) against the scan, on
    # keys with d outside [0, 2g-3], odd n and Delta >= 0 (both raise)
    keys = raised = 0
    for g in range(2, 41):
        for d in (*range(-3, 2 * g + 2), 3 * g, -5 * g):
            for n in (-30, -12, -10, -7, -6, -4, -3, -2, -1, 0, 2):
                key = NLKey(g, d, n)
                want = _outcome(reference_triangular, key)
                assert _outcome(triangular_decomposition, key) == want, key
                keys += 1
                raised += want[:1] == ("ValueError",)
    assert keys == 21021
    assert raised == 506


def test_square_divisors_match_the_scan():
    # the x with x^2 | t, from trial division up to the cube root of t,
    # against the old scan over every x with x^2 <= t
    for t in range(1, 20001):
        assert _square_divisors(t) == [x for x in range(1, isqrt(t) + 1) if t % (x * x) == 0], t
    # cofactors past the cube root: p^2, p*q, p^2 times a small square
    p, q = 999983, 999979
    assert _square_divisors(p * p) == [1, p]
    assert _square_divisors(p * q) == [1]
    assert _square_divisors(8 * p * p) == [1, 2, p, 2 * p]


def test_triangular_matches_reference_scan_on_the_cli_pin_grid():
    # every key of the `nl triangular` stdout pin in tests/test_cli.py
    for g in (*range(2, 31), 97, 1000):
        for d in sorted({0, 1, 2, g - 1, 2 * g - 3, 2 * g + 1, -1}):
            for n in (-2, -6, -10, -30, 0, 2):
                key = NLKey(g, d, n)
                assert _outcome(triangular_decomposition, key) == _outcome(reference_triangular, key)


def test_triangular_huge_discriminant_is_cheap():
    # |Delta| = 4*10^13 - 4: the old scan over x^2 <= |Delta| took ~1 s
    start = time.perf_counter()
    reps = triangular_decomposition(NLKey(10**13, 0, -2))
    assert time.perf_counter() - start < 0.1
    assert [(r.g, r.d, r.n, mu) for r, mu in reps] == [(10**13, 0, -2, 2)]


def test_trial_division_bound_is_exact(monkeypatch):
    # t = 7^3 needs the trial divisor p = 7 (7^3 <= 343): a bound of 7
    # answers it, a bound of 6 refuses it
    monkeypatch.setattr(nldiv, "TRIAL_DIVISION_MAX", 7)
    assert _square_divisors(343) == [1, 7]
    monkeypatch.setattr(nldiv, "TRIAL_DIVISION_MAX", 6)
    with pytest.raises(ValueError, match="^Delta = -343: its square divisors need trial division past 6$"):
        _square_divisors(343)


def test_triangular_residue_scan_bound_is_exact(monkeypatch):
    # the bound counts gcd(x, 2g-2) residues per square divisor x that can
    # solve x*d_i = d: a key is answered at the bound and refused one below
    g = 5 * 10**4
    key = NLKey(g, 0, -4 * (g - 1))
    m = 2 * g - 2
    residues = sum(gcd(x, m) for x in _square_divisors(-delta(key)) if key.d % gcd(x, m) == 0)
    assert residues == 150000
    monkeypatch.setattr(nldiv, "RESIDUE_SCAN_MAX", residues)
    want = reference_triangular(key)
    assert triangular_decomposition(key) == want and want
    monkeypatch.setattr(nldiv, "RESIDUE_SCAN_MAX", residues - 1)
    with pytest.raises(ValueError, match=f"Delta = {delta(key)}: its decomposition scans 150000 residues, past 149999"):
        triangular_decomposition(key)


@pytest.mark.parametrize("g", range(3, 41))
def test_nodal_cross_check_with_orbit_counts(g):
    # classes with mu > 0 for (g, 0, -2) match the nodal component census
    reps = triangular_decomposition(NLKey(g, 0, -2))
    count, comps = nl_component_count(g, "nodal")
    assert len(reps) == count
    pairs = [(r.d, r.n) for r, _ in reps]
    assert (0, -2) in pairs
    if g % 4 == 2:
        assert (g - 1, (g - 2) // 2) in pairs


def test_key_validation():
    with pytest.raises(ValueError):
        NLKey(1, 0, -2)
