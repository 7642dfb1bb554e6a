"""Tests for truncated genus-2 modular form arithmetic."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from importlib import resources
from math import comb, gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from nlk3 import siegel
from nlk3.chern import default_unigonal_table, loads_unigonal, unigonal_counts
from nlk3.siegel import (
    GenusTwoSeries,
    HalfIntegralTable,
    HYPERELLIPTIC_NL,
    Weight10Basis,
    Weight10Fit,
    binomial_pow,
    chi10,
    default_chi10_exponents,
    default_trunc_l,
    e4_series,
    e4e6,
    e6_series,
    fit_weight10,
    independence_check,
    loads_coeff_table,
    loads_half_integral,
    predict_nl,
    series_mul,
    series_truncate,
)


# ---------------------------------------------------------------------------
# series plumbing


def _assert_checked(x):
    """x, built without the constructor's checks, is the series that
    GenusTwoSeries(...) gives for its coefficients and bounds."""
    y = GenusTwoSeries(x.coeffs, x.trunc_k, x.trunc_m, x.trunc_l)
    assert x == y and repr(x) == repr(y), x
    return x


def test_series_drops_zero_coefficients():
    s = GenusTwoSeries({(0, 0, 0): 1, (1, 0, 1): 0}, 2, 2)
    assert s.coeffs == {(0, 0, 0): 1}


def test_series_rejects_out_of_window_keys():
    with pytest.raises(ValueError, match="exceeds truncation"):
        GenusTwoSeries({(3, 0, 0): 1}, 2, 2)
    with pytest.raises(ValueError, match="negative exponent"):
        GenusTwoSeries({(-1, 0, 0): 1}, 2, 2)


def test_coefficient_raises_beyond_window():
    s = GenusTwoSeries({(1, 1, 1): 5}, 2, 2, 3)
    assert s.coefficient(2, 0, 2) == 0
    with pytest.raises(ValueError, match="beyond the truncation"):
        s.coefficient(3, 0, 0)
    with pytest.raises(ValueError, match="beyond the truncation"):
        s.coefficient(1, 4, 1)


def test_series_mul_identity():
    x = GenusTwoSeries({(1, 1, 1): 7, (2, -1, 0): Fraction(1, 3)}, 2, 2)
    assert series_mul(x, GenusTwoSeries({(0, 0, 0): 1}, 2, 2)) == x


def test_series_mul_two_binomials():
    qt = GenusTwoSeries({(0, 0, 0): 1, (1, 0, 0): 1}, 1, 1)
    q = GenusTwoSeries({(0, 0, 0): 1, (0, 0, 1): 1}, 1, 1)
    assert series_mul(qt, q).coeffs == {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1, (1, 0, 1): 1}


def test_series_mul_takes_tighter_window():
    x = GenusTwoSeries({(0, 0, 0): 1}, 3, 2, 5)
    y = GenusTwoSeries({(0, 0, 0): 1}, 2, 4, 7)
    z = series_mul(x, y)
    assert (z.trunc_k, z.trunc_m, z.trunc_l) == (2, 2, 5)


def _reference_mul(x, y):
    """The convolution product in Fraction arithmetic, term pair by term pair,
    on the tighter window: every index some pair reaches, zeros included."""
    tk, tm, tl = min(x.trunc_k, y.trunc_k), min(x.trunc_m, y.trunc_m), min(x.trunc_l, y.trunc_l)
    acc = {}
    for (k1, l1, m1), c1 in x.coeffs.items():
        for (k2, l2, m2), c2 in y.coeffs.items():
            k, l, m = k1 + k2, l1 + l2, m1 + m2
            if k <= tk and m <= tm and abs(l) <= tl:
                acc[(k, l, m)] = acc.get((k, l, m), Fraction(0)) + c1 * c2
    return acc


# denominators of the random coefficients: integral, the 2/3/6 of the
# Eisenstein tables, and a mix with other primes
_DENOMINATORS = {"integral": (1,), "2/3/6": (2, 3, 6), "mixed": (1, 1, 2, 3, 5, 6, 7)}
# (trunc_k, trunc_m, trunc_l): pairs of unequal windows clip each other
_WINDOWS = ((2, 2, 4), (3, 1, 2), (1, 3, 2), (2, 2, 1))


def _random_series(rng, denominators, window):
    tk, tm, tl = window
    entries = {}
    for _ in range(rng.randint(0, 9)):
        # small exponents are likelier, so more pairs land in the window
        key = (rng.randint(0, rng.randint(0, tk)), rng.randint(-tl, tl), rng.randint(0, rng.randint(0, tm)))
        entries[key] = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice(denominators))
    return GenusTwoSeries(entries, *window)


def _assert_product(x, y):
    z = series_mul(x, y)
    assert (z.trunc_k, z.trunc_m, z.trunc_l) == (
        min(x.trunc_k, y.trunc_k),
        min(x.trunc_m, y.trunc_m),
        min(x.trunc_l, y.trunc_l),
    )
    assert z.coeffs == {key: c for key, c in _reference_mul(x, y).items() if c}, (x, y)
    # stored values stay nonzero Fractions, also where every factor is integral
    assert all(type(c) is Fraction and c != 0 for c in z.coeffs.values())
    return z


def test_series_mul_equals_the_fraction_convolution():
    rng = random.Random(19)
    empty = cancelled = 0
    for kx, ky in itertools.product(_DENOMINATORS.values(), repeat=2):
        for _ in range(40):
            x = _random_series(rng, kx, rng.choice(_WINDOWS))
            y = _random_series(rng, ky, rng.choice(_WINDOWS))
            empty += not _assert_product(x, y).coeffs
            cancelled += 0 in _reference_mul(x, y).values()
    # the draws reach both empty products and coefficients that cancel
    assert empty >= 40 and cancelled >= 10, (empty, cancelled)


def test_series_mul_of_empty_series():
    x = GenusTwoSeries({(1, 1, 1): Fraction(2, 3), (0, 0, 0): 5}, 2, 2)
    for window in (*_WINDOWS, (0, 0, 0)):
        zero = GenusTwoSeries({}, *window)
        assert _assert_product(x, zero).coeffs == {}
        assert _assert_product(zero, x).coeffs == {}
        assert _assert_product(zero, zero).coeffs == {}


def test_series_mul_drops_cancelled_coefficients():
    # (1/2 + qt/2)(1/3 - qt/3) = 1/6 - qt^2/6: the qt terms cancel
    x = GenusTwoSeries({(0, 0, 0): Fraction(1, 2), (1, 0, 0): Fraction(1, 2)}, 2, 2)
    y = GenusTwoSeries({(0, 0, 0): Fraction(1, 3), (1, 0, 0): Fraction(-1, 3)}, 2, 2)
    assert _assert_product(x, y).coeffs == {(0, 0, 0): Fraction(1, 6), (2, 0, 0): Fraction(-1, 6)}
    # (p/2 + 1/(2p))(p/3 - 1/(3p)): the p^0 terms cancel and |l| <= 1 clips
    # the p^2 and p^-2 terms, so nothing is left
    x = GenusTwoSeries({(0, 1, 0): Fraction(1, 2), (0, -1, 0): Fraction(1, 2)}, 1, 1, 1)
    y = GenusTwoSeries({(0, 1, 0): Fraction(1, 3), (0, -1, 0): Fraction(-1, 3)}, 1, 1, 1)
    assert _assert_product(x, y).coeffs == {}
    # integral factors cancel the same way: (1 + q)(1 - q) = 1 - q^2
    x = GenusTwoSeries({(0, 0, 0): 1, (0, 0, 1): 1}, 2, 2)
    y = GenusTwoSeries({(0, 0, 0): 1, (0, 0, 1): -1}, 2, 2)
    assert _assert_product(x, y).coeffs == {(0, 0, 0): 1, (0, 0, 2): -1}


def test_series_truncate_cannot_widen():
    s = GenusTwoSeries({(0, 0, 0): 1}, 2, 2, 3)
    with pytest.raises(ValueError, match="extend"):
        series_truncate(s, 3, 2, 3)


# supported sparse series: 4km >= l^2 keeps every intermediate inside the
# default l-window, so products are exactly associative
@st.composite
def supported_series(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    entries = {}
    for _ in range(n):
        k = draw(st.integers(min_value=0, max_value=3))
        m = draw(st.integers(min_value=0, max_value=3))
        lmax = int((4 * k * m) ** 0.5)
        l = draw(st.integers(min_value=-lmax, max_value=lmax))
        entries[(k, l, m)] = draw(st.fractions(max_denominator=4, min_value=-5, max_value=5))
    return GenusTwoSeries(entries, 3, 3)


@settings(deadline=None)
@given(supported_series(), supported_series(), supported_series())
def test_series_mul_commutative_associative(x, y, z):
    assert series_mul(x, y) == series_mul(y, x)
    assert series_mul(series_mul(x, y), z) == series_mul(x, series_mul(y, z))


# ---------------------------------------------------------------------------
# binomial powers


def test_binomial_pow_square():
    u = binomial_pow((1, 1, 1), 2, 4, 4)
    assert u.coeffs == {(0, 0, 0): 1, (1, 1, 1): -2, (2, 2, 2): 1}


def test_binomial_pow_geometric():
    u = binomial_pow((1, 0, 0), -1, 3, 3)
    assert u.coeffs == {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1, (3, 0, 0): 1}


def test_binomial_pow_large_negative_exponent():
    # (1-u)^-128 at u^2: 129 choose 2
    assert binomial_pow((1, 1, 1), -128, 4, 4).coefficient(2, 2, 2) == 8256


def test_binomial_pow_pure_p_monomial_cut_by_l_window():
    u = binomial_pow((0, -1, 0), -1, 2, 2, 3)
    assert set(u.coeffs) == {(0, 0, 0), (0, -1, 0), (0, -2, 0), (0, -3, 0)}


def test_binomial_pow_rejects_zero_monomial():
    with pytest.raises(ValueError, match="nonzero"):
        binomial_pow((0, 0, 0), 5, 2, 2)


def reference_binomial_pow(monomial, c, trunc_k, trunc_m, trunc_l):
    """Every term u^j of (1 - u)^c for j up to a far cap, kept when it lies
    in the window."""
    r, s, t = monomial
    out = {}
    for j in range(60):
        coeff = (-1) ** j * comb(c, j) if c >= 0 else comb(-c + j - 1, j)
        if coeff and j * r <= trunc_k and j * t <= trunc_m and abs(j * s) <= trunc_l:
            out[(j * r, j * s, j * t)] = coeff
    return out


def test_binomial_pow_keeps_exactly_the_terms_in_the_window():
    # one bound j * |e| <= window per nonzero exponent e, for r = t = 0 too
    cases = 0
    for r in range(3):
        for s in range(-3, 4):
            for t in range(3):
                if (r, s, t) == (0, 0, 0):
                    continue
                for c in (-7, -1, 0, 1, 2, 5):
                    for window in ((0, 0, 0), (2, 1, 3), (4, 4, 10), (3, 5, 2)):
                        got = _assert_checked(binomial_pow((r, s, t), c, *window)).coeffs
                        assert got == reference_binomial_pow((r, s, t), c, *window), ((r, s, t), c, window)
                        cases += 1
    assert cases == 62 * 6 * 4


@settings(deadline=None)
@given(st.integers(min_value=-200, max_value=200))
def test_binomial_pow_inverse_identity(c):
    u = series_mul(binomial_pow((1, 1, 1), c, 4, 4), binomial_pow((1, 1, 1), -c, 4, 4))
    assert u == GenusTwoSeries({(0, 0, 0): 1}, 4, 4)


# ---------------------------------------------------------------------------
# exponent table


def test_shipped_exponents():
    t = default_chi10_exponents()
    assert [t.c(m) for m in range(-1, 9)] == [2, 20, 0, 0, -128, 216, 0, 0, -1026, 1616]
    assert t.c(-7) == 0
    assert t.support_max == 8


def test_exponent_table_exhaustion():
    t = default_chi10_exponents()
    with pytest.raises(ValueError, match="exhausted.*9"):
        t.c(9)
    # a listed zero is stated, so it widens the support as in loads_coeff_table
    rows = "".join(f"{m} {c}\n" for m, c in t.values.items())
    widened = loads_half_integral(rows + "9 0\n10 0\n")
    assert widened.support_max == 10 and widened.values == t.values
    assert widened.c(9) == widened.c(10) == 0
    with pytest.raises(ValueError, match=r"exhausted: c\(11\) .*\(max 10\)"):
        widened.c(11)


def test_exponent_table_pins_pole_coefficient():
    with pytest.raises(ValueError, match=r"c\(-1\) must be 2"):
        HalfIntegralTable({-1: 3, 0: 20})
    with pytest.raises(ValueError, match=r"c\(-1\) must be 2"):
        HalfIntegralTable({0: 20})
    with pytest.raises(ValueError, match="below the pole"):
        HalfIntegralTable({-2: 1, -1: 2})


def test_half_integral_round_trip():
    t = default_chi10_exponents()
    assert loads_half_integral("".join(f"{m} {c}\n" for m, c in t.values.items())) == t


@pytest.mark.parametrize(
    "name,loads",
    [
        ("chi10_exponents.tbl", loads_half_integral),
        ("e4.tbl", loads_coeff_table),
        ("unigonal.tbl", loads_unigonal),
    ],
)
def test_table_loaders_drop_one_leading_byte_order_mark(name, loads):
    text = (resources.files("nlk3") / "data" / name).read_text(encoding="utf-8")
    assert not text.startswith("\ufeff")
    assert loads("\ufeff" + text) == loads(text)
    with pytest.raises(ValueError, match="^line 1: "):
        loads("\ufeff\ufeff" + text)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("-1 2\n0", "line 2: expected"),
        ("-1 2\n# note\n0 1 2", "^line 3: expected 'm value', got 3 fields$"),
        ("-1 2\n0 x", "line 2: malformed"),
        ("-1 2\n-1 2", "line 2: duplicate"),
        ("-1 2\n0 1_0", "^line 2: malformed integer$"),
        ("-1 2\n\u0662 0", "^line 2: malformed integer$"),
        ("-1 2\n0 \uff11", "^line 2: malformed integer$"),
    ],
)
def test_half_integral_loader_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        loads_half_integral(text)


def test_half_integral_loader_reads_signed_integers():
    assert loads_half_integral("-1 +2\n+3 -2").values == {-1: 2, 3: -2}


# ---------------------------------------------------------------------------
# the weight-10 cusp form


def test_chi10_displayed_coefficients():
    x = chi10(trunc_k=2, trunc_m=2)
    assert x.coefficient(1, 1, 1) == 1
    assert x.coefficient(1, 0, 1) == -2
    assert x.coefficient(1, 1, 2) == -16


def test_chi10_vanishes_at_rank_one_indices():
    x = chi10(trunc_k=2, trunc_m=2)
    assert x.coefficient(0, 0, 0) == 0
    assert x.coefficient(0, 0, 1) == 0
    assert x.coefficient(1, 0, 0) == 0
    assert all(k >= 1 and m >= 1 for k, _, m in x.coeffs)


def test_chi10_index_symmetry():
    x = chi10(trunc_k=2, trunc_m=2)
    for (k, l, m), value in x.coeffs.items():
        assert x.coefficient(k, -l, m) == value
        assert x.coefficient(m, l, k) == value


def test_chi10_support_condition():
    x = chi10(trunc_k=2, trunc_m=2)
    assert all(4 * k * m - l * l >= 0 for (k, l, m) in x.coeffs)


def test_chi10_deterministic():
    assert chi10(trunc_k=2, trunc_m=2) == chi10(trunc_k=2, trunc_m=2)


def test_chi10_minimal_window():
    x = chi10(trunc_k=1, trunc_m=1)
    assert x.coeffs == {(1, 1, 1): 1, (1, 0, 1): -2, (1, -1, 1): 1}
    with pytest.raises(ValueError, match="leading index"):
        chi10(trunc_k=0, trunc_m=1)


def test_chi10_exhausts_shipped_table():
    # factors at (r, t) = (2, 2) need exponents beyond the shipped support
    with pytest.raises(ValueError, match="exhausted.*12"):
        chi10(trunc_k=3, trunc_m=3)


def test_chi10_cost_guard_fails_before_any_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("_convolve called")

    monkeypatch.setattr(siegel, "_convolve", no_product)
    # (1, 60): 178 factors x (1 * 60 * 247) window terms
    with pytest.raises(ValueError, match=r"needs about 2637960 term products \(178 factors x 14820 window terms\)"):
        chi10(trunc_k=1, trunc_m=60)
    # a window the guard admits does reach the patched product
    with pytest.raises(AssertionError, match="^_convolve called$"):
        chi10(trunc_k=1, trunc_m=6)


def test_chi10_cost_guard_admits_its_limit(monkeypatch):
    # the (1, 6) window is 16 factors x 186 terms
    monkeypatch.setattr(siegel, "CHI10_MAX_WORK", 2976)
    assert chi10(trunc_k=1, trunc_m=6).coefficient(1, 1, 1) == 1
    monkeypatch.setattr(siegel, "CHI10_MAX_WORK", 2975)
    with pytest.raises(ValueError, match="above the limit 2975"):
        chi10(trunc_k=1, trunc_m=6)


def _chi10_by_series_mul(trunc_k, trunc_m):
    """chi10 as a fold of the public series_mul over binomial_pow factors,
    on the inner window chi10 multiplies in, then shifted by qt p q."""
    table = default_chi10_exponents()
    out_l = default_trunc_l(trunc_k, trunc_m)
    window = (trunc_k - 1, trunc_m - 1, out_l + 1)
    prod = GenusTwoSeries({(0, 0, 0): 1}, *window)
    for r in range(trunc_k):
        for t in range(trunc_m):
            smax = isqrt(4 * r * t + 1)
            for s in range(-smax, 0 if r == t == 0 else smax + 1):
                if e := table.c(4 * r * t - s * s):
                    prod = series_mul(prod, binomial_pow((r, s, t), e, *window))
    shifted = {(k + 1, l + 1, m + 1): c for (k, l, m), c in prod.coeffs.items() if abs(l + 1) <= out_l}
    return GenusTwoSeries(shifted, trunc_k, trunc_m, out_l)


@pytest.mark.parametrize(
    "window",
    [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (1, 6), (1, 20)],
    ids=lambda w: f"{w[0]}x{w[1]}",
)
def test_chi10_equals_a_fold_of_series_mul(window):
    # chi10 multiplies int terms and builds its series through
    # Record._trusted, unchecked
    assert _assert_checked(chi10(trunc_k=window[0], trunc_m=window[1])) == _chi10_by_series_mul(*window)


# the reference row k = 1 of the (1, 6) window reads only c(-1) and c(0)
@pytest.mark.parametrize(
    "window", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)], ids=lambda w: f"{w[0]}x{w[1]}"
)
def test_chi10_maass_relation(window):
    # chi10 is the Maass lift of its first Fourier-Jacobi coefficient:
    # a(k, l, m) = sum over d | (k, l, m) of d^9 a(1, l/d, km/d^2)
    ref = chi10(trunc_k=1, trunc_m=6)
    x = chi10(trunc_k=window[0], trunc_m=window[1])
    for k in range(x.trunc_k + 1):
        for m in range(x.trunc_m + 1):
            for l in range(-x.trunc_l, x.trunc_l + 1):
                h = gcd(k, l, m)
                want = sum(d**9 * ref.coefficient(1, l // d, k * m // (d * d)) for d in range(1, h + 1) if h % d == 0)
                assert x.coefficient(k, l, m) == want, (k, l, m)


# ---------------------------------------------------------------------------
# Eisenstein product


def test_shipped_eisenstein_tables_expand_symmetrically():
    e4 = e4_series()
    assert e4.coefficient(1, 0, 0) == e4.coefficient(0, 0, 1) == 240
    assert e4.coefficient(1, -1, 1) == e4.coefficient(1, 1, 1) == 13440
    assert (e4.trunc_k, e4.trunc_m, e4.trunc_l) == (1, 1, 1)
    e6 = e6_series()
    assert e6.coefficient(1, 1, 1) == 44352
    assert e6.coefficient(1, 0, 1) == 166320


def test_e4e6_displayed_coefficients():
    ee = e4e6()
    assert ee.coefficient(0, 0, 0) == 1
    assert ee.coefficient(1, 0, 0) == -264
    assert ee.coefficient(0, 0, 1) == -264
    assert ee.coefficient(1, 1, 1) == 44352 + 13440 == 57792
    assert ee.coefficient(1, 0, 1) == 166320 + 30240 - 2 * 504 * 240 == -45360


def test_e4e6_symmetry_and_support():
    ee = e4e6()
    for (k, l, m), value in ee.coeffs.items():
        assert 4 * k * m - l * l >= 0
        assert ee.coefficient(k, -l, m) == value
        assert ee.coefficient(m, l, k) == value


def test_e4e6_rejects_window_beyond_tables():
    with pytest.raises(ValueError, match="beyond table support"):
        e4e6(trunc_k=2, trunc_m=2)


def test_e4e6_l_window_is_honest():
    # the tables only know |l| <= 1; the product refuses to guess outside
    with pytest.raises(ValueError, match="beyond the truncation"):
        e4e6().coefficient(1, 2, 1)


def test_coeff_table_round_trip():
    # one line per symmetry orbit, as the loader reads them
    e4 = e4_series()
    canonical = {siegel._orbit_rep(*key): c for key, c in e4.coeffs.items()}
    assert loads_coeff_table("".join(f"{k} {l} {m} {c}\n" for (k, l, m), c in canonical.items())) == e4
    assert loads_coeff_table("1 1 1 13440").coeffs == {(1, 1, 1): 13440, (1, -1, 1): 13440}


def test_coeff_table_empty():
    t = loads_coeff_table("# nothing\n")
    assert t.coeffs == {}
    assert t.coefficient(0, 0, 0) == 0


def test_coeff_table_canonicalizes_representatives():
    # (1,0,0) and (0,0,1) name the same orbit
    with pytest.raises(ValueError, match="line 2: duplicate"):
        loads_coeff_table("1 0 0 240\n0 0 1 240")


@pytest.mark.parametrize(
    "text,msg",
    [
        ("0 0 0", "line 1: expected"),
        ("0 0 0 1\n\n1 0", "^line 3: expected 'k l m value', got 2 fields$"),
        ("0 0 0 x", "line 1: malformed"),
        ("-1 0 0 5", "line 1: negative exponent"),
        ("0 0 0 1_0", "^line 1: malformed entry$"),
        ("0 1_0 0 1", "^line 1: malformed entry$"),
        ("0 0 \u0662 1", "^line 1: malformed entry$"),
        ("0 0 0 \uff11", "^line 1: malformed entry$"),
    ],
)
def test_coeff_table_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        loads_coeff_table(text)


def test_coeff_table_reads_signs_quotients_and_decimals():
    t = loads_coeff_table("+1 -2 3 1/2\n0 0 1 0.5\n0 0 2 -2\n")
    assert t.coefficient(1, -2, 3) == t.coefficient(3, 2, 1) == Fraction(1, 2)
    assert t.coefficient(1, 0, 0) == Fraction(1, 2)
    assert t.coefficient(0, 0, 2) == -2


# ---------------------------------------------------------------------------
# fitting


def test_fit_recovers_displayed_combination():
    fit = fit_weight10({(1, 1, 1): 1632, (1, 0, 1): 66960})
    assert (fit.a, fit.b) == (1, -56160)


def test_fit_zero_form():
    fit = fit_weight10({(0, 0, 0): 0, (1, 1, 1): 0})
    assert (fit.a, fit.b) == (0, 0)


def test_fit_pure_eisenstein():
    fit = fit_weight10({(1, 1, 1): 57792, (1, 0, 1): -45360})
    assert (fit.a, fit.b) == (1, 0)


def test_fit_requires_two_observations():
    with pytest.raises(ValueError, match="two observations"):
        fit_weight10({(1, 1, 1): 1632})


def test_fit_singular_system():
    # chi10 vanishes at both rank-one indices, so they cannot separate b
    with pytest.raises(ValueError, match="singular"):
        fit_weight10({(0, 0, 0): 1, (0, 0, 1): -264})


def test_fit_rejects_inconsistent_observations():
    with pytest.raises(ValueError, match=r"inconsistent observation at \(1, 1, 1\)"):
        fit_weight10({(1, 0, 1): 66960, (0, 0, 1): -264, (1, 1, 1): 1633})


def test_fit_verifies_consistent_extra_observations():
    fit = fit_weight10({(1, 0, 1): 66960, (1, -1, 1): 1632, (1, 1, 1): 1632})
    assert (fit.a, fit.b) == (1, -56160)


# ---------------------------------------------------------------------------
# prediction and independence


def test_predictions_from_fitted_form():
    fit = Weight10Fit(1, -56160)
    assert predict_nl(fit, "cuspidal") == 816
    assert predict_nl(fit, "binodal") == 33480
    assert predict_nl(fit, "hodge-disc") == 264
    assert predict_nl(fit, "hodge-sq") == 1


def test_prediction_unknown_kind():
    with pytest.raises(ValueError, match="unknown prediction"):
        predict_nl(Weight10Fit(1, 0), "nodal")


def test_predictions_match_chern_pipeline():
    fit = fit_weight10({(1, 1, 1): 1632, (1, 0, 1): 66960})
    a2, a11 = unigonal_counts(default_unigonal_table())
    assert predict_nl(fit, "cuspidal") == a2
    assert predict_nl(fit, "binodal") == a11


def test_independence_of_fitted_form():
    assert independence_check(Weight10Fit(1, -56160)) is True


def test_independence_boundary():
    # b solving 7656 (57792 a + b) = 864 (-45360 a - 2 b) at a = 1
    b = Fraction(-481646592, 9384)
    assert independence_check(Weight10Fit(1, b)) is False
    assert independence_check(Weight10Fit(3, 3 * b)) is False


def test_weight10_basis_defaults_to_shipped_tables():
    basis = Weight10Basis()
    assert basis == Weight10Basis(default_chi10_exponents(), e4_series(), e6_series())
    assert basis.series(1, 1) == (e4e6(1, 1), chi10(trunc_k=1, trunc_m=1))


def test_fit_and_predictions_read_the_given_basis():
    obs = {(1, 1, 1): 1632, (1, 0, 1): 66960}
    shipped = (resources.files("nlk3") / "data" / "e4.tbl").read_text(encoding="utf-8")
    e4 = loads_coeff_table(shipped.replace("1 0 1 30240", "1 0 1 30241"))
    basis = Weight10Basis(e4=e4)
    fit = fit_weight10(obs, basis=basis)
    assert fit != fit_weight10(obs)
    eis, cusp = basis.series(1, 1)
    for idx, value in obs.items():
        assert fit.a * eis.coefficient(*idx) + fit.b * cusp.coefficient(*idx) == value
    assert predict_nl(fit, "binodal", basis=basis) == 33480
    assert predict_nl(fit, "cuspidal", basis=basis) == 816
    assert independence_check(fit, basis=basis) is True


def test_independence_check_parses_each_table_once(monkeypatch):
    parsed = Counter()
    for name in ("loads_half_integral", "loads_coeff_table"):
        real = getattr(siegel, name)
        monkeypatch.setattr(siegel, name, lambda text, real=real, name=name: parsed.update([name]) or real(text))
    assert independence_check(Weight10Fit(1, -56160)) is True
    assert parsed == {"loads_half_integral": 1, "loads_coeff_table": 2}


def test_independence_rejects_zero_form():
    with pytest.raises(ValueError, match="zero form"):
        independence_check(Weight10Fit(0, 0))


def test_hyperelliptic_reference_vector():
    from nlk3.chern import SurfaceChernData, net_counts

    assert HYPERELLIPTIC_NL == net_counts(SurfaceChernData(32, -16, 8, 4), degree=4)


# ---------------------------------------------------------------------------
# window arithmetic helpers


def test_default_l_window():
    assert default_trunc_l(2, 2) == 6
    assert default_trunc_l(1, 3) == 8


# ---------------------------------------------------------------------------
# error and edge branches the tests above do not reach


def test_series_rejects_negative_truncation_bounds():
    with pytest.raises(ValueError, match="^truncation bounds must be non-negative$"):
        GenusTwoSeries({}, -1, 2)


def test_series_truncate_default_trunc_l():
    # with no trunc_l the window keeps |l| within the smaller of the series'
    # bound and default_trunc_l of the new (trunc_k, trunc_m)
    x = GenusTwoSeries({(0, 0, 0): 1, (1, 4, 1): 2, (1, 5, 1): 3, (2, 6, 2): 4}, 2, 2)
    assert (x.trunc_l, default_trunc_l(1, 1)) == (6, 4)
    y = series_truncate(x, 1, 1)
    assert (y.trunc_k, y.trunc_m, y.trunc_l) == (1, 1, 4)
    assert y.coeffs == {(0, 0, 0): 1, (1, 4, 1): 2}


def test_series_truncate_and_binomial_pow_check_their_windows():
    # both build their series through Record._trusted, unchecked, after
    # converting and checking the window as the constructor does
    x = chi10(trunc_k=2, trunc_m=3)
    for bounds in ((2, 3), (1, 2), (0, 0, 0), (2.0, Fraction(6, 2), 4)):
        y = _assert_checked(series_truncate(x, *bounds))
        assert all(type(b) is int for b in (y.trunc_k, y.trunc_m, y.trunc_l)), bounds
    for call in (series_truncate, lambda x, *bounds: binomial_pow((1, 0, 0), 2, *bounds)):
        with pytest.raises(ValueError, match="^truncation bounds must be non-negative$"):
            call(x, -1, 2)
        with pytest.raises(ValueError, match="^truncation bounds must be non-negative$"):
            call(x, 1, 2, -1)
        with pytest.raises(ValueError, match=r"^non-integral entry 1\.5$"):
            call(x, 1.5, 2)
    assert _assert_checked(binomial_pow((1, 0, 0), 2, 2.0, Fraction(4, 2))).trunc_l == default_trunc_l(2, 2)


def test_binomial_pow_rejects_negative_qt_and_q_exponents():
    for monomial in ((-1, 0, 1), (1, 0, -1)):
        with pytest.raises(ValueError, match="^monomial exponents of qt and q must be non-negative$"):
            binomial_pow(monomial, 2, 2, 2)
