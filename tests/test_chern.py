"""Tests for the Chern-number counts of singular family members."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nlk3 import chern
from nlk3.chern import (
    P2Class,
    SurfaceChernData,
    UnigonalTable,
    TABLE_CLASSES,
    ZETA,
    default_unigonal_table,
    loads_unigonal,
    net_counts,
    net_invariants,
    unigonal_counts,
)

B1 = 3 * ZETA


# ---------------------------------------------------------------------------
# truncated plane classes


def test_p2class_coerces_to_fractions():
    c = P2Class(1, "1/2", Fraction(3, 4))
    assert c.c0 == 1 and c.c1 == Fraction(1, 2) and c.c2 == Fraction(3, 4)


def test_p2class_truncates_beyond_points():
    # z^2 * z dies: there is nothing above the point class
    assert (ZETA * ZETA * ZETA) == P2Class(0, 0, 0)
    assert (ZETA * ZETA).degree == 1


def test_p2class_scalar_and_ring_ops():
    c = P2Class(1, 2, 3)
    assert 2 * c == c * 2 == P2Class(2, 4, 6)
    assert c + 1 == P2Class(2, 2, 3)
    assert 1 - c == P2Class(0, -2, -3)
    assert -c == P2Class(-1, -2, -3)
    assert (c * c) == P2Class(1, 4, 10)


small = st.fractions(max_denominator=6, min_value=-5, max_value=5)
classes = st.builds(P2Class, small, small, small)


@given(classes, classes, classes, st.integers(-6, 6))
def test_p2class_ring_laws(a, b, c, n):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    # an int factor scales the coefficients, as the product with its class
    assert n * a == a * n == P2Class(n) * a
    # the arithmetic builds its results through Record._trusted, unchecked:
    # each must be the class the checked constructor gives
    for x in (a + b, a - b, -a, a * b, n * a, a * n, a + n, n - a, a * Fraction(n, 7), a * True):
        y = P2Class(x.c0, x.c1, x.c2)
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y), x


# ---------------------------------------------------------------------------
# nets of conics


def test_net_invariants_example():
    assert net_invariants(SurfaceChernData(32, -16, 8, 4)) == (81, 80, 68)


def test_net_invariants_zero_surface():
    assert net_invariants(SurfaceChernData(0, 0, 0, 0)) == (1, 0, 0)


def test_net_invariants_rejects_half_integral_genus():
    with pytest.raises(ValueError, match="genus"):
        net_invariants(SurfaceChernData(1, 0, 0, 0))


def test_net_counts_single_net():
    assert net_counts(SurfaceChernData(32, -16, 8, 4)) == (216, 1914)


def test_net_counts_scale_with_degree():
    assert net_counts(SurfaceChernData(32, -16, 8, 4), degree=4) == (864, 7656)


def test_net_counts_degree_must_be_integral():
    data = SurfaceChernData(32, -16, 8, 4)
    with pytest.raises(ValueError, match=r"non-integral entry 2\.5"):
        net_counts(data, degree=2.5)
    counts = net_counts(data, degree=Fraction(8, 2))
    assert counts == (864, 7656) and all(type(c) is int for c in counts)


def test_net_counts_zero_surface():
    assert net_counts(SurfaceChernData(0, 0, 0, 0)) == (0, 0)


def test_net_counts_equal_the_fraction_formula():
    # a11 = d - 3g - e(e-1) + 3(e-1)(e-2)/2, evaluated over Q
    checked = 0
    for a, b, c, x in itertools.product(range(-6, 7), repeat=4):
        data = SurfaceChernData(a, b, c, x)
        try:
            g, d, e = net_invariants(data)
        except ValueError:
            continue
        a11 = Fraction(d - 3 * g - e * (e - 1)) + Fraction(3, 2) * (e - 1) * (e - 2)
        assert a11.denominator == 1
        for degree in (1, 3):
            got = net_counts(data, degree=degree)
            assert got == (degree * (2 * g - d + 2 * (e - 1)), degree * a11), data
            assert all(type(n) is int for n in got)
        checked += 1
    # the genus is integral exactly when alpha2 + alpha_c1 is even
    assert checked == 85 * 13**2


# ---------------------------------------------------------------------------
# pushforward table loading


def test_shipped_table_values():
    t = default_unigonal_table()
    assert t.a1 == P2Class(18, 0, 0)
    assert t.a2 == P2Class(0, 210, 0)
    assert t.a3 == P2Class(0, 0, -450)
    assert t.a1sq == P2Class(0, 36, 0)
    assert t.a1a2 == P2Class(0, 0, -600)
    assert t.delta == P2Class(0, 264, 0)


def test_shipped_table_delta_relation():
    # consistency of the shipped data: delta = a1 * beta1 + a2
    t = default_unigonal_table()
    assert t.delta == t.a1 * B1 + t.a2


def test_table_round_trip():
    t = default_unigonal_table()
    rows = ((name, getattr(t, name)) for name in TABLE_CLASSES)
    assert loads_unigonal("".join(f"{name} {c.c0} {c.c1} {c.c2}\n" for name, c in rows)) == t


def test_loader_accepts_comments_and_rationals():
    t = loads_unigonal(
        """
        # comment line
        a1 1/2 0 0   # trailing comment
        a2 0 0 0
        a3 0 0 0
        a1sq 0 0 0
        a1a2 0 0 0
        delta 0 -3/7 0
        """
    )
    assert t.a1.c0 == Fraction(1, 2)
    assert t.delta.c1 == Fraction(-3, 7)


@pytest.mark.parametrize(
    "text,msg",
    [
        ("a1 1 0 0", "missing table entries"),
        ("a1 1 0 0\na1 2 0 0", "line 2: duplicate"),
        ("bogus 1 0 0", "line 1: unknown class"),
        ("a1 1 0", "line 1: expected"),
        ("a1 0 1 0 0  # c0 c1 c2", "^line 1: expected 'name c0 c1 c2', got 5 fields$"),
        ("a1 x 0 0", "line 1: malformed rational"),
        ("a1 1_8 0 0", "^line 1: malformed rational$"),
        ("a1 \u0662 0 0", "^line 1: malformed rational$"),
        ("a1 0 \uff11 0", "^line 1: malformed rational$"),
    ],
)
def test_loader_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        loads_unigonal(text)


def test_loader_reads_signs_quotients_and_decimals():
    rows = "".join(f"{name} 0 0 0\n" for name in TABLE_CLASSES[1:])
    assert loads_unigonal(f"a1 +3 -2 1/2\n{rows}").a1 == P2Class(3, -2, Fraction(1, 2))
    assert loads_unigonal(f"a1 0.5 0 0\n{rows}").a1 == P2Class(Fraction(1, 2))


# ---------------------------------------------------------------------------
# unigonal counts


ZERO = P2Class()


def _table(**overrides):
    fields = {name: ZERO for name in ("a1", "a2", "a3", "a1sq", "a1a2", "delta")}
    fields.update(overrides)
    return UnigonalTable(**fields)


def _double_point_degree(table):
    # dd = 2*(a2 + a11), the number criterion 2 prints
    a2, a11 = unigonal_counts(table)
    return 2 * (a2 + a11)


def test_unigonal_cuspidal_count():
    assert unigonal_counts(default_unigonal_table())[0] == 816


def test_unigonal_cuspidal_leading_term():
    # the 4 a1 beta1^2 contribution alone
    t = default_unigonal_table()
    assert (4 * t.a1 * B1 * B1).degree == 648


def test_unigonal_double_point_degree():
    assert _double_point_degree(default_unigonal_table()) == 68592


def test_unigonal_double_point_delta_only():
    # only the delta^2 - beta1 delta part survives
    t = _table(delta=P2Class(0, 264, 0))
    assert unigonal_counts(t)[0] == 0
    assert _double_point_degree(t) == 69696 - 792 == 68904


def test_unigonal_counts():
    assert unigonal_counts(default_unigonal_table()) == (816, 33480)


def test_unigonal_counts_zero_table():
    assert unigonal_counts(_table()) == (0, 0)


def test_unigonal_rejects_odd_double_point_degree():
    t = _table(a3=P2Class(0, 0, -451), delta=P2Class(0, 264, 0))
    assert chern._double_point_class(t, chern._cuspidal_class(t)).degree == 68904 + 451 == 69355
    with pytest.raises(ValueError, match="^double-point degree 69355 is odd"):
        unigonal_counts(t)


def test_unigonal_rejects_non_integral_degree():
    # the double-point class holds -C, so its degree is non-integral too; the
    # cuspidal count is reported first
    t = _table(a1a2=P2Class(0, 0, Fraction(1, 3)))
    assert chern._double_point_class(t, chern._cuspidal_class(t)).degree == Fraction(-2, 3)
    with pytest.raises(ValueError, match="^cuspidal count has non-integral degree 2/3$"):
        unigonal_counts(t)


def test_unigonal_rejects_non_integral_double_point_degree():
    t = _table(a3=P2Class(0, 0, Fraction(1, 2)))
    with pytest.raises(ValueError, match="^double-point cycle has non-integral degree -1/2$"):
        unigonal_counts(t)


def test_unigonal_scaled_table():
    # doubling every pushforward: the cuspidal count is linear in the table,
    # the double-point degree splits into a quadratic and a linear part
    t = default_unigonal_table()
    doubled = UnigonalTable(**{n: 2 * getattr(t, n) for n in ("a1", "a2", "a3", "a1sq", "a1a2", "delta")})
    assert unigonal_counts(doubled)[0] == 2 * 816 == 1632
    quadratic = 69696
    linear = _double_point_degree(t) - quadratic
    assert linear == -1104
    assert _double_point_degree(doubled) == 4 * quadratic + 2 * linear == 276576


@given(st.integers(min_value=-6, max_value=6))
def test_unigonal_a2_is_linear_in_the_table(c):
    t = default_unigonal_table()
    scaled = UnigonalTable(**{n: c * getattr(t, n) for n in ("a1", "a2", "a3", "a1sq", "a1a2", "delta")})
    assert unigonal_counts(scaled)[0] == c * 816


# the two classes as first shipped, each written out in full: the double
# point repeats the cuspidal terms with their signs flipped
B2 = 3 * ZETA * ZETA


def _shipped_cuspidal(t):
    return 4 * t.a1 * B1 * B1 + 2 * (t.a1sq + t.a2) * B1 - 2 * t.a1 * B2 + 2 * t.a1a2


def _shipped_double_point(t):
    return (
        t.delta * t.delta
        - B1 * t.delta
        + (-2 * t.a1a2 - t.a3 - 2 * (t.a1sq + t.a2) * B1 + t.a1 * (-4 * B1 * B1 + 3 * B2))
    )


def _assert_shipped_classes(t):
    # whole classes, not only their degrees
    cusp = chern._cuspidal_class(t)
    assert cusp == _shipped_cuspidal(t)
    assert chern._double_point_class(t, cusp) == _shipped_double_point(t)


def test_unigonal_classes_equal_the_shipped_formulas():
    _assert_shipped_classes(default_unigonal_table())


@given(st.builds(UnigonalTable, **{name: classes for name in TABLE_CLASSES}))
def test_unigonal_classes_equal_the_shipped_formulas_on_rational_tables(t):
    _assert_shipped_classes(t)
