"""Sparse truncated Fourier expansions of genus-2 Siegel modular forms.

A series is a finite map (k, l, m) -> Fraction giving the coefficient of
qt^k p^l q^m, exact within declared truncation bounds 0 <= k <= trunc_k,
0 <= m <= trunc_m, |l| <= trunc_l.  The weight-10 cusp form is expanded from
its infinite product, whose exponents c(4rt - s^2) come from a shipped
half-integral-weight coefficient table; the weight-4 and weight-6 Eisenstein
factors are shipped coefficient data.  A two-parameter fit against these two
forms turns a handful of observed coefficients into predicted degrees of
special divisors.  All arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt, lcm

from ._inputs import Record, exact_int, exact_ints, load_shipped, text_number, text_rows


def default_trunc_l(trunc_k: int, trunc_m: int) -> int:
    """|l| window wide enough for truncated products: every term retained by
    the (k, m) bounds has |l| <= k + m + 2."""
    return 2 * max(trunc_k, trunc_m) + 2


class GenusTwoSeries(Record):
    """Coefficients of a genus-2 Fourier expansion, exact up to truncation:
    a dict (k, l, m) -> nonzero Fraction and the int bounds of its window."""

    _fields = ("coeffs", "trunc_k", "trunc_m", "trunc_l")

    def __init__(self, coeffs, trunc_k: int, trunc_m: int, trunc_l: int | None = None):
        trunc_k, trunc_m, trunc_l = _window(trunc_k, trunc_m, trunc_l)
        stored = {}
        for key, value in coeffs.items():
            k, l, m = exact_ints(key)
            value = Fraction(value)
            if value == 0:
                continue
            if k < 0 or m < 0:
                raise ValueError(f"negative exponent at index {key}")
            if k > trunc_k or m > trunc_m or abs(l) > trunc_l:
                raise ValueError(f"index {key} exceeds truncation ({trunc_k}, {trunc_m}, |l| <= {trunc_l})")
            stored[(k, l, m)] = value
        vars(self).update(coeffs=stored, trunc_k=trunc_k, trunc_m=trunc_m, trunc_l=trunc_l)

    def coefficient(self, k: int, l: int, m: int) -> Fraction:
        """Exact coefficient; raises outside the truncation window rather than
        guessing zero."""
        k, l, m = exact_ints((k, l, m))
        if k < 0 or m < 0 or k > self.trunc_k or m > self.trunc_m or abs(l) > self.trunc_l:
            raise ValueError(f"index ({k}, {l}, {m}) lies beyond the truncation bounds")
        return self.coeffs.get((k, l, m), Fraction(0))


def _window(trunc_k, trunc_m, trunc_l=None) -> tuple[int, int, int]:
    """The int bounds of a truncation window, trunc_l defaulting to
    default_trunc_l; a negative bound raises ValueError."""
    trunc_k, trunc_m = exact_int(trunc_k), exact_int(trunc_m)
    trunc_l = default_trunc_l(trunc_k, trunc_m) if trunc_l is None else exact_int(trunc_l)
    if min(trunc_k, trunc_m, trunc_l) < 0:
        raise ValueError("truncation bounds must be non-negative")
    return trunc_k, trunc_m, trunc_l


def series_one(trunc_k: int, trunc_m: int, trunc_l: int | None = None) -> GenusTwoSeries:
    return GenusTwoSeries({(0, 0, 0): 1}, trunc_k, trunc_m, trunc_l)


def _scaled(x: GenusTwoSeries, tk: int, tm: int) -> tuple[list, int]:
    """(terms, d): x's terms inside the (k, m) window as ((k, l, m), d*c) with
    int d*c, for d the lcm of x's denominators (1 for an integral series)."""
    d = lcm(*(c.denominator for c in x.coeffs.values()))
    terms = [(key, c.numerator * (d // c.denominator)) for key, c in x.coeffs.items() if key[0] <= tk and key[2] <= tm]
    return terms, d


def _convolve(xs, ys: list, tk: int, tm: int, tl: int) -> dict:
    """The nonzero int sums of the products of int terms ((k, l, m), c) of xs
    and ys at each index inside the window (tk, tm, |l| <= tl)."""
    acc: dict = {}
    for (k1, l1, m1), c1 in xs:
        for (k2, l2, m2), c2 in ys:
            k, l, m = k1 + k2, l1 + l2, m1 + m2
            if k > tk or m > tm or abs(l) > tl:
                continue
            acc[(k, l, m)] = acc.get((k, l, m), 0) + c1 * c2
    return {key: c for key, c in acc.items() if c}


def series_mul(x: GenusTwoSeries, y: GenusTwoSeries) -> GenusTwoSeries:
    """Convolution product, truncated to the tighter of the two windows: where
    both series are exact.

    Each factor is scaled to integers by the lcm of its denominators, the
    term pairs multiply and add plain ints, and each coefficient of the
    product is one Fraction over the two scales' product.
    """
    tk, tm, tl = min(x.trunc_k, y.trunc_k), min(x.trunc_m, y.trunc_m), min(x.trunc_l, y.trunc_l)
    xs, dx = _scaled(x, tk, tm)
    ys, dy = _scaled(y, tk, tm)
    d = dx * dy
    return GenusTwoSeries._trusted({key: Fraction(c, d) for key, c in _convolve(xs, ys, tk, tm, tl).items()}, tk, tm, tl)


def series_truncate(x: GenusTwoSeries, trunc_k: int, trunc_m: int, trunc_l: int | None = None) -> GenusTwoSeries:
    """Shrink the window; widening would claim knowledge the series lacks."""
    if trunc_l is None:
        trunc_l = min(x.trunc_l, default_trunc_l(trunc_k, trunc_m))
    if trunc_k > x.trunc_k or trunc_m > x.trunc_m or trunc_l > x.trunc_l:
        raise ValueError("cannot extend truncation bounds")
    trunc_k, trunc_m, trunc_l = _window(trunc_k, trunc_m, trunc_l)
    kept = {
        (k, l, m): v
        for (k, l, m), v in x.coeffs.items()
        if k <= trunc_k and m <= trunc_m and abs(l) <= trunc_l
    }
    return GenusTwoSeries._trusted(kept, trunc_k, trunc_m, trunc_l)


def binomial_pow(monomial, c: int, trunc_k: int, trunc_m: int, trunc_l: int | None = None) -> GenusTwoSeries:
    """(1 - u)^c for a monomial u = qt^r p^s q^t and any integer c.

    Coefficient of u^j is (-1)^j binom(c, j); for c < 0 that equals
    binom(|c| + j - 1, j), an infinite expansion cut by the window.
    """
    r, s, t = exact_ints(monomial)
    c = exact_int(c)
    trunc_k, trunc_m, trunc_l = _window(trunc_k, trunc_m, trunc_l)
    if r < 0 or t < 0:
        raise ValueError("monomial exponents of qt and q must be non-negative")
    if (r, s, t) == (0, 0, 0):
        raise ValueError("monomial must be nonzero")
    terms = _binomial_terms(r, s, t, c, trunc_k, trunc_m, trunc_l)
    return GenusTwoSeries._trusted({key: Fraction(v) for key, v in terms}, trunc_k, trunc_m, trunc_l)


def _binomial_terms(r: int, s: int, t: int, c: int, tk: int, tm: int, tl: int) -> list:
    """binomial_pow's int terms ((k, l, m), coefficient) for a checked monomial,
    exponent and window: each coefficient nonzero, each index in the window."""
    # u^j lies in the window while j * |e| <= its bound for each nonzero
    # exponent e; a binomial with c >= 0 also ends at j = c
    bounds = [c] if c >= 0 else []
    for e, bound in ((r, tk), (abs(s), tl), (t, tm)):
        if e:
            bounds.append(bound // e)
    js = range(min(bounds) + 1)
    return [((j * r, j * s, j * t), (-1) ** j * comb(c, j) if c >= 0 else comb(-c + j - 1, j)) for j in js]


# ---------------------------------------------------------------------------
# the weight-10 cusp form


class HalfIntegralTable(Record):
    """Exponents c(m) of the product expansion, as a dict m -> nonzero c(m)
    and the largest m it covers, which is the largest m listed, zero or not;
    c(m) = 0 for m < -1 and the pole coefficient c(-1) is pinned to 2."""

    _fields = ("values", "support_max")

    def __init__(self, values):
        vals = {}
        for m, c in values.items():
            m, c = exact_int(m), exact_int(c)
            if m < -1:
                raise ValueError(f"exponent c({m}) below the pole order")
            vals[m] = c
        if vals.get(-1) != 2:
            raise ValueError("pole coefficient c(-1) must be 2")
        vars(self).update(values={m: c for m, c in vals.items() if c}, support_max=max(vals))

    def c(self, m: int) -> int:
        m = exact_int(m)
        if m < -1:
            return 0
        if m > self.support_max:
            raise ValueError(f"coefficient table exhausted: c({m}) is beyond the shipped support (max {self.support_max})")
        return self.values.get(m, 0)


def loads_half_integral(text: str) -> HalfIntegralTable:
    """Parse an exponent table: lines `m value`, '#' comments."""
    values = {}
    for lineno, parts in text_rows(text, "m value"):
        m, c = (text_number(p, lineno, "malformed integer") for p in parts)
        if m in values:
            raise ValueError(f"line {lineno}: duplicate entry for m={m}")
        values[m] = c
    return HalfIntegralTable(values)


def default_chi10_exponents() -> HalfIntegralTable:
    return load_shipped("chi10_exponents.tbl", loads_half_integral)


# the largest chi10 product, factor count x window terms, that chi10
# multiplies out.  10^6 is about 0.1 s of int term products on a 2-vCPU VM
# with Python 3.11: the (1, 40) window needs 7.9e5 and takes 0.06-0.11 s,
# (1, 60) needs 2.6e6 and would take 0.18-0.29 s.  verify needs at most 720 (2, 2),
# the tests 100920 (1, 20), and no window the shipped table supports with
# trunc_k >= 2 needs more than 2508.
CHI10_MAX_WORK = 10**6


def _chi10_factors(table: HalfIntegralTable, r: int, t: int) -> list:
    """The factors ((r, s, t), c(4rt - s^2)) of chi10's product at one (r, t)
    whose exponent is nonzero, in s order."""
    smax = isqrt(4 * r * t + 1)
    svals = range(-1, 0) if r == t == 0 else range(-smax, smax + 1)
    return [((r, s, t), e) for s in svals if (e := table.c(4 * r * t - s * s))]


def chi10(table: HalfIntegralTable | None = None, trunc_k: int = 2, trunc_m: int = 2) -> GenusTwoSeries:
    """Weight-10 cusp form qt p q * prod (1 - qt^r p^s q^t)^c(4rt - s^2).

    The leading monomial shifts every index up by one, so factors only need
    r <= trunc_k - 1 and t <= trunc_m - 1; the product runs over (r, s, t) > 0,
    meaning r > 0, or t > 0, or r = t = 0 with s < 0.  Exponents vanish below
    argument -1, which bounds |s| by s^2 <= 4rt + 1.

    A window the exponent table cannot support raises ValueError, naming the
    first exponent past its support in the product's order; then a product
    whose factor count times window size exceeds CHI10_MAX_WORK raises
    ValueError.  Both come before the first multiplication, at a cost bounded
    by the table's support, not by the window's size.
    """
    if table is None:
        table = default_chi10_exponents()
    trunc_k, trunc_m = exact_int(trunc_k), exact_int(trunc_m)
    if trunc_k < 1 or trunc_m < 1:
        raise ValueError("truncation must include the leading index (1, 1, 1)")
    out_l = default_trunc_l(trunc_k, trunc_m)
    # factor terms obey |l| <= k + m + 2 <= trunc_k + trunc_m, so this inner
    # window never clips a contributing term
    inner_l = out_l + 1
    # (0, 0) has one factor, and every other (r, t) with r*t = 0 has those of
    # (0, 1): they are counted, not listed.  The (r, t) with r*t > 0 are few
    # unless the table runs out, and then they fail within a few, in order.
    count = 1
    if trunc_k + trunc_m > 2:
        count += (trunc_k + trunc_m - 2) * len(_chi10_factors(table, 0, 1))
    count += sum(len(_chi10_factors(table, r, t)) for r in range(1, trunc_k) for t in range(1, trunc_m))
    window = trunc_k * trunc_m * (2 * inner_l + 1)
    if count * window > CHI10_MAX_WORK:
        raise ValueError(
            f"chi10 window ({trunc_k}, {trunc_m}) needs about {count * window} term products "
            f"({count} factors x {window} window terms), above the limit {CHI10_MAX_WORK}"
        )
    factors = [f for r in range(trunc_k) for t in range(trunc_m) for f in _chi10_factors(table, r, t)]
    # every factor is integral, so the product runs on int terms
    tk, tm = trunc_k - 1, trunc_m - 1
    prod = {(0, 0, 0): 1}
    for monomial, exponent in factors:
        prod = _convolve(prod.items(), _binomial_terms(*monomial, exponent, tk, tm, inner_l), tk, tm, inner_l)
    shifted = {(k + 1, l + 1, m + 1): Fraction(c) for (k, l, m), c in prod.items() if abs(l + 1) <= out_l}
    return GenusTwoSeries._trusted(shifted, trunc_k, trunc_m, out_l)


# ---------------------------------------------------------------------------
# Eisenstein coefficient tables


def _orbit_rep(k: int, l: int, m: int) -> tuple[int, int, int]:
    """The representative (k <= m, l >= 0) of an index's symmetry orbit."""
    return min(k, m), abs(l), max(k, m)


def loads_coeff_table(text: str) -> GenusTwoSeries:
    """Parse `k l m value` lines ('#' comments) and close them under the index
    symmetries (k, l, m) -> (m, l, k) and (k, l, m) -> (k, -l, m).

    Truncation bounds are inferred from the stored support: the file is the
    complete list of nonzero coefficients within them.
    """
    canonical = {}
    for lineno, parts in text_rows(text, "k l m value"):
        k, l, m = (text_number(p, lineno, "malformed entry") for p in parts[:3])
        value = text_number(parts[3], lineno, "malformed entry", Fraction)
        if k < 0 or m < 0:
            raise ValueError(f"line {lineno}: negative exponent")
        canon = _orbit_rep(k, l, m)
        if canon in canonical:
            raise ValueError(f"line {lineno}: duplicate entry for orbit {canon}")
        canonical[canon] = value
    expanded = {}
    for (k, l, m), value in canonical.items():
        for key in {(k, l, m), (k, -l, m), (m, l, k), (m, -l, k)}:
            expanded[key] = value
    if expanded:
        tk = max(k for k, _, _ in expanded)
        tm = max(m for _, _, m in expanded)
        tl = max(abs(l) for _, l, _ in expanded)
    else:
        tk = tm = tl = 0
    return GenusTwoSeries(expanded, tk, tm, tl)


def e4_series() -> GenusTwoSeries:
    return load_shipped("e4.tbl", loads_coeff_table)


def e6_series() -> GenusTwoSeries:
    return load_shipped("e6.tbl", loads_coeff_table)


def e4e6(trunc_k: int = 1, trunc_m: int = 1, e4: GenusTwoSeries | None = None, e6: GenusTwoSeries | None = None) -> GenusTwoSeries:
    """Product of the weight-4 and weight-6 Eisenstein series from their
    coefficient tables."""
    if e4 is None:
        e4 = e4_series()
    if e6 is None:
        e6 = e6_series()
    if trunc_k > min(e4.trunc_k, e6.trunc_k) or trunc_m > min(e4.trunc_m, e6.trunc_m):
        raise ValueError(f"truncation ({trunc_k}, {trunc_m}) beyond table support")
    product = series_mul(e4, e6)
    return series_truncate(product, trunc_k, trunc_m, product.trunc_l)


# ---------------------------------------------------------------------------
# fitting and prediction


class Weight10Basis(Record):
    """The data tables behind the two weight-10 forms E4E6 and chi10: the
    product exponents and the E4 and E6 coefficient series.  A table not
    given is the shipped one; fit_weight10, predict_nl and independence_check
    use the shipped basis when given none."""

    _fields = ("exponents", "e4", "e6")

    def __init__(self, exponents: HalfIntegralTable | None = None, e4: GenusTwoSeries | None = None, e6: GenusTwoSeries | None = None):
        vars(self).update(
            exponents=default_chi10_exponents() if exponents is None else exponents,
            e4=e4_series() if e4 is None else e4,
            e6=e6_series() if e6 is None else e6,
        )

    def series(self, trunc_k: int, trunc_m: int) -> tuple[GenusTwoSeries, GenusTwoSeries]:
        """(E4E6, chi10) on the window (trunc_k, trunc_m)."""
        return e4e6(trunc_k, trunc_m, self.e4, self.e6), chi10(self.exponents, trunc_k, trunc_m)


class Weight10Fit(Record):
    """Fraction coefficients of a form a * E4E6 + b * chi10."""

    _fields = ("a", "b")

    def __init__(self, a, b):
        vars(self).update(a=Fraction(a), b=Fraction(b))


def fit_weight10(observations, basis: Weight10Basis | None = None) -> Weight10Fit:
    """Solve coefficient observations for a form a * E4E6 + b * chi10.

    The first two observations in index order fix (a, b) by a 2x2 solve; any
    remaining observations must match exactly.
    """
    obs = sorted((tuple(key), Fraction(value)) for key, value in observations.items())
    if len(obs) < 2:
        raise ValueError("need at least two observations")
    trunc_k = max(1, max(k for (k, _, _), _ in obs))
    trunc_m = max(1, max(m for (_, _, m), _ in obs))
    eis, cusp = (Weight10Basis() if basis is None else basis).series(trunc_k, trunc_m)
    (i1, v1), (i2, v2) = obs[0], obs[1]
    e1, x1 = eis.coefficient(*i1), cusp.coefficient(*i1)
    e2, x2 = eis.coefficient(*i2), cusp.coefficient(*i2)
    det = e1 * x2 - e2 * x1
    if det == 0:
        raise ValueError(f"singular system from observations at {i1} and {i2}")
    a = (v1 * x2 - v2 * x1) / det
    b = (e1 * v2 - e2 * v1) / det
    for idx, value in obs[2:]:
        fitted = a * eis.coefficient(*idx) + b * cusp.coefficient(*idx)
        if fitted != value:
            raise ValueError(f"inconsistent observation at {idx}: fit gives {fitted}, observed {value}")
    return Weight10Fit(a, b)


PREDICTIONS = {
    "cuspidal": (1, 1, 1),
    "binodal": (1, 0, 1),
    "hodge-disc": (0, 0, 1),
    "hodge-sq": (0, 0, 0),
}


def predict_nl(fit: Weight10Fit, which: str, basis: Weight10Basis | None = None) -> Fraction:
    """Special-divisor degree read off the fitted form.

    Coefficients at the rank-2 indices count singular fibers twice, so the
    cuspidal and binodal predictions are halved.  The disc-bundle degree is
    reported as a magnitude: the fitted form carries it with a negative sign.
    """
    if which not in PREDICTIONS:
        raise ValueError(f"unknown prediction {which!r}; valid: {', '.join(sorted(PREDICTIONS))}")
    idx = PREDICTIONS[which]
    eis, cusp = (Weight10Basis() if basis is None else basis).series(1, 1)
    value = fit.a * eis.coefficient(*idx) + fit.b * cusp.coefficient(*idx)
    if which in ("cuspidal", "binodal"):
        return value / 2
    if which == "hodge-disc":
        return abs(value)
    return value


# (cuspidal, binodal) counts of the degree-4 hyperelliptic comparison family
HYPERELLIPTIC_NL = (864, 7656)


def independence_check(fit: Weight10Fit, basis: Weight10Basis | None = None) -> bool:
    """True iff the fitted form's (cuspidal, binodal) vector is not
    proportional to the hyperelliptic one."""
    if fit.a == 0 and fit.b == 0:
        raise ValueError("zero form has no direction")
    if basis is None:
        basis = Weight10Basis()
    cuspidal = predict_nl(fit, "cuspidal", basis)
    binodal = predict_nl(fit, "binodal", basis)
    return cuspidal * HYPERELLIPTIC_NL[1] != binodal * HYPERELLIPTIC_NL[0]
