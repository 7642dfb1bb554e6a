"""The timed operation of each workload and its independent answer checks.

`run` functions call the library and nothing else; the worker times them.
`check` functions return one (answer, failure) pair per checked answer, with
failure None when the answer is right.  Checks compare against frozen
literals, closed forms or the benchmark's own integer arithmetic, never
against the function under test, and they call no cached library function,
so they leave the library's caches and work counters as the operation left
them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable

from nlk3 import chern, cli, lattice, nldiv, orbits, siegel

from inputs import CHI10_LITERALS, E4E6_LITERALS, PAPER_FIT

# ---------------------------------------------------------------------------
# reproduce


# the `actual` column of `nlk3 verify --all`, row by row
VERIFY_ROWS = {
    1: "216,1914;864,7656",
    2: "816,68592,33480",
    3: "1,-2,-16",
    4: "1,-264,-264,57792,-45360",
    5: "1,-56160;816,33480;816,33480",
    6: "all match",
    7: "all match",
    8: "all match",
    9: "all hold",
}


def run_reproduce(query):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(query["argv"])
    return code, out.getvalue()


def check_reproduce(query, result, ref):
    code, stdout = result
    answers = [("exit code", None if code == 0 else f"exit code {code}")]
    try:
        rows = {row["criterion"]: row for row in json.loads(stdout)["result"]}
    except (ValueError, KeyError, TypeError) as exc:
        rows = {}
        answers.append(("verify record", f"unreadable: {exc}"))
    for number, want in VERIFY_ROWS.items():
        row = rows.get(number)
        if row is None:
            failure = "row missing"
        elif row.get("actual") != want or row.get("pass") is not True:
            failure = f"actual {row.get('actual')!r}, pass {row.get('pass')!r}; want {want!r}"
        else:
            failure = None
        answers.append((f"criterion {number}", failure))
    return answers


# ---------------------------------------------------------------------------
# lattice references shared by genus-sweep and witness-search


@dataclass(frozen=True)
class GroupData:
    """Gram matrix and discriminant generators, read once from an uncached
    DiscriminantGroup so that residues mean what the library means by them."""

    gram: tuple
    factors: tuple
    lifts: tuple

    def lift(self, residues):
        n = len(self.gram)
        return [sum((Fraction(r) * l[i] for r, l in zip(residues, self.lifts)), Fraction(0)) for i in range(n)]

    def norm(self, y):
        n = len(self.gram)
        return sum(y[i] * self.gram[i][j] * y[j] for i in range(n) for j in range(n))


class GroupCache:
    """The benchmark's own map from (lattice name, g) to GroupData."""

    def __init__(self):
        self._data = {}

    def get(self, name, g):
        key = (name, g)
        if key not in self._data:
            lat = lattice.build_standard(name, g=g)
            grp = lattice.DiscriminantGroup(lat)
            self._data[key] = GroupData(lat.gram, grp.factors, grp.lifts)
        return self._data[key]


def witness_failure(data: GroupData, cand, coords):
    """Why coords is not a witness of cand's (norm, divisibility, class), or None."""
    if coords is None:
        return "no witness"
    v = list(coords)
    n = len(data.gram)
    if gcd(*v) != 1:
        return f"{v} is not primitive"
    gv = [sum(data.gram[i][j] * v[j] for j in range(n)) for i in range(n)]
    norm = sum(a * b for a, b in zip(v, gv))
    if norm != cand.norm:
        return f"norm {norm}, want {cand.norm}"
    div = gcd(*gv)
    if div != cand.divisibility:
        return f"divisibility {div}, want {cand.divisibility}"
    y = data.lift(cand.dual_class.residues)
    if any((Fraction(c, div) - t).denominator != 1 for c, t in zip(v, y)):
        return "v/d - lift(x) is not in L"
    return None


def expected_candidates(data: GroupData, norm: int):
    """(d, residues) of every class x with ord(x) = d | norm and
    q(x) = norm/d^2 mod 2, in the library's order."""
    out = []
    for d in (d for d in range(1, abs(norm) + 1) if norm % d == 0):
        target = Fraction(norm, d * d) % 2
        for residues in itertools.product(*(range(f) for f in data.factors)):
            order = lcm(1, *(f // gcd(r, f) for r, f in zip(residues, data.factors)))
            if order == d and data.norm(data.lift(residues)) % 2 == target:
                out.append((d, residues))
    return out


# ---------------------------------------------------------------------------
# genus-sweep


def expected_labels(g: int, locus: str):
    """Component labels by the closed forms in g mod 4."""
    if locus == "nodal":
        return ["P_{0,-2}"] + (["P_{g-1,(g-2)/2}"] if g % 4 == 2 else [])
    if locus == "a11":
        return ["H'"] + (["H''"] if g % 4 == 2 else []) + (["H'''"] if g % 4 == 3 else [])
    return ["H_{A_2}"]


def run_genus_sweep(query):
    g, locus = query["g"], query["locus"]
    count, comps = orbits.nl_component_count(g, locus, with_witnesses=query["witnesses"])
    reps = nldiv.triangular_decomposition(nldiv.NLKey(g, 0, -2)) if locus == "nodal" else None
    return count, comps, reps


def check_genus_sweep(query, result, ref):
    g, locus = query["g"], query["locus"]
    count, comps, reps = result
    want = expected_labels(g, locus)
    labels = [c.label for c in comps]
    ok = count == len(want) and labels == want
    answers = [("component count", None if ok else f"count {count} labels {labels}, want {want}")]
    if query["witnesses"]:
        data = ref.groups.get("LambdaG" if locus == "nodal" else "LambdaA1", g)
        for comp in comps:
            cand = comp.candidate
            answers.append((f"witness {comp.label}", witness_failure(data, cand, cand.witness and cand.witness.coords)))
    if reps is not None:
        keys = {(rep.d, rep.n) for rep, _ in reps}
        want_keys = {(0, -2)} | ({(g - 1, (g - 2) // 2)} if g % 4 == 2 else set())
        ok = keys == want_keys and all(rep.g == g and mu > 0 for rep, mu in reps)
        answers.append(("triangular decomposition", None if ok else f"keys {sorted(keys)}, want {sorted(want_keys)}"))
    return answers


# ---------------------------------------------------------------------------
# witness-search


def run_witness_search(query):
    lat = lattice.build_standard(query["lattice"], g=query["g"])
    cands = orbits.eichler_candidates(lat, query["norm"])
    return cands, [orbits.find_witness(lat, c) for c in cands]


def check_witness_search(query, result, ref):
    cands, witnesses = result
    data = ref.groups.get(query["lattice"], query["g"])
    got = [(c.divisibility, c.dual_class.residues) for c in cands]
    want = expected_candidates(data, query["norm"])
    ok = got == want and all(c.norm == query["norm"] for c in cands)
    answers = [("candidates", None if ok else f"{got}, want {want}")]
    for cand, w in zip(cands, witnesses):
        answers.append((f"witness d={cand.divisibility}", witness_failure(data, cand, w and w.coords)))
    return answers


# ---------------------------------------------------------------------------
# modular-fit


# every chi10 window whose product reads only shipped exponents c(m <= 8);
# (2, 3) and (3, 2) read c(8), (3, 3) would read c(16)
CHI10_WINDOWS = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))


def jacobi_phi10(n_max: int) -> dict:
    """Coefficients {(n, r): c} of the first Fourier-Jacobi coefficient of chi10,
    p q (1 - 1/p)^2 prod_{t >= 1} (1 - q^t)^20 (1 - p q^t)^2 (1 - q^t/p)^2,
    for q-exponents n <= n_max.  It reads only c(-1) = 2 and c(0) = 20."""
    poly = {(1, 1): 1, (1, 0): -2, (1, -1): 1}
    for t in range(1, n_max):
        for r, exponent in ((0, 20), (1, 2), (-1, 2)):
            for _ in range(exponent):
                out = dict(poly)
                for (n, s), c in poly.items():
                    if n + t <= n_max:
                        key = (n + t, s + r)
                        out[key] = out.get(key, 0) - c
                poly = out
    return {key: c for key, c in poly.items() if c}


def maass_coefficient(phi: dict, k: int, l: int, m: int) -> int:
    """a(k, l, m) of the Maass lift of phi in weight 10:
    sum over d | gcd(k, l, m) of d^9 c(km/d^2, l/d); zero where k or m is 0."""
    if k == 0 or m == 0:
        return 0
    g = gcd(gcd(k, l), m)
    return sum(d**9 * phi.get((k * m // (d * d), l // d), 0) for d in range(1, g + 1) if g % d == 0)


def run_modular_fit(query):
    obs = {tuple(idx): value for idx, value in query["obs"]}
    fit = siegel.fit_weight10(obs)
    predictions = {which: siegel.predict_nl(fit, which) for which in siegel.PREDICTIONS}
    independent = siegel.independence_check(fit)
    counts = chern.unigonal_counts(chern.default_unigonal_table())
    windows = {w: siegel.chi10(trunc_k=w[0], trunc_m=w[1]) for w in CHI10_WINDOWS}
    return fit, predictions, independent, counts, windows


def closed_form_predictions(a, b):
    """predict_nl at the four indices, from the frozen (1, 1) literals."""

    def value(idx):
        return a * E4E6_LITERALS[idx] + b * CHI10_LITERALS[idx]

    return {
        "cuspidal": Fraction(value((1, 1, 1)), 2),
        "binodal": Fraction(value((1, 0, 1)), 2),
        "hodge-disc": Fraction(abs(value((0, 0, 1)))),
        "hodge-sq": Fraction(value((0, 0, 0))),
    }


def check_modular_fit(query, result, ref):
    fit, predictions, independent, counts, windows = result
    a, b = query["a"], query["b"]
    answers = [("fit", None if (fit.a, fit.b) == (a, b) else f"({fit.a}, {fit.b}), want ({a}, {b})")]
    want = closed_form_predictions(a, b)
    for which, value in want.items():
        got = predictions.get(which)
        answers.append((f"predict {which}", None if got == value else f"{got}, want {value}"))
    want_ind = want["cuspidal"] * 7656 != want["binodal"] * 864
    answers.append(("independence", None if independent == want_ind else f"{independent}, want {want_ind}"))
    ok = counts == (816, 33480)
    if (a, b) == PAPER_FIT:
        ok = ok and (want["cuspidal"], want["binodal"]) == counts
    answers.append(("unigonal cross-check", None if ok else f"counts {counts}, want (816, 33480)"))
    for (tk, tm), series in windows.items():
        bad = []
        for k in range(tk + 1):
            for m in range(tm + 1):
                for l in range(-series.trunc_l, series.trunc_l + 1):
                    got = series.coefficient(k, l, m)
                    ref_value = maass_coefficient(ref.phi, k, l, m)
                    if got != ref_value:
                        bad.append(f"a({k},{l},{m}) = {got}, Maass lift {ref_value}")
        answers.append((f"chi10 window ({tk},{tm})", "; ".join(bad) or None))
    return answers


# ---------------------------------------------------------------------------


class References:
    """Reference data a worker builds once, outside the timed operations."""

    def __init__(self):
        self.groups = GroupCache()
        self.phi = jacobi_phi10(max(k * m for k, m in CHI10_WINDOWS))


@dataclass(frozen=True)
class Workload:
    run: Callable
    check: Callable


WORKLOADS = {
    "reproduce": Workload(run_reproduce, check_reproduce),
    "genus-sweep": Workload(run_genus_sweep, check_genus_sweep),
    "witness-search": Workload(run_witness_search, check_witness_search),
    "modular-fit": Workload(run_modular_fit, check_modular_fit),
}
