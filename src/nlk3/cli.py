"""Command-line entry point.

Every library operation is exposed as a subcommand emitting one JSON record
(or TSV for tabular results) on standard output; `verify` replays the full
reproduction suite and reports expected against actual for each criterion.

Exit codes: 0 success, 1 usage error, 2 computation error, 3 verification
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import _inputs, chern, lattice, nldiv, orbits, siegel


# ---------------------------------------------------------------------------
# serialization


def _plain(value):
    """JSON-safe form: integral rationals as ints, others as 'num/den'."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, list):
        if any(isinstance(v, list) for v in value):
            return ";".join(_cell(v) for v in value)
        return ",".join(_cell(v) for v in value)
    if isinstance(value, dict):
        return ",".join(f"{k}={_cell(v)}" for k, v in sorted(value.items()))
    return str(value)


def _tsv(result) -> str:
    if isinstance(result, list) and result and all(isinstance(r, dict) for r in result):
        keys = sorted({k for row in result for k in row})
        lines = ["\t".join(keys)]
        for row in result:
            lines.append("\t".join(_cell(row.get(k)) for k in keys))
        return "\n".join(lines)
    if isinstance(result, dict):
        return "\n".join(f"{k}\t{_cell(v)}" for k, v in sorted(result.items()))
    return _cell(result)


def _emit(args, inputs: dict, result, status: int = 0) -> int:
    """Print the record of a finished command and return its exit status."""
    record = {
        # the command as typed: "verify", or a group and its subcommand
        "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
        "inputs": _plain(inputs),
        "result": _plain(result),
        "exact": True,
    }
    if args.format == "tsv":
        print(_tsv(record["result"]))
    else:
        print(json.dumps(record, sort_keys=True))
    return status


# ---------------------------------------------------------------------------
# argument parsing helpers


def _flag(read, message):
    """The argparse type read(text) that refuses text as 'message: text'."""

    def parse(text: str):
        try:
            return read(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"{message}: {text!r}") from None

    return parse


# every number typed in a flag is read by _inputs.number, the rule of the
# text inputs; the int flags keep the message of argparse's own int type
_parse_int = _flag(_inputs.number, "invalid int value")
_fraction = functools.partial(_inputs.number, parse=Fraction)
_parse_rational = _flag(_fraction, "malformed rational")


def _ints(text: str):
    return tuple(map(_inputs.number, text.split(",")))


def _triple(text: str):
    # a wrong count passes through _flag with its own message
    if text.count(",") != 2:
        raise argparse.ArgumentTypeError(f"index must be k,l,m: {text!r}")
    return _ints(text)


def _observation(text: str):
    head, tail = text.split("=", 1)  # no '=': ValueError
    return _parse_index(head), _parse_obs_value(tail)


_parse_vector = _flag(_ints, "vector must be comma-separated integers")
_parse_index = _flag(_triple, "index must be three integers")
_parse_obs_value = _flag(_fraction, "malformed observation value")
_parse_observation = _flag(_observation, "observation must be k,l,m=value")


def _parse_locus(text: str) -> str:
    # validated here, so an unknown locus is a usage error; the text itself
    # is kept, so the inputs echo the locus as typed
    try:
        orbits._canon_locus(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_lattice(args, parser):
    """(lattice, inputs echo) of the lattice given by --file or --standard."""
    if (args.file is None) == (args.standard is None):
        parser.error("provide exactly one of --file or --standard")
    if args.file is not None:
        if args.g is not None:
            parser.error("--file does not take --g")
        return lattice.from_text(_read_text(args.file)), {"file": args.file}
    needs_g = args.standard in lattice.PERIOD_LATTICES
    if needs_g and args.g is None:
        parser.error(f"--standard {args.standard} requires --g")
    if not needs_g and args.g is not None:
        parser.error(f"--standard {args.standard} does not take --g")
    return lattice.build_standard(args.standard, g=args.g), {"standard": args.standard, "g": args.g}


# ---------------------------------------------------------------------------
# lattice subcommands


def _cmd_lattice_disc(args, parser):
    lat, inputs = _load_lattice(args, parser)
    grp = lattice.discriminant_group(lat)
    generators = [
        {"lift": [str(c) for c in lift], "q": grp.quadratic(grp.element(_unit_residues(grp, i)))}
        for i, lift in enumerate(grp.lifts)
    ]
    result = {"order": grp.order, "factors": list(grp.factors), "generators": generators}
    return _emit(args, inputs, result)


def _unit_residues(grp, i):
    return tuple(1 if j == i else 0 for j in range(len(grp.factors)))


def _cmd_lattice_complement(args, parser):
    lat, inputs = _load_lattice(args, parser)
    if not args.vector:
        parser.error("--vector is required at least once")
    comp, embedding = lattice.orthogonal_complement(lat, args.vector)
    result = {
        "rank": comp.rank,
        "determinant": comp.determinant(),
        "gram": [list(row) for row in comp.gram],
        "labels": list(comp.labels),
        "embedding": [list(col) for col in embedding],
    }
    return _emit(args, {**inputs, "vectors": [list(v) for v in args.vector]}, result)


def _cmd_lattice_snf(args, parser):
    lat, inputs = _load_lattice(args, parser)
    d, u, v = lattice.smith_normal_form(lat.gram)
    result = {
        "d": [list(row) for row in d],
        "u": [list(row) for row in u],
        "v": [list(row) for row in v],
    }
    return _emit(args, inputs, result)


# ---------------------------------------------------------------------------
# nl subcommands


def _cmd_nl_components(args, parser):
    count, components = orbits.nl_component_count(args.g, args.locus, with_witnesses=args.witnesses)
    lat = orbits.locus_lattice(args.g, args.locus) if args.witnesses else None
    rows = []
    for comp in components:
        cand = comp.candidate
        row = {
            "label": comp.label,
            "div": cand.divisibility,
            "class": list(cand.dual_class.residues),
        }
        if args.witnesses:
            if cand.witness is None:
                row["witness"] = None
            else:
                row["witness"] = {
                    "coords": list(cand.witness.coords),
                    "expr": lat.describe(cand.witness),
                }
        rows.append(row)
    inputs = {"g": args.g, "locus": args.locus, "witnesses": args.witnesses}
    return _emit(args, inputs, {"count": count, "components": rows})


def _cmd_nl_triangular(args, parser):
    key = nldiv.NLKey(args.g, args.d, args.n)
    rows = [
        {"g": rep.g, "d": rep.d, "n": rep.n, "mu": mu, "delta": nldiv.delta(rep)}
        for rep, mu in nldiv.triangular_decomposition(key)
    ]
    return _emit(args, {"g": args.g, "d": args.d, "n": args.n}, rows)


def _cmd_nl_vector_data(args, parser):
    key = nldiv.NLKey(args.g, args.d, args.n)
    data = nldiv.nl_vector_data(key)
    result = {
        "half_norm": data.half_norm,
        "disc_class": data.disc_class,
        "multiplicity_two": data.multiplicity_two,
        "delta": nldiv.delta(key),
    }
    return _emit(args, {"g": args.g, "d": args.d, "n": args.n}, result)


# ---------------------------------------------------------------------------
# enum subcommands


def _cmd_enum_net(args, parser):
    data = chern.SurfaceChernData(args.alpha2, args.alphac1, args.c1sq, args.c2)
    g, d, e = chern.net_invariants(data)
    a2, a11 = chern.net_counts(data, degree=args.degree)
    inputs = {
        "alpha2": args.alpha2,
        "alphac1": args.alphac1,
        "c1sq": args.c1sq,
        "c2": args.c2,
        "degree": args.degree,
    }
    return _emit(args, inputs, {"g": g, "d": d, "e": e, "a2": a2, "a11": a11})


def _cmd_enum_unigonal(args, parser):
    if args.table is None:
        table = chern.default_unigonal_table()
    else:
        table = chern.loads_unigonal(_read_text(args.table))
    a2, a11 = chern.unigonal_counts(table)
    result = {"a2": a2, "double_point": 2 * (a2 + a11), "a11": a11}
    return _emit(args, {"table": args.table}, result)


# ---------------------------------------------------------------------------
# siegel subcommands


def _tables(args) -> dict:
    """The data tables given by --e4, --e6 or --exponents, each read from its
    file and keyed by its flag; a table not given is left to the library."""
    tables = {}
    for name, parse in (("e4", siegel.loads_coeff_table), ("e6", siegel.loads_coeff_table), ("exponents", siegel.loads_half_integral)):
        path = getattr(args, name, None)
        if path is not None:
            tables[name] = parse(_read_text(path))
    return tables


def _emit_coefficient(args, series):
    """The record of one coefficient of a series, at --index."""
    k, l, m = args.index
    inputs = {"trunc_k": args.trunc_k, "trunc_m": args.trunc_m, "index": [k, l, m]}
    return _emit(args, inputs, {"index": [k, l, m], "coefficient": series.coefficient(k, l, m)})


def _cmd_siegel_chi10(args, parser):
    table = _tables(args).get("exponents")
    return _emit_coefficient(args, siegel.chi10(table, trunc_k=args.trunc_k, trunc_m=args.trunc_m))


def _cmd_siegel_e4e6(args, parser):
    return _emit_coefficient(args, siegel.e4e6(args.trunc_k, args.trunc_m, **_tables(args)))


def _cmd_siegel_fit(args, parser):
    observations = dict(args.obs)
    if len(observations) != len(args.obs):
        parser.error("duplicate observation index")
    fit = siegel.fit_weight10(observations, basis=siegel.Weight10Basis(**_tables(args)))
    result = {
        "a": fit.a,
        "b": fit.b,
        "integral": fit.a.denominator == 1 and fit.b.denominator == 1,
    }
    inputs = {"obs": [f"{k},{l},{m}={v}" for (k, l, m), v in args.obs]}
    return _emit(args, inputs, result)


def _cmd_siegel_predict(args, parser):
    fit = siegel.Weight10Fit(args.a, args.b)
    value = siegel.predict_nl(fit, args.which, basis=siegel.Weight10Basis(**_tables(args)))
    inputs = {"a": args.a, "b": args.b, "which": args.which}
    return _emit(args, inputs, {"which": args.which, "value": value})


def _cmd_siegel_independence(args, parser):
    fit = siegel.Weight10Fit(args.a, args.b)
    independent = siegel.independence_check(fit, basis=siegel.Weight10Basis(**_tables(args)))
    return _emit(args, {"a": args.a, "b": args.b}, {"independent": independent})


# ---------------------------------------------------------------------------
# verify


def _crit_net(table, basis):
    data = chern.SurfaceChernData(32, -16, 8, 4)
    got = (chern.net_counts(data), chern.net_counts(data, degree=4))
    want = ((216, 1914), siegel.HYPERELLIPTIC_NL)
    return "net-of-conics counts", want, got


# the frozen unigonal (cuspidal, double-point, binodal) counts: criterion 2's
# expected value; its first and last, [::2], are what criterion 5's fit returns
_UNIGONAL = (816, 68592, 33480)


def _crit_unigonal(table, basis):
    a2, a11 = chern.unigonal_counts(table)
    return "unigonal counts", _UNIGONAL, (a2, 2 * (a2 + a11), a11)


def _crit_chi10(table, basis):
    series = siegel.chi10(basis.exponents, 2, 2)
    got = tuple(series.coefficient(*idx) for idx in ((1, 1, 1), (1, 0, 1), (1, 1, 2)))
    return "cusp form coefficients", (1, -2, -16), got


def _crit_e4e6(table, basis):
    series = siegel.e4e6(1, 1, basis.e4, basis.e6)
    indices = ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1), (1, 0, 1))
    got = tuple(series.coefficient(*idx) for idx in indices)
    return "Eisenstein product coefficients", (1, -264, -264, 57792, -45360), got


def _crit_fit(table, basis):
    """The weight-10 fit to twice the unigonal counts.  Its cuspidal and
    binodal predictions return the fit's inputs, halved, whatever the tables
    say; the content is a = 1, which (chi10 having (1,1,1) = 1, (1,0,1) = -2)
    is the chi10-free identity 2*816 + 33480 = 35112 = (2*57792 - 45360)/2."""
    a2, a11 = counts = chern.unigonal_counts(table)
    fit = siegel.fit_weight10({(1, 1, 1): 2 * a2, (1, 0, 1): 2 * a11}, basis=basis)
    got = (
        (fit.a, fit.b),
        (siegel.predict_nl(fit, "cuspidal", basis=basis), siegel.predict_nl(fit, "binodal", basis=basis)),
        counts,
    )
    want = ((Fraction(1), Fraction(-56160)), tuple(map(Fraction, _UNIGONAL[::2])), _UNIGONAL[::2])
    return "weight-10 fit and cross-pipeline agreement", want, got


def _crit_components(table, basis):
    """Counts for g = 3..100, witnesses at g = 6, 7, and every nodal and a11
    Eichler candidate named at g = 3..6: a norm -2 candidate is 2-torsion,
    spanned by w/2 and s1/2 with q = -(g-1)/2 and -3/2 mod 2Z, a pattern
    fixed by g mod 4, so these four genera cover every g."""
    bad = []
    for g in range(3, 101):
        got = tuple(orbits.nl_component_count(g, locus)[0] for locus in orbits.LOCI)
        want = (2 if g % 4 == 2 else 1, 2 if g % 4 in (2, 3) else 1, 1)
        if got != want:
            bad.append(f"g={g}: {got} != {want}")
    for g in (3, 4, 5, 6):
        for locus in ("nodal", "a11"):
            _, comps = orbits.nl_component_count(g, locus)
            if tuple(comp.candidate for comp in comps) != orbits.eichler_candidates(orbits.locus_lattice(g, locus), -2):
                bad.append(f"g={g} {locus}: the components are not the Eichler candidates")
    for g in (6, 7):
        for locus in orbits.LOCI:
            _, comps = orbits.nl_component_count(g, locus, with_witnesses=True)
            lat = orbits.locus_lattice(g, locus)
            for comp in comps:
                cand, w = comp.candidate, comp.candidate.witness
                if w is None:
                    bad.append(f"g={g} {locus} {comp.label}: no witness")
                elif not (
                    lattice.is_primitive(lat, w)
                    and lat.norm(w) == cand.norm
                    and lattice.divisibility(lat, w) == cand.divisibility
                    and lattice.dual_class(lat, w) == cand.dual_class
                ):
                    bad.append(f"g={g} {locus} {comp.label}: witness fails validation")
    return "component counts g=3..100 and witnesses", "all match", "all match" if not bad else "; ".join(bad)


def _crit_disc_groups(table, basis):
    bad = []
    for g in (4, 5, 6, 7, 11):
        grp_g = lattice.discriminant_group(lattice.build_standard("LambdaG", g=g))
        if grp_g.factors != (2 * g - 2,):
            bad.append(f"LambdaG({g}): factors {grp_g.factors}")
        grp_a = lattice.discriminant_group(lattice.build_standard("LambdaA1", g=g))
        if grp_a.factors != (2, 2 * g - 2):
            bad.append(f"LambdaA1({g}): factors {grp_a.factors}")
        w2 = grp_a.element((1, 0))
        if grp_a.quadratic(w2) != Fraction(-3, 2):
            bad.append(f"LambdaA1({g}): q(w2) = {grp_a.quadratic(w2)}")
    return "discriminant groups", "all match", "all match" if not bad else "; ".join(bad)


def _crit_triangular(table, basis):
    bad = []
    for g in range(3, 41):
        reps = nldiv.triangular_decomposition(nldiv.NLKey(g, 0, -2))
        count, comps = orbits.nl_component_count(g, "nodal")
        if len(reps) != count:
            bad.append(f"g={g}: {len(reps)} reps vs {count} components")
            continue
        keys = {(rep.d, rep.n) for rep, _ in reps}
        want = {(0, -2)}
        if g % 4 == 2:
            want.add((g - 1, (g - 2) // 2))
        if keys != want:
            bad.append(f"g={g}: keys {sorted(keys)} != {sorted(want)}")
    return "triangular decomposition vs component counts", "all match", "all match" if not bad else "; ".join(bad)


def _crit_properties(table, basis):
    import random

    bad = []
    x = siegel.chi10(basis.exponents, 2, 2)
    ee = siegel.e4e6(1, 1, basis.e4, basis.e6)
    for series in (x, ee):
        for (k, l, m), value in series.coeffs.items():
            if 4 * k * m - l * l < 0:
                bad.append(f"support violation at {(k, l, m)}")
            if series.coefficient(k, -l, m) != value or series.coefficient(m, l, k) != value:
                bad.append(f"symmetry violation at {(k, l, m)}")
    rng = random.Random(20260816)
    for _ in range(5):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = tuple(tuple(rng.randint(-50, 50) for _ in range(m)) for _ in range(n))
        d, u, v = lattice.smith_normal_form(mat)
        prod = [[sum(u[i][a] * mat[a][b] * v[b][j] for a in range(n) for b in range(m)) for j in range(m)] for i in range(n)]
        if any(prod[i][j] != d[i][j] for i in range(n) for j in range(m)):
            bad.append("smith identity violation")
        if abs(lattice.det(u)) != 1 or abs(lattice.det(v)) != 1:
            bad.append("smith transform not unimodular")
    for c in (-128, -1, 3, 57):
        prod = siegel.series_mul(
            siegel.binomial_pow((1, 1, 1), c, 4, 4), siegel.binomial_pow((1, 1, 1), -c, 4, 4)
        )
        if prod != siegel.GenusTwoSeries({(0, 0, 0): 1}, 4, 4):
            bad.append(f"binomial inverse fails for c={c}")
    if orbits.nl_component_count(10, "a11") != orbits.nl_component_count(10, "a11"):
        bad.append("component enumeration not deterministic")
    if siegel.chi10(basis.exponents, 2, 2) != x:
        bad.append("cusp form expansion not deterministic")
    return "property suite", "all hold", "all hold" if not bad else "; ".join(bad)


# each criterion takes the shipped unigonal table and weight-10 basis, read
# once per verify run, and returns (name, expected, actual)
CRITERIA = (
    _crit_net,
    _crit_unigonal,
    _crit_chi10,
    _crit_e4e6,
    _crit_fit,
    _crit_components,
    _crit_disc_groups,
    _crit_triangular,
    _crit_properties,
)


def _cmd_verify(args, parser):
    selected = range(1, len(CRITERIA) + 1)
    if args.all and args.criterion is not None:
        parser.error("--all and --criterion are exclusive")
    if args.criterion is not None:
        if not 1 <= args.criterion <= len(CRITERIA):
            parser.error(f"--criterion must be in 1..{len(CRITERIA)}")
        selected = [args.criterion]
    table, basis = chern.default_unigonal_table(), siegel.Weight10Basis()
    rows = []
    failures = 0
    for number in selected:
        name, want, got = CRITERIA[number - 1](table, basis)
        ok = want == got
        failures += 0 if ok else 1
        rows.append(
            {
                "criterion": number,
                "name": name,
                "expected": _cell(_plain(want)),
                "actual": _cell(_plain(got)),
                "pass": ok,
            }
        )
    inputs = {"criterion": args.criterion} if args.criterion is not None else {"all": True}
    return _emit(args, inputs, rows, 3 if failures else 0)


# ---------------------------------------------------------------------------
# parser assembly


def _lattice_branch(sub, help, leaf):
    # a lattice by file or by name
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--file", help="lattice text file, '-' for standard input")
    source.add_argument("--standard", choices=lattice.STANDARD_NAMES, help="shipped lattice by name")
    source.add_argument("--g", type=_parse_int, help=f"genus parameter for {'/'.join(lattice.PERIOD_LATTICES)}")
    lat = sub.add_parser("lattice", help=help).add_subparsers(dest="subcommand", required=True)
    leaf(lat, "disc", "discriminant group and generator q-values", _cmd_lattice_disc, source)
    p = leaf(lat, "complement", "saturated orthogonal complement", _cmd_lattice_complement, source)
    p.add_argument("--vector", action="append", type=_parse_vector, help="coordinates, repeatable")
    leaf(lat, "snf", "Smith normal form of the Gram matrix", _cmd_lattice_snf, source)


def _nl_branch(sub, help, leaf):
    # a key (g, d, n)
    key = argparse.ArgumentParser(add_help=False)
    for flag in ("--g", "--d", "--n"):
        key.add_argument(flag, type=_parse_int, required=True)
    nl = sub.add_parser("nl", help=help).add_subparsers(dest="subcommand", required=True)
    p = leaf(nl, "components", "irreducible component count of a locus", _cmd_nl_components)
    p.add_argument("--g", type=_parse_int, required=True)
    p.add_argument("--locus", type=_parse_locus, required=True)
    p.add_argument("--witnesses", action="store_true", help="attach explicit witness vectors")
    leaf(nl, "triangular", "decomposition into irreducible keys", _cmd_nl_triangular, key)
    leaf(nl, "vector-data", "half-norm, class and multiplicity of a key", _cmd_nl_vector_data, key)


def _enum_branch(sub, help, leaf):
    enum = sub.add_parser("enum", help=help).add_subparsers(dest="subcommand", required=True)
    p = leaf(enum, "net", "cuspidal/binodal counts of a net of conics", _cmd_enum_net)
    p.add_argument("--alpha2", type=_parse_int, required=True)
    p.add_argument("--alphac1", type=_parse_int, required=True)
    p.add_argument("--c1sq", type=_parse_int, required=True)
    p.add_argument("--c2", type=_parse_int, required=True)
    p.add_argument("--degree", type=_parse_int, default=1)
    p = leaf(enum, "unigonal", "counts of the unigonal family", _cmd_enum_unigonal)
    p.add_argument("--table", help="pushforward table file")


def _siegel_branch(sub, help, leaf):
    # the data tables behind the two weight-10 forms
    exponents = argparse.ArgumentParser(add_help=False)
    exponents.add_argument("--exponents", help="exponent table file")
    eisenstein = argparse.ArgumentParser(add_help=False)
    eisenstein.add_argument("--e4", help="weight-4 coefficient table file")
    eisenstein.add_argument("--e6", help="weight-6 coefficient table file")
    # a fitted form a * E4E6 + b * chi10
    form = argparse.ArgumentParser(add_help=False)
    for flag in ("--a", "--b"):
        form.add_argument(flag, type=_parse_rational, required=True)
    sie = sub.add_parser("siegel", help=help).add_subparsers(dest="subcommand", required=True)
    p = leaf(sie, "chi10", "cusp form coefficient from the product expansion", _cmd_siegel_chi10, exponents)
    p.add_argument("--trunc-k", type=_parse_int, default=2)
    p.add_argument("--trunc-m", type=_parse_int, default=2)
    p.add_argument("--index", type=_parse_index, required=True, help="k,l,m")
    p = leaf(sie, "e4e6", "Eisenstein product coefficient", _cmd_siegel_e4e6, eisenstein)
    p.add_argument("--trunc-k", type=_parse_int, default=1)
    p.add_argument("--trunc-m", type=_parse_int, default=1)
    p.add_argument("--index", type=_parse_index, required=True, help="k,l,m")
    p = leaf(sie, "fit", "solve observations against the two weight-10 forms", _cmd_siegel_fit, exponents, eisenstein)
    p.add_argument("--obs", action="append", type=_parse_observation, required=True, help="k,l,m=value, repeatable")
    p = leaf(sie, "predict", "special-divisor degree from a fitted form", _cmd_siegel_predict, exponents, eisenstein, form)
    p.add_argument("--which", choices=sorted(siegel.PREDICTIONS), required=True)
    leaf(
        sie, "independence", "compare the fitted form against the hyperelliptic direction",
        _cmd_siegel_independence, exponents, eisenstein, form,
    )


def _verify_branch(sub, help, leaf):
    p = leaf(sub, "verify", help, _cmd_verify)
    p.add_argument("--all", action="store_true", help="run every criterion (the default)")
    p.add_argument("--criterion", type=_parse_int, help="run a single criterion by number")


# each top-level command: its help line, and the function that adds its
# parser with its leaves to the root's subparsers
_COMMANDS = {
    "lattice": ("lattice computations", _lattice_branch),
    "nl": ("special-divisor bookkeeping", _nl_branch),
    "enum": ("singular-member counts of families", _enum_branch),
    "siegel": ("genus-2 modular form arithmetic", _siegel_branch),
    "verify": ("run the full reproduction suite", _verify_branch),
}


# the tree with leaves for one command (None: for none); parse_args leaves a
# parser unchanged, so each command's tree serves every call of it
@functools.lru_cache(maxsize=len(_COMMANDS) + 1)
def _build_parser(command=None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlk3",
        description="Exact lattice, divisor-count and modular-form computations for K3 moduli.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json", help="output format")
    # accepted before or after the subcommand; SUPPRESS keeps the leaf parser
    # from clobbering a value given up front
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv"), default=argparse.SUPPRESS, help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, help, handler, *parents):
        # each leaf is registered here once, and its handler gets the leaf's
        # own parser, so a usage error it raises prints the leaf's usage
        p = parent.add_parser(name, help=help, parents=[common, *parents])
        p.set_defaults(handler=handler, leaf=p)
        return p

    # only the named command gets its leaves; the others' parsers just name
    # them in the root's help and choices
    for name, (help, branch) in _COMMANDS.items():
        if name == command:
            branch(sub, help, leaf)
        else:
            sub.add_parser(name, help=help)
    return parser


def main(argv=None) -> int:
    # the command is the first token that names one: before the command the
    # root takes only -h and --format {json,tsv}, so an earlier such token
    # is a --format value that the root rejects before any group is read
    parser = _build_parser(next(filter(_COMMANDS.__contains__, sys.argv[1:] if argv is None else argv), None))
    try:
        # the leaf, not the root, reports a flag it does not take
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
        # before Python 3.13, argparse reads "--flag=--" as an empty list and
        # skips the flag's type; refuse it, as 3.13 does
        for dest, value in vars(args).items():
            if isinstance(value, list) and [] in (value, *value):
                args.leaf.error(f"argument --{dest.replace('_', '-')}: '--' is not a value")
        return args.handler(args, args.leaf)
    except SystemExit as exc:
        # argparse uses status 2 for usage problems; this interface reserves
        # 2 for computation errors
        code = exc.code if isinstance(exc.code, int) else 0
        return 1 if code == 2 else code
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(json.dumps({"error": str(exc), "exact": True}, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
