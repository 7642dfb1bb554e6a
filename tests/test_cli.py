"""Tests for the command-line interface: output shape, formats, exit codes."""

import argparse
import ast
import hashlib
import io
import itertools
import json
import pkgutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import import_module, resources
from pathlib import Path

import pytest

import nlk3
from nlk3 import chern, cli, lattice, nldiv, orbits, siegel
from nlk3.lattice import STANDARD_NAMES, IntegralLattice, build_standard, smith_normal_form

from lattice_helpers import direct_sum, noncyclic_lattice, to_text


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# output format


def test_json_record_shape(capsys):
    code, out, _ = run_cli(capsys, "nl", "components", "--g", "6", "--locus", "a11")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "nl components"
    assert record["exact"] is True
    assert record["inputs"] == {"g": 6, "locus": "a11", "witnesses": False}
    assert record["result"]["count"] == 2
    labels = [c["label"] for c in record["result"]["components"]]
    assert labels == ["H'", "H''"]


def test_json_round_trips_byte_identical(capsys):
    for args in (
        ("nl", "components", "--g", "7", "--locus", "a2", "--witnesses"),
        ("enum", "net", "--alpha2", "32", "--alphac1", "-16", "--c1sq", "8", "--c2", "4"),
        ("siegel", "chi10", "--index", "1,1,2"),
        ("nl", "vector-data", "--g", "6", "--d", "5", "--n", "2"),
    ):
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_repeated_runs_identical(capsys):
    _, first, _ = run_cli(capsys, "nl", "components", "--g", "10", "--locus", "nodal", "--witnesses")
    _, second, _ = run_cli(capsys, "nl", "components", "--g", "10", "--locus", "nodal", "--witnesses")
    assert first == second


def test_tsv_table(capsys):
    code, out, _ = run_cli(capsys, "nl", "triangular", "--g", "6", "--d", "0", "--n", "-2", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d\tdelta\tg\tmu\tn"
    assert lines[1] == "5\t-5\t6\t2\t2"
    assert lines[2] == "0\t-20\t6\t2\t-2"


def test_format_flag_accepted_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--format", "tsv", "siegel", "predict", "--a", "1", "--b", "-56160", "--which", "binodal")
    assert code == 0
    assert "value\t33480" in out


def test_rationals_serialized_without_floats(capsys):
    _, out, _ = run_cli(capsys, "nl", "vector-data", "--g", "6", "--d", "5", "--n", "2")
    result = json.loads(out)["result"]
    assert result["half_norm"] == "-1/4"
    assert result["multiplicity_two"] is True
    _, out, _ = run_cli(capsys, "siegel", "predict", "--a", "1", "--b", "-56160", "--which", "cuspidal")
    assert json.loads(out)["result"]["value"] == 816


def test_plain_refuses_a_type_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize object"):
        cli._plain(object())


# ---------------------------------------------------------------------------
# lattice commands


def test_lattice_disc_from_standard(capsys):
    code, out, _ = run_cli(capsys, "lattice", "disc", "--standard", "LambdaA1", "--g", "6")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order"] == 20
    assert result["factors"] == [2, 10]
    assert [g["q"] for g in result["generators"]] == ["-3/2", "-1/10"]


def test_lattice_disc_from_file(tmp_path, capsys):
    path = tmp_path / "lat.txt"
    path.write_text(to_text(build_standard("LambdaG", g=5)), encoding="utf-8")
    code, out, _ = run_cli(capsys, "lattice", "disc", "--file", str(path))
    assert code == 0
    assert json.loads(out)["result"]["factors"] == [8]


@pytest.mark.parametrize(
    "text",
    [
        "rank 1\n0\n",
        "rank 2\n2 2\n2 2\n",
        "rank 3\n2 1 3\n1 2 3\n3 3 6\n",
    ],
)
def test_lattice_disc_degenerate_file_exits_two(tmp_path, capsys, text):
    path = tmp_path / "degenerate.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice", "disc", "--file", str(path))
    assert code == 2
    assert out == ""
    assert "degenerate" in json.loads(err)["error"]


def test_lattice_disc_file_with_comments(tmp_path, capsys):
    path = tmp_path / "commented.txt"
    path.write_text("rank 2\n# comment\n0 1  # e.f = 1\n1 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "lattice", "disc", "--file", str(path))
    assert code == 0
    assert json.loads(out)["result"] == {"order": 1, "factors": [], "generators": []}


def test_lattice_file_error_names_file_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("rank 2\n0 1\n\n1 x\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice", "disc", "--file", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "line 4: non-integer entry"


def test_lattice_disc_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(to_text(build_standard("U"))))
    code, out, _ = run_cli(capsys, "lattice", "disc", "--file", "-")
    assert code == 0
    assert json.loads(out)["result"] == {"order": 1, "factors": [], "generators": []}


def test_lattice_disc_stdin_rejects_a_malformed_header(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("rank 2 7\n0 1\n1 0\n"))
    code, out, err = run_cli(capsys, "lattice", "disc", "--file", "-")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "line 1: expected 'rank N' header"


@pytest.mark.parametrize(
    "text,args,error",
    [
        ("rank 2\n0 1_0\n1_0 0\n", ("lattice", "disc", "--file", "-"), "line 2: non-integer entry"),
        ("a1 1_8 0 0\n", ("enum", "unigonal", "--table", "-"), "line 1: malformed rational"),
        ("-1 2\n0 \u0662\n", ("siegel", "chi10", "--exponents", "-", "--index", "1,1,1"), "line 2: malformed integer"),
        ("a1 1e2 0 0\n", ("enum", "unigonal", "--table", "-"), "line 1: malformed rational"),
        ("0 0 0 1e0\n", ("siegel", "e4e6", "--e4", "-", "--index", "1,1,1"), "line 1: malformed entry"),
    ],
)
def test_stdin_readers_refuse_numbers_int_alone_would_read(capsys, monkeypatch, text, args, error):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": error, "exact": True}


def test_lattice_disc_file_with_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbfrank 2\n0 1\n1 0\n")
    code, out, err = run_cli(capsys, "lattice", "disc", "--file", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"] == {"order": 1, "factors": [], "generators": []}


def test_lattice_disc_stdin_with_byte_order_mark(capsys, monkeypatch):
    text = "\ufeff" + to_text(build_standard("LambdaG", g=3))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8"))
    code, out, err = run_cli(capsys, "lattice", "disc", "--file", "-")
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["factors"] == [4]


def test_lattice_complement(capsys):
    vec = "1,1" + ",0" * 20
    code, out, _ = run_cli(capsys, "lattice", "complement", "--standard", "K3", "--vector", vec)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["rank"] == 21
    assert result["determinant"] == -2
    assert len(result["embedding"]) == 21


def test_lattice_snf_matches_library(capsys):
    code, out, _ = run_cli(capsys, "lattice", "snf", "--standard", "E7neg")
    assert code == 0
    result = json.loads(out)["result"]
    d, u, v = smith_normal_form(build_standard("E7neg").gram)
    assert result["d"] == [list(r) for r in d]
    assert result["u"] == [list(r) for r in u]
    assert result["v"] == [list(r) for r in v]


def _snf_commands():
    for name in STANDARD_NAMES:
        if name in ("LambdaG", "LambdaA1"):
            for g in (3, 6, 7, 11):
                yield ("lattice", "snf", "--standard", name, "--g", str(g))
        else:
            yield ("lattice", "snf", "--standard", name)


# sha256 of the concatenated `lattice snf` stdout above: u and v depend on
# every step of the elimination, not only on the invariant factors
SNF_STDOUT_SHA256 = "bbba585d242cd44914737937e0256c1d7a504425e1343dba6dfc94cc7aa13a8d"


def test_lattice_snf_stdout_sha256(capsys):
    digest = hashlib.sha256()
    for args in _snf_commands():
        code, out, _ = run_cli(capsys, *args)
        assert code == 0, args
        digest.update(out.encode())
    assert digest.hexdigest() == SNF_STDOUT_SHA256


def _disc_pin_files():
    u, e7, e8 = (build_standard(name) for name in ("U", "E7neg", "E8neg"))
    yield direct_sum(e7, u)
    yield direct_sum(u, e7)
    yield IntegralLattice([[-4, 0, 0], [0, -4, 0], [0, 0, -2]])
    yield direct_sum(IntegralLattice([[-2]], ("w",)), e8)
    yield noncyclic_lattice()


def _disc_pin_commands(monkeypatch):
    # a file lattice's text is set as stdin just before its command runs
    for fmt in ("json", "tsv"):
        for name in ("LambdaG", "LambdaA1"):
            for g in (2, 3, 4, 5, 10**6):
                yield ("--format", fmt, "lattice", "disc", "--standard", name, "--g", str(g))
        for lat in _disc_pin_files():
            monkeypatch.setattr("sys.stdin", io.StringIO(to_text(lat)))
            yield ("--format", fmt, "lattice", "disc", "--file", "-")


# sha256 of the exit code and stdout of each `lattice disc` above, in order:
# generators, lifts and q-values of the standard lattices at small and huge g,
# and of file lattices whose summands the Smith normal form interleaves
DISC_STDOUT_SHA256 = "b634d3463ca613cc334ad84ca1f094456dcc12e8f5da3c4cc54e14052baf9c81"


def test_lattice_disc_stdout_sha256(capsys, monkeypatch):
    assert _exit_stdout_sha256(capsys, _disc_pin_commands(monkeypatch)) == (DISC_STDOUT_SHA256, {0})


def test_lattice_source_validation(capsys):
    code, _, _ = run_cli(capsys, "lattice", "disc", "--standard", "U", "--file", "x")
    assert code == 1
    code, _, _ = run_cli(capsys, "lattice", "disc")
    assert code == 1
    code, _, _ = run_cli(capsys, "lattice", "disc", "--standard", "LambdaG")
    assert code == 1
    code, _, _ = run_cli(capsys, "lattice", "disc", "--standard", "U", "--g", "6")
    assert code == 1


def test_ignored_flag_combinations_are_usage_errors(tmp_path, capsys):
    # --g means nothing to a lattice file, and --all nothing beside one
    # criterion: each combination is refused, not silently dropped
    path = tmp_path / "u.txt"
    path.write_text(to_text(build_standard("U")), encoding="utf-8")
    code, out, err = run_cli(capsys, "lattice", "disc", "--file", str(path), "--g", "7")
    assert (code, out) == (1, "") and "--file does not take --g" in err
    code, out, err = run_cli(capsys, "verify", "--all", "--criterion", "3")
    assert (code, out) == (1, "") and "--all and --criterion are exclusive" in err
    code, out, _ = run_cli(capsys, "lattice", "disc", "--file", str(path))
    assert code == 0 and json.loads(out)["inputs"] == {"file": str(path)}


_UNKNOWN_LOCUS = "argument --locus: unknown locus 'bogus'; valid: nodal, a11, a2"


@pytest.mark.parametrize(
    "args,leaf,message",
    [
        (("lattice", "disc", "--standard", "U", "--g", "3"), "lattice disc", "--standard U does not take --g"),
        (("lattice", "complement", "--standard", "U"), "lattice complement", "--vector is required at least once"),
        (("siegel", "fit", "--obs", "1,1,1=1", "--obs", "1,1,1=2"), "siegel fit", "duplicate observation index"),
        (("verify", "--all", "--criterion", "3"), "verify", "--all and --criterion are exclusive"),
        (("enum", "net", "--alpha2=1", "--alphac1=1", "--c1sq=1", "--c2=--"), "enum net", None),
        (("nl", "triangular", "--g", "6", "--d", "0", "--n", "-2", "--variant", "d-corrected"), "nl triangular",
         "unrecognized arguments: --variant d-corrected"),
        # an unknown locus is refused before the genus is looked at
        (("nl", "components", "--g", "3", "--locus", "bogus"), "nl components", _UNKNOWN_LOCUS),
        (("nl", "components", "--g", "2", "--locus", "bogus"), "nl components", _UNKNOWN_LOCUS),
        # a refused flag value keeps the message it had before the flags took
        # the number rule of the text inputs
        (("nl", "components", "--g", "six", "--locus", "a2"), "nl components", "argument --g: invalid int value: 'six'"),
        (("siegel", "predict", "--a", "x", "--b", "0", "--which", "cuspidal"), "siegel predict",
         "argument --a: malformed rational: 'x'"),
        (("lattice", "complement", "--standard", "U", "--vector", "1,"), "lattice complement",
         "argument --vector: vector must be comma-separated integers: '1,'"),
        (("siegel", "chi10", "--index", "1,1"), "siegel chi10", "argument --index: index must be k,l,m: '1,1'"),
        (("siegel", "chi10", "--index", "1,x,1"), "siegel chi10", "argument --index: index must be three integers: '1,x,1'"),
        (("siegel", "fit", "--obs", "1,1,1:5"), "siegel fit", "argument --obs: observation must be k,l,m=value: '1,1,1:5'"),
        (("siegel", "fit", "--obs", "1,1,1=1/0"), "siegel fit", "argument --obs: malformed observation value: '1/0'"),
        # Fraction() alone reads 1_632 from Python 3.11 on, and not on 3.10
        (("siegel", "fit", "--obs", "1,1,1=1_632", "--obs", "1,0,1=66960"), "siegel fit",
         "argument --obs: malformed observation value: '1_632'"),
    ],
)
def test_usage_errors_print_the_leaf_usage(capsys, args, leaf, message):
    # a usage error raised by a handler, like one argparse raises itself,
    # shows the usage of the command that was typed, not the root's
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: nlk3 {leaf} [-h]")
    if message is not None:
        assert err.rstrip("\n").endswith(f"nlk3 {leaf}: error: {message}")


# ---------------------------------------------------------------------------
# nl commands


def test_components_with_witnesses(capsys):
    code, out, _ = run_cli(capsys, "nl", "components", "--g", "6", "--locus", "nodal", "--witnesses")
    assert code == 0
    comps = json.loads(out)["result"]["components"]
    assert comps[0]["witness"]["expr"] == "e2 - f2"
    assert comps[1]["witness"]["expr"] == "w + 2*e2 + 2*f2"
    assert comps[1]["div"] == 2


def test_components_build_the_lattice_only_for_witnesses(monkeypatch, capsys):
    # only --witnesses reads the locus lattice, to describe each witness
    built = []
    locus_lattice = cli.orbits.locus_lattice

    def recorded(g, locus):
        built.append((g, locus))
        return locus_lattice(g, locus)

    monkeypatch.setattr(cli.orbits, "locus_lattice", recorded)
    assert run_cli(capsys, "nl", "components", "--g", "6", "--locus", "a2")[0] == 0
    assert built == []
    assert run_cli(capsys, "nl", "components", "--g", "6", "--locus", "a2", "--witnesses")[0] == 0
    assert built == [(6, "a2")]


def test_components_print_a_missing_witness_as_null(monkeypatch, capsys):
    monkeypatch.setattr(orbits, "find_witness", lambda l, cand: None)
    code, out, _ = run_cli(capsys, "nl", "components", "--g", "6", "--locus", "nodal", "--witnesses")
    assert code == 0
    assert [comp["witness"] for comp in json.loads(out)["result"]["components"]] == [None, None]
    assert '"witness": null' in out


def test_components_print_a_missing_witness_as_an_empty_tsv_cell(monkeypatch, capsys):
    monkeypatch.setattr(orbits, "find_witness", lambda l, cand: None)
    code, out, _ = run_cli(capsys, "--format", "tsv", "nl", "components", "--g", "6", "--locus", "nodal", "--witnesses")
    assert code == 0
    assert out == (
        "components\tclass=0,div=1,label=P_{0,-2},witness=,class=5,div=2,label=P_{g-1,(g-2)/2},witness=\n"
        "count\t2\n"
    )


def test_components_locus_alias_answers_as_typed(capsys):
    # an alias passes the --locus check, and the inputs echo it as typed
    code, out, _ = run_cli(capsys, "nl", "components", "--g", "6", "--locus", "node")
    assert code == 0
    record = json.loads(out)
    assert record["inputs"]["locus"] == "node"
    assert record["result"] == json.loads(run_cli(capsys, "nl", "components", "--g", "6", "--locus", "nodal")[1])["result"]


def test_components_huge_genus_is_cheap(capsys):
    # the Eichler scan visits only the 2-torsion of Z/(2g-2), not all of it
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "nl", "components", "--g", "1000002", "--locus", "nodal")
    elapsed = time.perf_counter() - start
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 2
    assert [c["label"] for c in result["components"]] == ["P_{0,-2}", "P_{g-1,(g-2)/2}"]
    assert [c["class"] for c in result["components"]] == [[0], [1000001]]
    assert elapsed < 1.0


def test_triangular_without_decomposition_prints_an_empty_result(capsys):
    # this (g, d, n) has no triangular decomposition
    args = ("nl", "triangular", "--g", "2", "--d", "-10", "--n", "-59")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert json.loads(out)["result"] == []
    # an empty list is no table, and TSV prints it as one empty line
    assert run_cli(capsys, "--format", "tsv", *args)[:2] == (0, "\n")


def test_triangular_huge_genus_is_cheap(capsys):
    # the solutions of x*d_i = d (mod 2g-2) are read off in closed form, not
    # found by a scan over all 2g-2 residues
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "nl", "triangular", "--g", "10000000", "--d", "0", "--n", "-2")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["result"] == [{"d": 0, "delta": -39999996, "g": 10000000, "mu": 2, "n": -2}]
    assert elapsed < 1.0


def test_triangular_trial_division_is_bounded(capsys):
    # |Delta| = 10^21 + 117 is prime: trial division would run to its cube
    # root, so it stops at TRIAL_DIVISION_MAX and exits 2
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "nl", "triangular", "--g", "3", "--d", "1", "--n", "-250000000000000000029")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        f"Delta = -1000000000000000000117: its square divisors need trial division past {nldiv.TRIAL_DIVISION_MAX}"
    )
    assert elapsed < 1.0
    # a larger |Delta| whose cofactor falls below p^3 early is still answered
    code, out, _ = run_cli(capsys, "nl", "triangular", "--g", "3", "--d", "0", "--n", str(-(2**60)))
    assert code == 0
    rows = json.loads(out)["result"]
    # Delta = -2^62: one representative family per square divisor 2^a
    assert {row["delta"] for row in rows} == {-(4**k) for k in range(32)}


@pytest.mark.parametrize(
    "g,d,n",
    [
        # the residue scan would take about 16 s in process
        (5 * 10**7, 0, -4 * (5 * 10**7 - 1)),
        # about 10^10 residues for one square divisor
        (10**30, -99999999999999999999, 0),
    ],
)
def test_triangular_residue_scan_is_bounded(g, d, n):
    # a subprocess with a timeout, so that an unbounded scan fails the test
    # instead of hanging it
    argv = ["nl", "triangular", "--g", str(g), "--d", str(d), "--n", str(n)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "nlk3.cli", *argv], capture_output=True, encoding="utf-8", timeout=10)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (2, "")
    delta = (2 * g - 2) * n - d * d
    error = json.loads(proc.stderr)["error"]
    assert error.startswith(f"Delta = {delta}: its decomposition scans ")
    assert error.endswith(f" residues, past {nldiv.RESIDUE_SCAN_MAX}")
    assert elapsed < 1.0


def _triangular_commands():
    for g in (*range(2, 31), 97, 1000):
        for d in sorted({0, 1, 2, g - 1, 2 * g - 3, 2 * g + 1, -1}):
            # n = 0 and n = 2 add keys with Delta >= 0, which exit 2
            for n in (-2, -6, -10, -30, 0, 2):
                yield ("nl", "triangular", "--g", str(g), "--d", str(d), "--n", str(n))


# sha256 of the exit code and stdout of each command above, in order
TRIANGULAR_STDOUT_SHA256 = "11b686c9dffc1eb528fc0d0fe4375d7f17a938bd3e3b8b1c2f2e098d5cbbb13f"


def test_triangular_stdout_sha256(capsys):
    assert _exit_stdout_sha256(capsys, _triangular_commands()) == (TRIANGULAR_STDOUT_SHA256, {0, 2})


def test_vector_data_rejects_nonnegative_discriminant(capsys):
    code, _, err = run_cli(capsys, "nl", "vector-data", "--g", "6", "--d", "10", "--n", "12")
    assert code == 2
    assert "error" in json.loads(err)


# ---------------------------------------------------------------------------
# enum commands


def test_enum_unigonal_custom_table(tmp_path, capsys):
    table = tmp_path / "t.tbl"
    table.write_text(
        "a1 18 0 0\na2 0 210 0\na3 0 0 -450\na1sq 0 36 0\na1a2 0 0 -600\ndelta 0 264 0\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "enum", "unigonal", "--table", str(table))
    assert code == 0
    assert json.loads(out)["result"] == {"a2": 816, "double_point": 68592, "a11": 33480}


def test_enum_unigonal_missing_file(capsys):
    code, _, err = run_cli(capsys, "enum", "unigonal", "--table", "/nonexistent/t.tbl")
    assert code == 2


# ---------------------------------------------------------------------------
# siegel commands


def test_siegel_fit(capsys):
    code, out, _ = run_cli(capsys, "siegel", "fit", "--obs", "1,1,1=1632", "--obs", "1,0,1=66960")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"a": 1, "b": -56160, "integral": True}


def test_siegel_fit_duplicate_observation(capsys):
    code, _, _ = run_cli(capsys, "siegel", "fit", "--obs", "1,1,1=1", "--obs", "1,1,1=2")
    assert code == 1


def test_siegel_fit_singular(capsys):
    code, _, err = run_cli(capsys, "siegel", "fit", "--obs", "0,0,0=1", "--obs", "0,0,1=-264")
    assert code == 2
    assert "singular" in json.loads(err)["error"]


def test_siegel_independence(capsys):
    code, out, _ = run_cli(capsys, "siegel", "independence", "--a", "1", "--b", "-56160")
    assert code == 0
    assert json.loads(out)["result"] == {"independent": True}
    # rational option values with a leading minus need the --flag=value form
    code, out, _ = run_cli(capsys, "siegel", "independence", "--a", "1", "--b=-481646592/9384")
    assert code == 0
    assert json.loads(out)["result"] == {"independent": False}


def test_siegel_chi10_exhausted_table(capsys):
    code, _, err = run_cli(capsys, "siegel", "chi10", "--trunc-k", "3", "--trunc-m", "3", "--index", "1,1,1")
    assert code == 2
    assert "exhausted" in json.loads(err)["error"]


def test_siegel_chi10_cost_guard(capsys):
    # the product would take minutes; the factor count x window estimate
    # rejects it at once, also where a million factors with r*t = 0 are
    # counted, not read
    windows = {
        (1, 400): "needs about 770074400 term products",
        (1, 1000000): "needs about 12000012999986000000 term products (2999998 factors x 4000007000000 window terms)",
        (1000000, 1): "needs about 12000012999986000000 term products (2999998 factors x 4000007000000 window terms)",
    }
    for (trunc_k, trunc_m), message in windows.items():
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "siegel", "chi10", "--trunc-k", str(trunc_k), "--trunc-m", str(trunc_m), "--index", "1,1,1"
        )
        elapsed = time.perf_counter() - start
        assert code == 2
        assert out == ""
        assert message in json.loads(err)["error"]
        assert elapsed < 0.5, (trunc_k, trunc_m)


@pytest.mark.parametrize("trunc_m", [60, 400, 1000000])
def test_siegel_chi10_exhausted_table_fails_before_any_product(capsys, trunc_m):
    # the missing c(11) is reported before the first product and before the
    # cost guard, though the (2, 400) and (2, 10^6) windows alone exceed its
    # limit; the r = 0 row, all c(-1) and c(0), is counted, not read
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "siegel", "chi10", "--trunc-k", "2", "--trunc-m", str(trunc_m), "--index", "1,1,1")
    elapsed = time.perf_counter() - start
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "coefficient table exhausted: c(11) is beyond the shipped support (max 8)"
    assert elapsed < 0.5


def test_siegel_e4e6_beyond_window(capsys):
    code, _, err = run_cli(capsys, "siegel", "e4e6", "--index", "1,2,1")
    assert code == 2
    assert "beyond" in json.loads(err)["error"]


def _window_indices(trunc_k, trunc_m, trunc_l):
    for k in range(trunc_k + 1):
        for m in range(trunc_m + 1):
            for l in range(-trunc_l, trunc_l + 1):
                yield f"{k},{l},{m}"


def _siegel_commands():
    # no chi10 window here reads the exponent c(8): the largest argument
    # 4rt - s^2 of a (trunc_k, trunc_m) product is at most 4
    for trunc_k, trunc_m in (*((1, m) for m in range(1, 7)), (2, 1), (2, 2), (3, 1)):
        for index in _window_indices(trunc_k, trunc_m, 2 * max(trunc_k, trunc_m) + 2):
            yield ("siegel", "chi10", "--trunc-k", str(trunc_k), "--trunc-m", str(trunc_m), "--index", index)
    for trunc_k in (0, 1):
        for trunc_m in (0, 1):
            for index in _window_indices(trunc_k, trunc_m, 1):
                yield ("siegel", "e4e6", "--trunc-k", str(trunc_k), "--trunc-m", str(trunc_m), "--index", index)
    for obs in (
        ("1,1,1=1632", "1,0,1=66960"),
        ("0,0,0=1", "1,1,1=57792", "1,0,1=-45360"),
        ("1,0,1=7", "1,1,1=1/3"),
    ):
        args = ("siegel", "fit", *(f"--obs={o}" for o in obs))
        yield args
        yield ("--format", "tsv", *args)
    for a, b in (("1", "-56160"), ("3", "7/2")):
        for which in ("cuspidal", "binodal", "hodge-disc", "hodge-sq"):
            yield ("siegel", "predict", f"--a={a}", f"--b={b}", "--which", which)
        yield ("--format", "tsv", "siegel", "predict", f"--a={a}", f"--b={b}", "--which", "binodal")
    for a, b in (("1", "-56160"), ("1", "-481646592/9384")):
        yield ("siegel", "independence", f"--a={a}", f"--b={b}")
        yield ("--format", "tsv", "siegel", "independence", f"--a={a}", f"--b={b}")
    yield ("--format", "tsv", "siegel", "chi10", "--index", "1,1,2")
    yield ("--format", "tsv", "siegel", "e4e6", "--index", "1,0,1")


# sha256 of the exit code and stdout of each command above, in order
SIEGEL_STDOUT_SHA256 = "8a3a9b9af4f85afd0111708011e34b445d36d1678fb1dd81e395df9e47d4dc6b"


def test_siegel_stdout_sha256(capsys):
    assert _exit_stdout_sha256(capsys, _siegel_commands()) == (SIEGEL_STDOUT_SHA256, {0})


@pytest.mark.parametrize(
    "flag,table,edit,command",
    [
        ("--exponents", "chi10_exponents.tbl", ("0 20", "0 22"), ("siegel", "chi10", "--index", "1,0,2")),
        ("--e4", "e4.tbl", ("1 0 1 30240", "1 0 1 30241"), ("siegel", "e4e6", "--index", "1,0,1")),
        ("--e6", "e6.tbl", ("1 0 1 166320", "1 0 1 166322"), ("siegel", "e4e6", "--index", "1,0,1")),
        ("--e4", "e4.tbl", ("1 0 1 30240", "1 0 1 30241"), ("siegel", "fit", "--obs", "1,1,1=1632", "--obs", "1,0,1=66960")),
        ("--e6", "e6.tbl", ("1 0 1 166320", "1 0 1 166322"), ("siegel", "predict", "--a", "1", "--b=-56160", "--which", "binodal")),
        ("--e4", "e4.tbl", ("1 0 1 30240", "1 0 1 30241"), ("siegel", "independence", "--a", "1", "--b=-481646592/9384")),
    ],
)
def test_siegel_table_flags_read_the_given_file(tmp_path, capsys, flag, table, edit, command):
    shipped = (resources.files("nlk3") / "data" / table).read_text(encoding="utf-8")
    old, new = edit
    assert shipped.count(f"\n{old}\n") == 1
    copy, edited = tmp_path / "copy.tbl", tmp_path / "edited.tbl"
    copy.write_text(shipped, encoding="utf-8")
    edited.write_text(shipped.replace(f"\n{old}\n", f"\n{new}\n"), encoding="utf-8")
    default = run_cli(capsys, *command)
    assert default[0] == 0
    assert run_cli(capsys, *command, flag, str(copy)) == default
    code, out, _ = run_cli(capsys, *command, flag, str(edited))
    assert code == 0
    assert json.loads(out)["result"] != json.loads(default[1])["result"]


# ---------------------------------------------------------------------------
# usage errors


@pytest.mark.parametrize(
    "args",
    [
        ("bogus",),
        ("nl", "components", "--locus", "a2"),
        ("siegel", "fit", "--obs", "1,1=5"),
        ("siegel", "fit", "--obs", "1,1,1:5"),
        ("siegel", "predict", "--a", "1", "--b", "0", "--which", "nodal"),
        ("siegel", "predict", "--a", "x", "--b", "0", "--which", "cuspidal"),
        ("nl", "components", "--g", "six", "--locus", "a2"),
        (),
    ],
)
def test_usage_errors_exit_one(capsys, args):
    code = cli.main(list(args))
    capsys.readouterr()
    assert code == 1


def _parsers(parser, words=()):
    """(command words, parser) of parser and of every parser below it."""
    yield words, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, (*words, name))


def _typed_flags():
    """(leaf words, flag, type) of every option with a type, in the tree that
    each command builds for itself."""
    for command in cli._COMMANDS:
        for words, parser in _parsers(cli._build_parser(command)):
            if words[:1] == (command,):
                for action in parser._actions:
                    if action.type is not None:
                        yield words, action.option_strings[0], action.type


# a typed number in each place a flag's value may hold one: alone, in a
# comma list, as an index entry, and as an observation's value
_SHAPES = ("{}", "1,{}", "{},1,1", "1,1,1={}", "1,{},1=1")
_TYPED = list(_typed_flags())
_TYPED_IDS = [f"{' '.join(words)} {flag}" for words, flag, _ in _TYPED]


@pytest.mark.parametrize(
    "value", ["1_0", "\u0666", "\uff11", "1e2", " 3"], ids=["underscore", "arabic-indic", "fullwidth", "exponent", "padded"]
)
@pytest.mark.parametrize("words,flag,parse", _TYPED, ids=_TYPED_IDS)
def test_every_flag_refuses_numbers_int_alone_would_read(capsys, words, flag, parse, value):
    # the flag values follow the number rule of the text inputs: each shape
    # is a usage error that names the flag
    for shape in _SHAPES:
        code, out, err = run_cli(capsys, *words, f"{flag}={shape.format(value)}")
        assert (code, out) == (1, ""), shape
        assert err.splitlines()[-1].startswith(f"nlk3 {' '.join(words)}: error: argument {flag}: "), shape


def _numbers(value):
    return [n for v in value for n in _numbers(v)] if isinstance(value, tuple) else [value]


@pytest.mark.parametrize("words,flag,parse", _TYPED, ids=_TYPED_IDS)
def test_every_flag_still_reads_signed_numbers(words, flag, parse):
    # wherever a flag reads 3 and 2, it reads +3 as 3 and -2 as -2
    for shape in _SHAPES:
        try:
            three, two = (_numbers(parse(shape.format(n))) for n in "32")
        except (ValueError, argparse.ArgumentTypeError):  # argparse's own int type raises ValueError
            continue
        assert _numbers(parse(shape.format("+3"))) == three, shape
        assert _numbers(parse(shape.format("-2"))) == [-n if n == 2 else n for n in two], shape


def test_no_flag_parses_with_int_or_fraction():
    types = {action.type for command in cli._COMMANDS for _, p in _parsers(cli._build_parser(command)) for action in p._actions}
    assert not types & {int, Fraction}
    # a flag of each kind is covered above: int, rational, list, index, observation
    assert {"--g", "--a", "--vector", "--index", "--obs"} <= {flag for _, flag, _ in _typed_flags()}


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all")
    assert code == 0
    rows = json.loads(out)["result"]
    assert len(rows) == 9
    assert all(row["pass"] for row in rows)
    assert [row["criterion"] for row in rows] == list(range(1, 10))


def test_verify_single_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criterion", "5")
    assert code == 0
    rows = json.loads(out)["result"]
    assert len(rows) == 1
    assert rows[0]["name"] == "weight-10 fit and cross-pipeline agreement"


def test_verify_reports_expected_and_actual(capsys):
    _, out, _ = run_cli(capsys, "verify", "--criterion", "1")
    row = json.loads(out)["result"][0]
    assert row["expected"] == row["actual"] == "216,1914;864,7656"


def test_verify_mismatch_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CRITERIA", (lambda table, basis: ("rigged", 1, 2),))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    row = json.loads(out)["result"][0]
    assert row["pass"] is False


def test_verify_fit_criterion_parses_each_siegel_table_once(capsys, monkeypatch):
    parsed = Counter()
    for name in ("loads_half_integral", "loads_coeff_table"):
        real = getattr(siegel, name)
        monkeypatch.setattr(siegel, name, lambda text, real=real, name=name: parsed.update([name]) or real(text))
    code, out, _ = run_cli(capsys, "verify", "--criterion", "5")
    assert code == 0
    assert json.loads(out)["result"][0]["pass"] is True
    assert parsed == {"loads_half_integral": 1, "loads_coeff_table": 2}


def test_verify_reads_each_shipped_table_once(capsys, monkeypatch):
    read = Counter()
    for module in (chern, siegel):
        real = module.load_shipped
        monkeypatch.setattr(module, "load_shipped", lambda name, parse, real=real: read.update([name]) or real(name, parse))
    code, _, _ = run_cli(capsys, "verify", "--all")
    assert code == 0
    assert read == {"chi10_exponents.tbl": 1, "e4.tbl": 1, "e6.tbl": 1, "unigonal.tbl": 1}


def test_cuspidal_class_is_formed_once_per_count(capsys, monkeypatch):
    # unigonal_counts forms C once for both degrees; criterion 2 and enum
    # unigonal print 2*(a2 + a11) from their one unigonal_counts call;
    # criterion 5 counts on its own, since criteria also run one at a time
    calls = Counter()
    real = chern._cuspidal_class
    monkeypatch.setattr(chern, "_cuspidal_class", lambda table: calls.update(["C"]) or real(table))
    for args, want in ((("verify", "--criterion", "2"), 1), (("enum", "unigonal"), 1), (("verify", "--all"), 2)):
        calls.clear()
        assert run_cli(capsys, *args)[0] == 0
        assert calls["C"] == want, args


def _wrap(monkeypatch, owner, name, when, fault):
    # owner.name answers as before, except on the arguments that `when`
    # accepts: there it returns fault(the real answer, *arguments)
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        return fault(out, *args) if when(*args) else out

    monkeypatch.setattr(owner, name, wrapped)


def _edited_e4(edits):
    # the shipped basis with E4's coefficients at some indices replaced
    e4 = siegel.e4_series()
    return siegel.Weight10Basis(e4=siegel.GenusTwoSeries({**e4.coeffs, **edits}, e4.trunc_k, e4.trunc_m, e4.trunc_l))


def _swap_group(monkeypatch, name):
    # the group of name at g = 11 is that of g = 12
    _wrap(
        monkeypatch, lattice, "discriminant_group",
        lambda l: l == build_standard(name, g=11),
        lambda grp, l: lattice.discriminant_group(build_standard(name, g=12)),
    )


def _flip_on_every_other_call(monkeypatch, owner, name, when, flip):
    calls = itertools.count()
    _wrap(monkeypatch, owner, name, when, lambda out, *args: flip(out) if next(calls) % 2 else out)


def _asymmetric(m):
    # the Gram matrices the library reduces are symmetric; criterion 9's
    # random matrices are not
    return [list(row) for row in m] != [list(col) for col in zip(*m)]


def _bump_202(series):
    return siegel.GenusTwoSeries({**series.coeffs, (2, 0, 2): series.coefficient(2, 0, 2) + 1}, series.trunc_k, series.trunc_m, series.trunc_l)


# one fault per failure branch of criteria 6-9 and the message that branch
# writes.  A fault that patches the library must leave every other criterion
# passing; one that returns an edited basis is passed to the criterion itself
_FAULTS = {
    "count": (6, "g=50: (2, 2, 2) != (2, 2, 1)", lambda mp: _wrap(
        mp, orbits, "nl_component_count", lambda g, locus, *_: (g, locus) == (50, "a2"), lambda out, *_: (out[0] + 1, out[1]))),
    "no-witness": (6, "g=6 nodal P_{0,-2}: no witness", lambda mp: _wrap(
        mp, orbits, "find_witness", lambda *_: True, lambda *_: None)),
    "bad-witness": (6, "g=6 nodal P_{0,-2}: witness fails validation", lambda mp: _wrap(
        mp, orbits, "find_witness", lambda *_: True, lambda w, *_: lattice.LatticeVector([2 * c for c in w.coords]))),
    "LambdaG-factors": (7, "LambdaG(11): factors (22,)", lambda mp: _swap_group(mp, "LambdaG")),
    "LambdaA1-factors": (7, "LambdaA1(11): factors (2, 22)", lambda mp: _swap_group(mp, "LambdaA1")),
    "q(w2)": (7, "LambdaA1(11): q(w2) = -1/2", lambda mp: _wrap(
        mp, lattice.DiscriminantGroup, "quadratic", lambda grp, x: grp.factors == (2, 20), lambda q, *_: q + 1)),
    "rep-count": (8, "g=5: 2 reps vs 1 components", lambda mp: _wrap(
        mp, nldiv, "triangular_decomposition", lambda key: key == nldiv.NLKey(5, 0, -2), lambda reps, key: (*reps, *reps))),
    "rep-keys": (8, "g=5: keys [(1, -2)] != [(0, -2)]", lambda mp: _wrap(
        mp, nldiv, "triangular_decomposition", lambda key: key == nldiv.NLKey(5, 0, -2),
        lambda reps, key: [(nldiv.NLKey(5, rep.d + 1, rep.n), mu) for rep, mu in reps])),
    "support": (9, "support violation at (0, 1, 0)", lambda mp: _edited_e4({(0, 1, 0): 5})),
    "symmetry": (9, "symmetry violation at (1, 1, 1)", lambda mp: _edited_e4({(1, 1, 1): 1})),
    "smith-identity": (9, "smith identity violation", lambda mp: _wrap(
        mp, lattice, "smith_normal_form", _asymmetric, lambda out, m: (((out[0][0][0] + 1, *out[0][0][1:]), *out[0][1:]), *out[1:]))),
    "smith-unimodular": (9, "smith transform not unimodular", lambda mp: _wrap(
        mp, lattice, "smith_normal_form", _asymmetric, lambda out, m: (out[0], [[2 * a for a in out[1][0]], *out[1][1:]], out[2]))),
    "binomial-inverse": (9, "binomial inverse fails for c=57", lambda mp: _wrap(
        mp, siegel, "binomial_pow", lambda monomial, c, *_: c == 57, lambda *_: siegel.GenusTwoSeries({(0, 0, 0): 1}, 4, 4))),
    "component-determinism": (9, "component enumeration not deterministic", lambda mp: _flip_on_every_other_call(
        mp, orbits, "nl_component_count", lambda *args: args == (10, "a11"), lambda out: (out[0], out[1][::-1]))),
    "chi10-determinism": (9, "cusp form expansion not deterministic", lambda mp: _flip_on_every_other_call(
        mp, siegel, "chi10", lambda table, *window: window == (2, 2), _bump_202)),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_verify_reports_each_failure_branch(capsys, monkeypatch, fault):
    criterion, message, inject = _FAULTS[fault]
    basis = inject(monkeypatch)
    if basis is None:
        code, out, _ = run_cli(capsys, "verify", "--all")
        rows = json.loads(out)["result"]
        assert code == 3
        assert [row["criterion"] for row in rows if not row["pass"]] == [criterion]
        actual = rows[criterion - 1]["actual"]
    else:
        _, want, actual = cli.CRITERIA[criterion - 1](chern.default_unigonal_table(), basis)
        assert actual != want
    assert message in actual.split("; ")


@pytest.mark.parametrize(
    "module,loader,parse,table,line,edited",
    [
        (chern, "default_unigonal_table", chern.loads_unigonal, "unigonal.tbl", "a1a2 0 0 -600", "a1a2 0 0 -602"),
        (siegel, "e6_series", siegel.loads_coeff_table, "e6.tbl", "1 1 1 44352", "1 1 1 44353"),
    ],
    ids=["unigonal", "e6"],
)
def test_verify_fit_criterion_fails_on_an_edited_table(capsys, monkeypatch, module, loader, parse, table, line, edited):
    # criterion 5 fits twice the unigonal counts against E4E6 and chi10, so
    # an edit on either side moves the fit itself off (1, -56160)
    text = (Path(nlk3.__file__).parent / "data" / table).read_text(encoding="utf-8")
    assert line in text
    monkeypatch.setattr(module, loader, lambda: parse(text.replace(line, edited)))
    code, out, _ = run_cli(capsys, "verify", "--criterion", "5")
    row = json.loads(out)["result"][0]
    assert (code, row["pass"]) == (3, False)
    assert row["expected"].split(";")[0] == "1,-56160" != row["actual"].split(";")[0]


@pytest.mark.parametrize(
    "command,tables",
    [("chi10", ["chi10_exponents.tbl"]), ("e4e6", ["e4.tbl", "e6.tbl"])],
)
def test_siegel_coefficient_commands_read_only_their_own_tables(capsys, monkeypatch, command, tables):
    read = []
    real = siegel.load_shipped
    monkeypatch.setattr(siegel, "load_shipped", lambda name, parse: read.append(name) or real(name, parse))
    code, out, _ = run_cli(capsys, "siegel", command, "--index", "1,1,1")
    assert code == 0
    assert json.loads(out)["result"]["index"] == [1, 1, 1]
    assert read == tables


def test_verify_criterion_out_of_range(capsys):
    code, _, _ = run_cli(capsys, "verify", "--criterion", "12")
    assert code == 1


# ---------------------------------------------------------------------------
# installed entry point


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "nlk3.cli", "enum", "net", "--alpha2", "32", "--alphac1", "-16", "--c1sq", "8", "--c2", "4"],
        capture_output=True,
        encoding="utf-8",
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["a2"] == 216


def test_parser_is_reused_across_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    for command in cli._COMMANDS:
        assert cli._build_parser(command) is cli._build_parser(command) is not cli._build_parser()
    args = ("nl", "components", "--g", "6", "--locus", "a11")
    first = run_cli(capsys, *args)
    assert run_cli(capsys, "nl", "components", "--g", "6")[0] == 1  # usage error in between
    assert run_cli(capsys, "lattice", "disc", "--standard", "U", "--format", "tsv")[0] == 0
    assert run_cli(capsys, *args) == first


def _parsers_built(monkeypatch, capsys, *args):
    """The prog of each ArgumentParser that a run of the command constructs
    (None for the prog-less parents), from an empty parser cache."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *a, **kw):
        built.append(kw.get("prog"))
        init(self, *a, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(capsys, *args)[0] == 0
    return built


def test_a_command_builds_only_its_branch(monkeypatch, capsys):
    cli._build_parser.cache_clear()
    try:
        # the root, the common parent and the five top-level parsers; the
        # whole tree is 25 parsers
        assert len(_parsers_built(monkeypatch, capsys, "verify", "--all")) == 7
        nl = _parsers_built(monkeypatch, capsys, "nl", "components", "--g", "6", "--locus", "a11")
        assert "nlk3 nl components" in nl and "nlk3 siegel" in nl
        assert not [prog for prog in nl if prog and prog.startswith(("nlk3 siegel ", "nlk3 lattice "))]
        # the next call of each command reuses its tree
        assert _parsers_built(monkeypatch, capsys, "verify", "--criterion", "1") == []
        assert _parsers_built(monkeypatch, capsys, "nl", "components", "--g", "7", "--locus", "a2") == []
    finally:
        cli._build_parser.cache_clear()


def lru_caches():
    """Each lru_cache of nlk3, keyed by the cache, under the first
    `module.name` that holds it (orbits imports lattice's discriminant_group);
    CI's "Code lines" step prints them."""
    caches = {}
    for info in pkgutil.iter_modules(nlk3.__path__):
        module = import_module(f"nlk3.{info.name}")
        for owner in (module, *(c for c in vars(module).values() if isinstance(c, type))):
            for name, obj in vars(owner).items():
                if hasattr(obj, "cache_parameters"):
                    caches.setdefault(obj, f"{info.name}.{name}")
    return caches


def test_caches_are_bounded():
    caches = lru_caches()
    assert {"lattice.discriminant_group", "orbits._class_table", "cli._build_parser"} <= set(caches.values())
    assert all(cache.cache_parameters()["maxsize"] is not None for cache in caches), caches


# sha256 of ",".join(nlk3.__all__): the 55 imported public names in import
# order, then __version__
ALL_SHA256 = "9567485348f90042c34bb1f92950074677b671aa5c2f2e8ca508797e5e8555a5"


def test_public_api_is_pinned_and_resolves():
    assert hashlib.sha256(",".join(nlk3.__all__).encode()).hexdigest() == ALL_SHA256
    assert len(nlk3.__all__) == len(set(nlk3.__all__)) == 56 and nlk3.__all__[-1] == "__version__"
    for name in nlk3.__all__:
        assert getattr(nlk3, name) is not None, name
    namespace = {}
    exec("from nlk3 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(nlk3.__all__)


def _names_read(paths):
    """Every name and attribute name that these modules read."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    return used


def _package_names_read():
    return _names_read(path for path in Path(nlk3.__file__).parent.glob("*.py") if path.name != "__init__.py")


def test_every_public_name_is_used_by_the_package():
    # each exported name is read somewhere in nlk3's own modules (the CLI,
    # the criteria, or another module), so none is kept for its own sake
    assert set(nlk3.__all__) - {"__version__"} - _package_names_read() == set()


# the discriminant-group methods that no route calls: each is the reference
# that tests check a fast route against
REFERENCE_ONLY = {"elements", "lift", "quadratic_is", "bilinear"}


def test_every_discriminant_method_is_used_by_the_package_or_is_a_reference():
    members = {
        name
        for cls in (lattice.DiscElement, lattice.DiscriminantGroup)
        for name, value in vars(cls).items()
        if not name.startswith("_") and (callable(value) or isinstance(value, property))
    }
    assert REFERENCE_ONLY <= members
    assert members - REFERENCE_ONLY - _package_names_read() == set()
    assert REFERENCE_ONLY - _names_read(Path(__file__).parent.glob("*.py")) == set()


# ---------------------------------------------------------------------------
# stdout contract


def _contract_commands():
    yield ("verify", "--all")
    for g in [*range(3, 61), 97, 100, 1000]:
        for locus in ("nodal", "a11", "a2"):
            for witnesses in ((), ("--witnesses",)):
                for fmt in ("json", "tsv"):
                    yield ("--format", fmt, "nl", "components", "--g", str(g), "--locus", locus, *witnesses)
    for name in ("LambdaG", "LambdaA1"):
        for g in (3, 6, 7, 11):
            yield ("lattice", "disc", "--standard", name, "--g", str(g))
    for name in ("E7neg", "U", "K3"):
        yield ("lattice", "disc", "--standard", name)


# sha256 of the concatenated stdout of the commands above; any change to a
# printed byte (counts, classes, witnesses, q-values, verify rows) moves it
STDOUT_SHA256 = "55c30877a27c23c4a184862c342f306f5280d803e814cc4c4831bb5a98e4444c"


def test_stdout_contract_sha256(capsys):
    digest = hashlib.sha256()
    for args in _contract_commands():
        code, out, _ = run_cli(capsys, *args)
        assert code == 0, args
        digest.update(out.encode())
    assert digest.hexdigest() == STDOUT_SHA256


_LEAF_COMMANDS = (
    ("lattice", "disc"),
    ("lattice", "complement"),
    ("lattice", "snf"),
    ("nl", "components"),
    ("nl", "triangular"),
    ("nl", "vector-data"),
    ("enum", "net"),
    ("enum", "unigonal"),
    ("siegel", "chi10"),
    ("siegel", "e4e6"),
    ("siegel", "fit"),
    ("siegel", "predict"),
    ("siegel", "independence"),
    ("verify",),
)


def _surface_commands():
    for name, rank in (("K3", 22), ("Uperp", 20), ("LambdaG", 21)):
        source = ("--standard", name, *(("--g", "6") if name == "LambdaG" else ()))
        first = ",".join(["1", "1"] + ["0"] * (rank - 2))
        second = ",".join(["0"] * (rank - 2) + ["1", "-1"])
        yield ("lattice", "complement", *source, "--vector", first)
        yield ("lattice", "complement", *source, "--vector", first, "--vector", second)
    # n = 0 and n = 2 add keys with Delta >= 0, which exit 2
    for g in (2, 3, 6, 11):
        for d in (-3, 0, 1, 5):
            for n in (-4, -2, 0, 2):
                yield ("nl", "vector-data", "--g", str(g), "--d", str(d), "--n", str(n))
    for chern_data in (("32", "-16", "8", "4"), ("2", "-2", "1", "11")):
        alpha2, alphac1, c1sq, c2 = chern_data
        for degree in ("1", "4"):
            yield ("enum", "net", "--alpha2", alpha2, "--alphac1", alphac1, "--c1sq", c1sq, "--c2", c2, "--degree", degree)
    yield ("enum", "unigonal")
    for fmt in ("json", "tsv"):
        for criterion in range(1, 10):
            yield ("--format", fmt, "verify", "--criterion", str(criterion))


def _exit_stdout_sha256(capsys, commands, stderr=False):
    """sha256 of the exit code and stdout of each command, in order (and its
    stderr, with stderr=True), and the set of exit codes."""
    digest = hashlib.sha256()
    codes = set()
    for args in commands:
        code, out, err = run_cli(capsys, *args)
        codes.add(code)
        digest.update(f"{code}\n".encode())
        digest.update(out.encode())
        if stderr:
            digest.update(err.encode())
    return digest.hexdigest(), codes


# the digest of the commands above; their output does not depend on the
# Python version
SURFACE_STDOUT_SHA256 = "d523553580d3604a1985469acf29ccd0b690ab6ed56f799c21590b211422f1cd"


def test_surface_stdout_sha256(capsys):
    assert _exit_stdout_sha256(capsys, _surface_commands()) == (SURFACE_STDOUT_SHA256, {0, 2})


# the same digest over `<leaf> --help` for every leaf command, with
# COLUMNS=80 fixing the width; argparse wraps long usage lines differently
# from Python 3.13 on (`enum net` and `siegel predict` here), so the pin is
# kept per minor version, and a new version needs its own entry
_HELP_3_10 = "18befe32ef1b87f061c0a16d2c5b187a600c5abe3c9b1e30a08d1736f38de626"
HELP_STDOUT_SHA256 = {
    (3, 10): _HELP_3_10,
    (3, 11): _HELP_3_10,
    (3, 12): _HELP_3_10,
    (3, 13): "aaeafb75d7aff9690e431fa8c01f86805255f76762c127772d92abb443ad6456",
}


def test_help_stdout_sha256(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    help_commands = ((*leaf, "--help") for leaf in _LEAF_COMMANDS)
    assert _exit_stdout_sha256(capsys, help_commands) == (HELP_STDOUT_SHA256[sys.version_info[:2]], {0})


# the root's and each group's --help, and the usage errors that the root or a
# group reports, with three commands whose first token is not the command;
# each digest is over exit code, stdout and stderr with COLUMNS=80, kept per
# minor version like the leaf pin, though all four versions agree today
_GROUP_HELP = "591dd9738d1346c1907c8f2402d1ae870f6992d0fd84485839f91447e2e76af0"
GROUP_HELP_SHA256 = {(3, 10): _GROUP_HELP, (3, 11): _GROUP_HELP, (3, 12): _GROUP_HELP, (3, 13): _GROUP_HELP}
_USAGE = "2e064d9d7dad3c7f4743ee55ee09a1dbe494531a4c73c6183655dd51f986cb8d"
USAGE_SHA256 = {(3, 10): _USAGE, (3, 11): _USAGE, (3, 12): _USAGE, (3, 13): _USAGE}


def test_root_and_group_help_sha256(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    commands = (("--help",), *((group, "--help") for group in ("lattice", "nl", "enum", "siegel")))
    assert _exit_stdout_sha256(capsys, commands, stderr=True) == (GROUP_HELP_SHA256[sys.version_info[:2]], {0})


def test_root_and_group_usage_sha256(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    commands = (
        (),
        ("bogus",),
        ("nl",),
        ("nl", "bogus"),
        # "verify" is the first command-named token, but the root rejects it
        # as a --format value before any group is read
        ("--format", "verify", "nl", "components"),
        ("-h", "verify"),
        ("--format", "tsv", "verify", "--criterion", "3"),
    )
    assert _exit_stdout_sha256(capsys, commands, stderr=True) == (USAGE_SHA256[sys.version_info[:2]], {0, 1})
