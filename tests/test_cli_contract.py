"""The CLI contract on generated argv: every call ends in a known exit code
with the output that code promises, and none escapes `main` or runs long.

The argv come from the subcommand grammar below: each leaf with a random
subset of its flags, in random order, each given a small, negative, huge,
float or garbage value.
"""

import contextlib
import io
import json
import time
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from nlk3 import cli, orbits, siegel
from nlk3.lattice import STANDARD_NAMES

# per call, in process; 40,000 random argv of this grammar each took under
# 0.7 s (Python 3.11, 2 vCPUs)
WALL_BUDGET_S = 5.0

_DATA = resources.files("nlk3") / "data"
_GARBAGE = st.sampled_from(["", "x", "1.5", "-0.5", "1e3", "nan", "inf", "1/0", "1,2", "--", "٣", " 7", "1_0", "１", "1e999999999"])
_INT = st.one_of(
    st.integers(-8, 12).map(str),
    st.sampled_from(["-30", "97", "1000", "1000000", str(10**12), str(10**30), str(-(10**30))]),
)
_VALUE = st.one_of(_INT, _INT, _GARBAGE)
_RATIONAL = st.one_of(_VALUE, st.sampled_from(["1/2", "-56160", "-481646592/9384", "3/0"]))
_INDEX = st.one_of(st.tuples(_VALUE, _VALUE, _VALUE).map(",".join), _GARBAGE)
_OBS = st.one_of(st.tuples(_INDEX, _RATIONAL).map("=".join), _GARBAGE)
_VECTOR = st.one_of(
    st.lists(st.sampled_from(["0", "0", "1", "-1", "2", str(10**30)]), min_size=1, max_size=23).map(",".join),
    _GARBAGE,
)
# the shipped tables, each the right format for some flags and the wrong one
# for the rest, and a missing file
_TABLE_NAMES = ("e4.tbl", "e6.tbl", "chi10_exponents.tbl", "unigonal.tbl")
_FILE = st.sampled_from([*(str(_DATA / name) for name in _TABLE_NAMES), "/nonexistent/x"])
_STANDARD = st.one_of(st.sampled_from(STANDARD_NAMES), _GARBAGE)

# leaf -> flag -> strategy of its value (None: a switch); a flag listed under
# _REPEATED may be given more than once
_SOURCE = {"--file": _FILE, "--standard": _STANDARD, "--g": _VALUE}
_TABLES = {"--exponents": _FILE, "--e4": _FILE, "--e6": _FILE}
_KEY = {"--g": _VALUE, "--d": _VALUE, "--n": _VALUE}
_GRAMMAR = {
    ("lattice", "disc"): _SOURCE,
    ("lattice", "complement"): {**_SOURCE, "--vector": _VECTOR},
    ("lattice", "snf"): _SOURCE,
    ("nl", "components"): {"--g": _VALUE, "--locus": st.one_of(st.sampled_from(orbits.LOCI), _GARBAGE), "--witnesses": None},
    ("nl", "triangular"): _KEY,
    ("nl", "vector-data"): _KEY,
    ("enum", "net"): {flag: _VALUE for flag in ("--alpha2", "--alphac1", "--c1sq", "--c2", "--degree")},
    ("enum", "unigonal"): {"--table": _FILE},
    ("siegel", "chi10"): {"--trunc-k": _VALUE, "--trunc-m": _VALUE, "--index": _INDEX, "--exponents": _FILE},
    ("siegel", "e4e6"): {"--trunc-k": _VALUE, "--trunc-m": _VALUE, "--index": _INDEX, "--e4": _FILE, "--e6": _FILE},
    ("siegel", "fit"): {"--obs": _OBS, **_TABLES},
    ("siegel", "predict"): {
        "--a": _RATIONAL,
        "--b": _RATIONAL,
        "--which": st.one_of(st.sampled_from(sorted(siegel.PREDICTIONS)), _GARBAGE),
        **_TABLES,
    },
    ("siegel", "independence"): {"--a": _RATIONAL, "--b": _RATIONAL, **_TABLES},
    ("verify",): {"--all": None, "--criterion": _VALUE},
}
_REPEATED = {"--vector", "--obs"}


@st.composite
def argvs(draw):
    leaf = draw(st.sampled_from(sorted(_GRAMMAR)))
    words = []
    for flag, value in _GRAMMAR[leaf].items():
        for _ in range(draw(st.integers(0, 3 if flag in _REPEATED else 1))):
            # "--flag=value" keeps a value such as "-1" or "--" from reading as a flag
            words.append([flag] if value is None else [f"{flag}={draw(value)}"])
    words = [word for group in draw(st.permutations(words)) for word in group]
    fmt = draw(st.sampled_from([(), ("--format", "tsv"), ("--format=json",), ("--format", "xml")]))
    stray = draw(st.sampled_from([(), (), ("--bogus",), ("7",)]))
    return [*fmt, *leaf, *words, *stray]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_call_keeps_the_cli_contract(argv):
    code, out, err, elapsed = _run(argv)
    assert elapsed < WALL_BUDGET_S, (argv, elapsed)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out + err, argv
    if code in (0, 3):
        # one record: a JSON line, or the TSV rendering of its result
        assert out.endswith("\n") and err == "", argv
        if "tsv" not in argv and "--format=tsv" not in argv:
            assert out.count("\n") == 1, argv
            assert set(json.loads(out)) == {"command", "inputs", "result", "exact"}, argv
    elif code == 1:
        assert out == "" and err.startswith("usage: nlk3"), argv
    else:
        assert out == "", argv
        assert err.count("\n") == 1 and set(json.loads(err)) == {"error", "exact"}, argv


# Fraction() reads a decimal exponent by building 10**exp in full, about
# 415 MB, before anything looks at the size; the number rule refuses
# the 'e' first
_HUGE = "1e999999999"


@pytest.mark.parametrize(
    "argv,stdin,code,error",
    [
        (["siegel", "predict", f"--a={_HUGE}", "--b=0", "--which", "cuspidal"], "", 1, None),
        (["siegel", "predict", "--a=0", f"--b={_HUGE}", "--which", "cuspidal"], "", 1, None),
        (["siegel", "fit", f"--obs=1,1,1={_HUGE}", "--obs=1,0,1=66960"], "", 1, None),
        (["enum", "unigonal", "--table", "-"], f"a1 {_HUGE} 0 0\n", 2, "line 1: malformed rational"),
        (["siegel", "e4e6", "--e4", "-", "--index", "1,1,1"], f"0 0 0 {_HUGE}\n", 2, "line 1: malformed entry"),
    ],
    ids=["a", "b", "obs", "unigonal", "eisenstein"],
)
def test_a_huge_decimal_exponent_fails_at_once(monkeypatch, argv, stdin, code, error):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    got, out, err, elapsed = _run(argv)
    assert (got, out) == (code, "") and elapsed < 1.0, (got, out, elapsed)
    if error:
        assert json.loads(err)["error"] == error
