"""Tests of the benchmark itself: seeded inputs repeat, and every answer check
rejects a planted wrong answer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nlk3 import lattice, siegel  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return workloads.References()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    json.dumps(inputs.generate(workload, 7))


@pytest.mark.parametrize("workload", ["genus-sweep", "witness-search", "modular-fit"])
def test_inputs_differ_between_seeds(workload):
    assert inputs.generate(workload, 1) != inputs.generate(workload, 2)


def test_genus_sweep_inputs_cover_the_range():
    queries = inputs.generate("genus-sweep", 3)
    genera = [q["g"] for q in queries]
    assert len(queries) == inputs.GENUS_QUERIES
    assert min(genera) >= 3 and max(genera) <= inputs.GENUS_MAX
    assert max(genera) > inputs.GENUS_MAX // 2
    assert {q["locus"] for q in queries} == set(inputs.LOCI)
    assert sum(q["witnesses"] for q in queries) == -(-inputs.GENUS_QUERIES // 4)


def test_modular_fit_observations_come_from_the_literals():
    queries = inputs.generate("modular-fit", 5)
    assert (queries[0]["a"], queries[0]["b"]) == inputs.PAPER_FIT
    assert queries[0]["obs"] == [[[1, 0, 1], 66960], [[1, 1, 1], 1632]]
    assert all((q["a"], q["b"]) != (0, 0) for q in queries)


def test_jacobi_reference_matches_the_acceptance_literals(refs):
    phi = refs.phi
    assert (phi[(1, 1)], phi[(1, 0)], phi[(2, 1)]) == (1, -2, -16)


def _failures(answers):
    return {what: why for what, why in answers if why is not None}


def test_fit_check_rejects_a_wrong_b(refs):
    query = inputs.generate("modular-fit", 1)[1]
    fit, predictions, independent, counts, windows = workloads.run_modular_fit(query)
    windows = {w: s for w, s in windows.items() if w not in ((2, 3), (3, 2))}
    assert _failures(workloads.check_modular_fit(query, (fit, predictions, independent, counts, windows), refs)) == {}
    wrong = siegel.Weight10Fit(query["a"], query["b"] + 1)
    failed = _failures(workloads.check_modular_fit(query, (wrong, predictions, independent, counts, windows), refs))
    assert list(failed) == ["fit"]


def test_chi10_check_rejects_a_coefficient_off_by_two(refs):
    query = inputs.generate("modular-fit", 1)[0]
    fit, predictions, independent, counts, windows = workloads.run_modular_fit(query)
    series = windows[(2, 2)]
    coeffs = dict(series.coeffs)
    coeffs[(2, 1, 2)] = coeffs.get((2, 1, 2), 0) + 2
    windows = {(2, 2): series}
    assert _failures(workloads.check_modular_fit(query, (fit, predictions, independent, counts, windows), refs)) == {}
    windows = {(2, 2): siegel.GenusTwoSeries(coeffs, 2, 2, series.trunc_l)}
    failed = _failures(workloads.check_modular_fit(query, (fit, predictions, independent, counts, windows), refs))
    assert list(failed) == ["chi10 window (2,2)"]


def test_chi10_check_flags_the_windows_that_read_c8(refs):
    query = inputs.generate("modular-fit", 1)[0]
    failed = _failures(workloads.check_modular_fit(query, workloads.run_modular_fit(query), refs))
    assert sorted(failed) == ["chi10 window (2,3)", "chi10 window (3,2)"]
    assert "a(2,0,3) = -1460, Maass lift -1464" in failed["chi10 window (2,3)"]


def test_count_check_rejects_a_count_off_by_one(refs):
    query = {"g": 6, "locus": "nodal", "witnesses": True}
    count, comps, reps = workloads.run_genus_sweep(query)
    assert _failures(workloads.check_genus_sweep(query, (count, comps, reps), refs)) == {}
    failed = _failures(workloads.check_genus_sweep(query, (count + 1, comps, reps), refs))
    assert list(failed) == ["component count"]


def test_witness_check_rejects_a_wrong_norm(refs):
    query = {"g": 6, "locus": "nodal", "witnesses": True}
    _, comps, _ = workloads.run_genus_sweep(query)
    cand = comps[0].candidate
    data = refs.groups.get("LambdaG", 6)
    assert workloads.witness_failure(data, cand, cand.witness.coords) is None
    labels = lattice.build_standard("LambdaG", g=6).labels
    planted = [1 if label in ("e2", "f2") else 0 for label in labels]  # e2 + f2 has norm 2
    assert workloads.witness_failure(data, cand, planted) == f"norm 2, want {cand.norm}"


def test_candidate_check_rejects_a_missing_candidate(refs):
    query = {"lattice": "LambdaG", "g": 6, "norm": -10}
    cands, witnesses = workloads.run_witness_search(query)
    assert _failures(workloads.check_witness_search(query, (cands, witnesses), refs)) == {}
    failed = _failures(workloads.check_witness_search(query, (cands[:-1], witnesses[:-1]), refs))
    assert list(failed) == ["candidates"]


def test_reproduce_check_rejects_a_wrong_row(refs):
    rows = [{"criterion": n, "actual": a, "pass": True} for n, a in workloads.VERIFY_ROWS.items()]
    good = json.dumps({"result": rows})
    assert _failures(workloads.check_reproduce({}, (0, good), refs)) == {}
    rows[0]["actual"] = "217,1914;864,7656"
    failed = _failures(workloads.check_reproduce({}, (0, json.dumps({"result": rows})), refs))
    assert list(failed) == ["criterion 1"]


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    pct, value, beyond = run.tail(list(range(1, 101)))
    assert (pct, value, beyond) == (90, 90, 10)
    pct, value, beyond = run.tail(list(range(1, 49)))
    assert beyond >= 10 and value == sorted(range(1, 49))[48 - beyond - 1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
