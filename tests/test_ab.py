"""The summary that tools/ab.py writes from paired benchmark runs."""

import importlib.util
import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_summarize_takes_inclusive_quartiles():
    runs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert ab.summarize(runs, "s") == {"min": 1.0, "q1": 2.0, "median": 3.0, "q3": 4.0, "max": 5.0, "n": 5, "unit": "s", "runs": runs}
    # between order statistics: q1 = x1 + 0.25 * (x2 - x1) on sorted runs
    s = ab.summarize([1.0, 2.0, 3.0, 5.0], "ms")
    assert (s["q1"], s["median"], s["q3"]) == (1.75, 2.5, 3.5)
    assert ab.summarize([7.0], "MB") == {"min": 7.0, "q1": 7.0, "median": 7.0, "q3": 7.0, "max": 7.0, "n": 1, "unit": "MB", "runs": [7.0]}


def test_compare_counts_wins_in_each_metric_direction():
    metrics = {"wall_s": ("s", "lower"), "ops_per_s": ("1/s", "higher")}
    parent = {"wall_s": [10.0, 10.0, 12.0, 11.0], "ops_per_s": [100.0, 100.0, 80.0, 90.0]}
    change = {"wall_s": [9.0, 10.0, 13.0, 8.0], "ops_per_s": [110.0, 100.0, 70.0, 120.0]}
    out = ab.compare(parent, change, metrics)
    # a tie is no win
    assert out["wins"] == {"wall_s": "2/4", "ops_per_s": "2/4"}
    assert out["parent"]["wall_s"]["median"] == 10.5
    assert out["change"]["wall_s"]["median"] == 9.5
    assert out["parent_iqr"]["wall_s"] == pytest.approx(11.25 - 10.0)
    assert out["median_delta"] == {"wall_s": -1.0, "ops_per_s": 10.0}
    assert out["median_change_pct"]["wall_s"] == pytest.approx(-100 / 10.5)
    assert out["median_change_pct"]["ops_per_s"] == pytest.approx(10.0 / 0.95)
    assert out["change"]["ops_per_s"]["runs"] == change["ops_per_s"]


def test_compare_leaves_the_change_of_a_zero_median_undefined():
    out = ab.compare({"x": [0.0, 0.0]}, {"x": [1.0, 1.0]}, {"x": ("1", "lower")})
    assert out["median_change_pct"] == {"x": None}
    assert out["wins"] == {"x": "0/2"}


# the committed BENCH_*.json files, by what their summaries reproduce with
# ab.compare: only the per-side stats (its pairwise keys have another
# layout), nothing, since they took exclusive quartiles, or, for every other
# file, all of it
_ROOT = Path(__file__).resolve().parents[1]
_PER_SIDE = ("BENCH_record_base.json",)
_EXEMPT = ("BENCH_sparse_gram.json", "BENCH_summand_groups.json", "BENCH_validate_once.json")
_FULL = tuple(sorted({p.name for p in _ROOT.glob("BENCH_*.json")} - {*_PER_SIDE, *_EXEMPT}))
_STATS = ("min", "q1", "median", "q3", "max", "n")


def _recomputed(name):
    metrics = {m["name"]: (m["unit"], m["better"]) for m in json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    bench = json.loads((_ROOT / name).read_text(encoding="utf-8"))
    assert bench["workloads"]
    for workload, stored in bench["workloads"].items():
        runs = [{k: stored[side][k]["runs"] for k in metrics} for side in ab.SIDES]
        yield workload, stored, ab.compare(*runs, metrics), metrics


def test_every_committed_bench_file_is_classified():
    # the files of the older layouts are still there; every other file is
    # held to the full summary
    assert set(_PER_SIDE + _EXEMPT) <= {p.name for p in _ROOT.glob("BENCH_*.json")}
    assert _FULL


@pytest.mark.parametrize("name", _FULL + _PER_SIDE)
def test_committed_bench_summaries_reproduce(name):
    for workload, stored, out, metrics in _recomputed(name):
        for side in ab.SIDES:
            for metric in metrics:
                assert {s: out[side][metric][s] for s in _STATS} == pytest.approx({s: stored[side][metric][s] for s in _STATS}, rel=1e-12), (workload, side, metric)
        if name in _FULL:
            assert out["wins"] == stored["wins"], workload


@pytest.mark.parametrize("name", _EXEMPT)
def test_exempt_bench_files_took_exclusive_quartiles(name):
    for workload, stored, out, metrics in _recomputed(name):
        for side in ab.SIDES:
            for metric in metrics:
                q1, _, q3 = statistics.quantiles(stored[side][metric]["runs"], n=4, method="exclusive")
                assert (q1, q3) == pytest.approx((stored[side][metric]["q1"], stored[side][metric]["q3"]), rel=1e-12), (workload, side, metric)
                assert out[side][metric]["median"] == stored[side][metric]["median"]


def _git_stub(monkeypatch):
    # main asks git for the repository only to pass it to archive
    monkeypatch.setattr(ab, "subprocess", SimpleNamespace(run=lambda *args, **kwargs: SimpleNamespace(stdout="repo\n")))


def _copy_benchmark(repo, rev, dest):
    """A stand-in for ab.archive: a copy that holds only BENCHMARK.json."""
    Path(dest).mkdir(parents=True)
    (Path(dest) / "BENCHMARK.json").write_text((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"), encoding="utf-8")
    return rev


def test_both_sides_of_a_seed_run_from_paths_of_one_length(tmp_path, monkeypatch):
    # each side is copied twice, and the seeds alternate the two copies, so a
    # peak RSS that moves with the checkout's path length falls on both sides
    metrics = [m["name"] for m in json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]]
    made, ran = [], []

    def archive(repo, rev, dest):
        made.append(dest)
        return _copy_benchmark(repo, rev, dest)

    def bench(copy, workload, seed, seconds, trace):
        ran.append((copy, seed, trace))
        return {"metrics": {m: {"value": 1.0} for m in metrics}, "failed": 0, "correct": True}

    _git_stub(monkeypatch)
    monkeypatch.setattr(ab, "archive", archive)
    monkeypatch.setattr(ab, "bench", bench)
    work = str(tmp_path / "w")
    out = tmp_path / "ab.json"
    argv = ["--parent", "p", "--change", "c", "--pairs", "4", "--seconds", "0", "--traced-seconds", "1", "--workload", "reproduce"]
    assert ab.main([*argv, "--workdir", work, "--out", str(out)]) == 0
    assert sorted(made) == sorted(ab.copy_dir(work, side, seed) for side in ab.SIDES for seed in (1, 2))
    assert len({len(ab.copy_dir(work, side, 1)) for side in ab.SIDES}) == 1
    assert len(ab.copy_dir(work, "parent", 1)) != len(ab.copy_dir(work, "parent", 2))
    assert [(copy, seed) for copy, seed, trace in ran if not trace] == [
        (ab.copy_dir(work, side, seed), seed) for seed in range(1, 5) for side in (ab.SIDES if seed % 2 else ab.SIDES[::-1])
    ]
    assert [copy for copy, _, trace in ran if trace] == [ab.copy_dir(work, side, 1) for side in ab.SIDES]
    assert json.loads(out.read_text(encoding="utf-8"))["workloads"]["reproduce"]["wins"]["wall_s"] == "0/4"


def _usage_error(monkeypatch, capsys, *args):
    """main's stderr for a usage error (exit 2), checked to come before any
    copy is made."""
    made = []
    _git_stub(monkeypatch)
    monkeypatch.setattr(ab, "archive", lambda repo, rev, dest: made.append(dest) or rev)
    with pytest.raises(SystemExit) as exit_:
        ab.main(["--parent", "p", "--change", "c", *args])
    assert exit_.value.code == 2 and made == []
    return capsys.readouterr().err


def test_pairs_below_one_is_a_usage_error_before_any_copy(tmp_path, monkeypatch, capsys):
    for pairs in ("0", "-1"):
        err = _usage_error(monkeypatch, capsys, "--pairs", pairs, "--workdir", str(tmp_path / "w"), "--out", str(tmp_path / "ab.json"))
        assert f"argument --pairs: must be at least 1, got {pairs}" in err


@pytest.mark.parametrize("stdout", ["", "\n", "trace line\n", '{"metrics": \n'])
def test_a_run_without_a_json_result_line_exits_naming_copy_and_command(monkeypatch, stdout):
    # exit status 0, but nothing to read: the same SystemExit as a failed run
    monkeypatch.setattr(ab, "subprocess", SimpleNamespace(run=lambda *args, **kwargs: SimpleNamespace(returncode=0, stdout=stdout, stderr="")))
    with pytest.raises(SystemExit) as exit_:
        ab.bench("copy-a", "reproduce", 3, 0.5, 0)
    message = str(exit_.value.code)
    assert message.startswith("copy-a: perfbench/run.py --workload reproduce --seed 3 --seconds 0.5 --trace 0 exited with 0")
    assert repr(stdout.strip().splitlines()[-1] if stdout.strip() else "") in message


@pytest.mark.parametrize("side", ab.SIDES)
def test_a_workdir_that_holds_a_copy_is_a_usage_error_before_any_copy(tmp_path, monkeypatch, capsys, side):
    # archive cannot extract over a copy an earlier run left
    (tmp_path / "w" / side).mkdir(parents=True)
    err = _usage_error(monkeypatch, capsys, "--workdir", str(tmp_path / "w"), "--out", str(tmp_path / "ab.json"))
    assert f"--workdir {tmp_path / 'w'} already holds {side}/" in err


def test_an_out_in_a_missing_directory_is_a_usage_error_before_any_copy(tmp_path, monkeypatch, capsys):
    out = tmp_path / "missing" / "ab.json"
    err = _usage_error(monkeypatch, capsys, "--workdir", str(tmp_path / "w"), "--out", str(out))
    assert f"--out {out}: no such directory" in err


def test_a_result_without_an_end_to_end_metric_exits_naming_copy_workload_and_metric(tmp_path, monkeypatch):
    # a parent older than a metric of the change's BENCHMARK.json does not
    # report it
    _git_stub(monkeypatch)
    monkeypatch.setattr(ab, "archive", _copy_benchmark)
    monkeypatch.setattr(ab, "bench", lambda copy, *_: {"metrics": {"wall_s": {"value": 1.0}}, "failed": 0, "correct": True})
    work = str(tmp_path / "w")
    with pytest.raises(SystemExit) as exit_:
        ab.main(["--parent", "p", "--change", "c", "--pairs", "1", "--workload", "reproduce", "--workdir", work, "--out", str(tmp_path / "ab.json")])
    copy = ab.copy_dir(work, "parent", 1)
    assert exit_.value.code == f"{copy}: the reproduce result has no setup_s, an end-to-end metric of the change's BENCHMARK.json"
