"""nlk3 benchmark: one command per workload run.

    python3 perfbench/run.py --workload genus-sweep --seed 1 --seconds 30 --trace 0

One client drives the library in a closed loop, one query after another, in
a fresh single-threaded worker interpreter per pass over the seeded query
list; passes repeat until --seconds are used.  Every answer is checked.  With
--trace 0 the run reports the end-to-end metrics named in BENCHMARK.json;
with --trace 1 it makes one untraced pass and two traced passes, and reports
the per-layer metrics.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}.  The lines before it print
every metric with its unit and sample count, and a JSON record with the
provenance of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7  # set-up-only cold starts per run, besides one per pass
DEADLINE_S = 170  # a run ends before 180 s whatever the library does
TRACED_PASSES = 2


class BenchError(Exception):
    pass


def _worker(mode, spec, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, SRC, mode],
            input=json.dumps(spec) if spec is not None else "",
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) did not finish within the run's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None outside
    a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def tail(latencies):
    """The highest whole percentile with at least ten samples above it, by
    nearest rank: (percentile, value, samples above), or None below 11 samples."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


def unit_of(name, units):
    """Unit of a metric: as BENCHMARK.json gives it, else by its suffix."""
    if name in units:
        return units[name]
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), (".s", "s"), ("_s", "s"), ("ratio", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


def _failure_summary(failures):
    """One line per kind of failed answer: how many, and the first instance."""
    kinds: dict = {}
    for query, what, why in failures:
        kinds.setdefault(what, []).append((query, why))
    return [f"{what}: {len(items)} failed, first at query {items[0][0]}: {items[0][1]}" for what, items in kinds.items()]


def _pass_spec(workload, queries, trace):
    return {"workload": workload, "queries": queries, "trace": trace}


def _work_counters(result):
    """Counts a pass must repeat exactly on the same inputs."""
    keys = ("ok_ops", "attempted", "cache_hits", "cache_misses")
    counters = {k: result[k] for k in keys}
    counters["failed"] = len(result["failures"])
    for name, value in result.get("layers", {}).items():
        if not name.endswith((".s", ".self_s")):
            counters[name] = value
    return counters


def _check_repeats(passes):
    first = _work_counters(passes[0])
    for i, other in enumerate(passes[1:], start=2):
        counters = _work_counters(other)
        if counters != first:
            diff = {k: (first.get(k), counters.get(k)) for k in set(first) | set(counters) if first.get(k) != counters.get(k)}
            return [f"work counters of pass {i} differ from pass 1: {diff}"]
    return []


def end_to_end(workload, seconds, queries, deadline):
    setup_workers = [_worker("setup", None, deadline) for _ in range(SETUP_SAMPLES)]
    setups = [w["setup_s"] for w in setup_workers]
    passes = []
    spec = _pass_spec(workload, queries, False)
    start = time.monotonic()
    while True:
        t = time.monotonic()
        passes.append(_worker("pass", spec, deadline))
        used, last = time.monotonic() - start, time.monotonic() - t
        if used + last > seconds:
            break
    setups += [p["setup_s"] for p in passes]
    raw_setups = [w["raw_setup_s"] for w in setup_workers + passes]
    latencies = [x for p in passes for x in p["latencies"]]
    walls = [sum(p["latencies"]) for p in passes]
    raw_latencies = [x for p in passes for x in p["raw_latencies"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    ok_ops = sum(p["ok_ops"] for p in passes)
    hits = sum(p["cache_hits"] for p in passes)
    lookups = hits + sum(p["cache_misses"] for p in passes)
    tail_stat = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ops_per_s": ok_ops / sum(walls),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": None if tail_stat is None else 1000 * tail_stat[1],
        "failed_ratio": len(failures) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(walls),
        "ops_per_s": len(latencies),
        "op_p50_ms": len(latencies),
        "op_tail_ms": None if tail_stat is None else {"n": len(latencies), "percentile": tail_stat[0], "beyond": tail_stat[2]},
        "failed_ratio": attempted,
        "peak_rss_mb": len(passes),
    }
    record = {
        "passes": len(passes),
        "ops_per_pass": len(queries),
        "samples": samples,
        "raw": {
            "setup_s": statistics.median(raw_setups),
            "wall_s": statistics.median(sum(p["raw_latencies"]) for p in passes),
            "op_p50_ms": 1000 * statistics.median(raw_latencies),
        },
        "pass_wall_s": walls,
        "discriminant_group_hit_ratio": hits / lookups if lookups else None,
        "repeat_share": inputs.repeat_share(workload, queries),
        "tables": passes[0]["tables"],
    }
    problems = _check_repeats(passes)
    return metrics, record, attempted, failures, problems


def traced(workload, queries, deadline):
    untraced = _worker("pass", _pass_spec(workload, queries, False), deadline)
    passes = [_worker("pass", _pass_spec(workload, queries, True), deadline) for _ in range(TRACED_PASSES)]
    problems = _check_repeats(passes)
    # work counts repeat exactly (checked above); times are medians
    metrics = dict(passes[0]["layers"])
    for name in metrics:
        if name.endswith((".s", ".self_s")):
            metrics[name] = statistics.median(p["layers"].get(name, 0.0) for p in passes)
    calls = metrics.get("orbits.find_witness.calls", 0)
    metrics["orbits.find_witness.found_ratio"] = metrics.get("orbits.find_witness.found", 0) / calls if calls else 0.0
    lookups = passes[0]["cache_hits"] + passes[0]["cache_misses"]
    metrics["lattice.discriminant_group.hit_ratio"] = passes[0]["cache_hits"] / lookups if lookups else 0.0
    metrics["trace.overhead_s"] = statistics.median(sum(p["latencies"]) for p in passes) - sum(untraced["latencies"])
    gap = max(p["self_time_gap_s"] for p in passes)
    metrics["trace.self_time_gap_s"] = gap
    if gap > 1e-6:
        problems.append(f"span self times miss their operation's time by {gap} s")
    every = [untraced] + passes
    attempted = sum(p["attempted"] for p in every)
    failures = [f for p in every for f in p["failures"]]
    record = {"passes": {"untraced": 1, "traced": len(passes)}, "ops_per_pass": len(queries), "tables": untraced["tables"]}
    return metrics, record, attempted, failures, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "nlk3", "__init__.py")):
        print(f"nlk3 sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    wanted = definition["per_layer" if args.trace else "end_to_end"]

    queries = inputs.generate(args.workload, args.seed)
    try:
        if args.trace:
            metrics, record, attempted, failures, problems = traced(args.workload, queries, deadline)
        else:
            metrics, record, attempted, failures, problems = end_to_end(args.workload, args.seconds, queries, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {record['passes']}  ops/pass {record['ops_per_pass']}")
    for name in sorted(metrics):
        n = record.get("samples", {}).get(name)
        print(f"  {name:48s} {metrics[name]!s:>24} {unit_of(name, units):5s}" + (f"  samples {n}" if n is not None else ""))
    for line in _failure_summary(failures) + problems:
        print(f"  FAIL {line}")
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        commit=_git_commit(),
        failed_answers=len(failures),
        problems=problems,
        metrics=metrics,
    )
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics.get(name, 0), "unit": units[name]} for name in (m["name"] for m in wanted)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
