"""A/B runs of the nlk3 benchmark: a parent revision against a change.

    python3 tools/ab.py --parent HEAD~1 --change HEAD --pairs 5 --seconds 30 \
        --out BENCH_<label>.json --what "<one line>" --claimed "reproduce wall_s"

Each side is two `git archive` copies of its revision (src/, perfbench/,
BENCHMARK.json, pyproject.toml), in --workdir/<side>/a and
--workdir/<side>/abcd.  For every workload in BENCHMARK.json and seeds
1..--pairs, the two sides run `perfbench/run.py --trace 0` back to back, the
parent first on odd seeds and the change first on even ones, so slow drift
of the machine falls on both sides alike.  Odd seeds run from the abcd
copies and even seeds from the a copies: a run's peak RSS moves with the
length of its checkout's path, and this way both sides of a pair share one
length and each length runs half of the pairs.  With --traced-seconds > 0
each side also makes one --trace 1 run on seed 1 per workload.  To measure
an uncommitted tree, pass `--change "$(git stash create)"`.

The output has the shape of the committed BENCH_*.json files: per workload
and side, min/q1/median/q3/max (inclusive quartiles), n, unit and the runs of
each end-to-end metric; per metric the pairs the change won, the parent's
interquartile range, and the change of the median.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile

ARCHIVED = ("src", "perfbench", "BENCHMARK.json", "pyproject.toml")
SIDES = ("parent", "change")
# the copies of each side, by seed parity; "parent" and "change" have one
# length, so the two sides of a seed run from paths of one length
COPIES = ("a", "abcd")


def copy_dir(work, side, seed):
    """The copy of a side that runs a seed."""
    return os.path.join(work, side, COPIES[seed % 2])


def summarize(runs, unit):
    """min, q1, median, q3, max (inclusive quartiles), n, unit and the runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"min": min(runs), "q1": q1, "median": median, "q3": q3, "max": max(runs), "n": len(runs), "unit": unit, "runs": list(runs)}


def compare(parent, change, metrics):
    """The per-workload summary of paired runs: parent and change each map a
    metric name to its runs (pair i is run i on both sides), and metrics maps
    each name to its unit and whether lower or higher is better."""
    out = {side: {name: summarize(runs[name], unit) for name, (unit, _) in metrics.items()} for side, runs in zip(SIDES, (parent, change))}
    out["wins"], out["parent_iqr"], out["median_delta"], out["median_change_pct"] = {}, {}, {}, {}
    for name, (_, better) in metrics.items():
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent[name], change[name]))
        p, c = out["parent"][name], out["change"][name]
        out["wins"][name] = f"{wins}/{len(parent[name])}"
        out["parent_iqr"][name] = p["q3"] - p["q1"]
        out["median_delta"][name] = c["median"] - p["median"]
        out["median_change_pct"][name] = 100 * (c["median"] - p["median"]) / p["median"] if p["median"] else None
    return out


def archive(repo, rev, dest):
    """Extract the benchmarked paths of revision rev into dest; its full sha."""
    sha = subprocess.run(["git", "-C", repo, "rev-parse", rev], capture_output=True, text=True, check=True).stdout.strip()
    blob = subprocess.run(["git", "-C", repo, "archive", "--format=tar", sha, *ARCHIVED], capture_output=True, check=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def bench(copy, workload, seed, seconds, trace):
    """The result line of one perfbench run in a copy."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{copy}: {' '.join(cmd[1:])} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    try:
        return json.loads(last)
    except json.JSONDecodeError:
        raise SystemExit(f"{copy}: {' '.join(cmd[1:])} exited with 0 but printed no JSON result; last line: {last!r}") from None


def positive_int(text):
    """An argparse type: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision measured as the parent")
    parser.add_argument("--change", required=True, help="revision measured as the change")
    parser.add_argument("--pairs", type=positive_int, default=5, help="alternating pairs per workload (seeds 1..pairs)")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--traced-seconds", type=float, default=0, help="one --trace 1 run per side and workload when > 0")
    parser.add_argument("--workload", action="append", help="a workload to run (repeatable; default: all)")
    parser.add_argument("--workdir", help="where the two copies go (default: a new temporary directory)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--what", default="")
    parser.add_argument("--claimed", default="")
    args = parser.parse_args(argv)
    # refused before any copy is made: archive cannot extract over an old
    # copy, and the result is written only after every run
    for side in SIDES:
        if args.workdir and os.path.exists(os.path.join(args.workdir, side)):
            parser.error(f"--workdir {args.workdir} already holds {side}/; give a new or empty directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error(f"--out {args.out}: no such directory")

    repo = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True).stdout.strip()
    work = args.workdir or tempfile.mkdtemp(prefix="nlk3-ab-")
    shas = {}
    for side in SIDES:
        for name in COPIES:
            shas[side] = archive(repo, getattr(args, side), os.path.join(work, side, name))
    with open(os.path.join(copy_dir(work, "change", 1), "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    metrics = {m["name"]: (m["unit"], m["better"]) for m in definition["end_to_end"]}
    workloads = args.workload or [w["name"] for w in definition["workloads"]]
    seeds = list(range(1, args.pairs + 1))

    result = {
        "what": args.what,
        "parent": shas["parent"],
        "change": shas["change"],
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {args.seconds:g} --trace 0"
        + (f" (per-layer: --seed 1 --seconds {args.traced_seconds:g} --trace 1)" if args.traced_seconds else ""),
        "settings": f"each side run from two git archive copies ({', '.join(ARCHIVED)}), {COPIES[1]} for odd seeds and "
        f"{COPIES[0]} for even ones; alternating pairs, odd seeds parent first, even seeds change first; "
        f"Python {platform.python_version()}, {os.cpu_count()} CPUs; no CPU pinning or cache drops",
        "claimed": args.claimed,
        "workloads": {},
    }
    for workload in workloads:
        runs = {side: {name: [] for name in metrics} for side in SIDES}
        status = {side: {"failed": [], "correct": []} for side in SIDES}
        for seed in seeds:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                copy = copy_dir(work, side, seed)
                line = bench(copy, workload, seed, args.seconds, 0)
                for name in metrics:
                    if name not in line["metrics"]:
                        raise SystemExit(f"{copy}: the {workload} result has no {name}, an end-to-end metric of the change's BENCHMARK.json")
                    runs[side][name].append(line["metrics"][name]["value"])
                status[side]["failed"].append(line["failed"])
                status[side]["correct"].append(line["correct"])
                print(f"{workload} seed {seed} {side}: wall_s {line['metrics']['wall_s']['value']}", file=sys.stderr)
        summary = compare(runs["parent"], runs["change"], metrics)
        for side in SIDES:
            summary[side].update(status[side])
        result["workloads"][workload] = {"seeds": seeds, **summary}
    if args.traced_seconds:
        result["traced"] = {}
        for workload in workloads:
            lines = {side: bench(copy_dir(work, side, 1), workload, 1, args.traced_seconds, 1) for side in SIDES}
            result["traced"][workload] = {side: {k: v["value"] for k, v in lines[side]["metrics"].items()} for side in SIDES}
            result["traced"][workload]["correct"] = {side: lines[side]["correct"] for side in SIDES}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
