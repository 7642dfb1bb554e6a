"""One cold interpreter of the benchmark: `python3 worker.py SRC setup` only
measures set-up; `python3 worker.py SRC pass` then reads a pass description
(JSON on stdin), runs its queries in a closed loop, checks every answer and
writes one JSON result on stdout.

Set-up time runs from just before `import nlk3` until the four shipped data
tables are parsed, so nothing else may be imported above that point.

Times are reported twice: raw, and scaled to reference speed.  The speed of
a shared machine can drift by 10-30% over tens of seconds, alike for all
Python code running at that moment.  So the worker times a fixed pure-Python
kernel (Fraction, tuple and dict work, like nlk3's inner loops) right after
set-up, between operations and, from a timer signal, every
SAMPLE_INTERVAL_S during an operation.  Each stretch of work is scaled by
REFERENCE_KERNEL_S over the median time of the kernel runs nearest to it,
and the kernel's own time is taken out of the operation's time.  On a
machine where the kernel takes 1 ms, scaled and raw seconds agree.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402  (already loaded by the interpreter)

REFERENCE_KERNEL_S = 0.001
SETUP_CALIBRATION = 30  # kernel runs right after set-up
BURST = 3  # kernel runs between two operations
NEIGHBOUR_BURSTS = 3  # bursts on each side that set a short operation's scale
SAMPLE_INTERVAL_S = 0.05  # kernel period inside an untraced operation


def _set_up(src):
    sys.path.insert(0, src)
    import nlk3

    nlk3.default_chi10_exponents()
    nlk3.e4_series()
    nlk3.e6_series()
    nlk3.default_unigonal_table()
    return nlk3


def _kernel():
    from fractions import Fraction

    table = {}
    total = 0
    for i in range(1, 170):
        x = Fraction(i, i + 3) * Fraction(2 * i + 1, 7) + Fraction(1, i)
        key = (i % 11, i % 5)
        table[key] = table.get(key, 0) + x.denominator
        total += x.numerator % 97
    return total, table


def _calibrate(reps):
    """Times of `reps` runs of the kernel."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times


class _Sampler:
    """Runs the kernel from a timer signal while an operation runs.  A traced
    pass leaves it off, because the open span would absorb the kernel's time."""

    def __init__(self, on: bool):
        self.on = on
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        import signal

        if self.on:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        import signal

        if self.on:
            signal.setitimer(signal.ITIMER_REAL, 0)


def _scale(samples):
    """Factor from raw seconds to seconds at reference speed."""
    from statistics import median

    return REFERENCE_KERNEL_S / median(samples)


def _flat(bursts):
    return [t for burst in bursts for t in burst]


def _scaled_op(start, end, ticks, before, after):
    """An operation's time at reference speed.  The kernel runs at `ticks`
    (start, duration) split the operation into stretches of work; each
    stretch is scaled by the median kernel time of the runs nearest to it."""
    from statistics import median

    kernel = [median(before)] + [d for _, d in ticks] + [median(after)]
    edges = [start] + [t for t, _ in ticks] + [end]
    resumes = [start] + [t + d for t, d in ticks]
    total = 0.0
    for i in range(len(ticks) + 1):
        window = kernel[max(0, i - 2) : i + 4]
        total += (edges[i + 1] - resumes[i]) * REFERENCE_KERNEL_S / median(window)
    return total


def _table_provenance():
    import hashlib
    from importlib.resources import files

    data = files("nlk3").joinpath("data")
    return [
        {"path": str(entry), "sha256": hashlib.sha256(entry.read_bytes()).hexdigest()}
        for entry in sorted(data.iterdir(), key=lambda e: e.name)
        if entry.name.endswith(".tbl")
    ]


def _run_pass(spec, nlk3):
    import resource

    from tracer import Tracer
    from workloads import WORKLOADS, References

    workload = WORKLOADS[spec["workload"]]
    queries = spec["queries"]
    refs = References()
    cache = nlk3.lattice.discriminant_group  # the lru_cache itself, before any wrapping
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    bursts = [_calibrate(BURST)]
    timed = []
    before = cache.cache_info()
    raw, answers, failures, ok_ops = [], 0, [], 0
    for op_id, query in enumerate(queries):
        if tracer is not None:
            root = tracer.begin_op(op_id)
        with _Sampler(on=tracer is None) as sampler:
            start = time.perf_counter()
            try:
                result = workload.run(query)
                error = None
            except Exception as exc:  # an operation that raises is a failed answer
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        if tracer is not None:
            tracer.end_op(root)
        raw.append(end - start - sum(d for _, d in sampler.samples))
        timed.append((start, end, sampler.samples))
        bursts.append(_calibrate(BURST))
        checked = [("operation", error)] if error else workload.check(query, result, refs)
        bad = [[op_id, what, why] for what, why in checked if why is not None]
        answers += len(checked)
        failures += bad
        ok_ops += not bad
    after = cache.cache_info()
    out = {
        "latencies": [
            _scaled_op(
                start,
                end,
                ticks,
                _flat(bursts[max(0, i + 1 - NEIGHBOUR_BURSTS) : i + 1]),
                _flat(bursts[i + 1 : i + 1 + NEIGHBOUR_BURSTS]),
            )
            for i, (start, end, ticks) in enumerate(timed)
        ],
        "raw_latencies": raw,
        "ok_ops": ok_ops,
        "attempted": answers,
        "failures": failures,
        "cache_hits": after.hits - before.hits,
        "cache_misses": after.misses - before.misses,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tables": _table_provenance(),
    }
    if tracer is not None:
        scale = _scale(_flat(bursts))
        out["layers"] = {
            name: value * scale if name.endswith((".s", ".self_s")) else value
            for name, value in tracer.summary().items()
        }
        out["self_time_gap_s"] = tracer.self_time_gap() * scale
    return out


def main():
    src, mode = sys.argv[1], sys.argv[2]
    nlk3 = _set_up(src)
    raw_setup_s = time.perf_counter() - _T0
    import json
    import os

    if not os.path.abspath(nlk3.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"nlk3 was imported from {nlk3.__file__}, not from {src}")
    out = {"setup_s": raw_setup_s * _scale(_calibrate(SETUP_CALIBRATION)), "raw_setup_s": raw_setup_s}
    if mode == "pass":
        out.update(_run_pass(json.load(sys.stdin), nlk3))
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
