"""Timing spans and work counters around nlk3's public functions, applied
from outside the package.

`Tracer.install` replaces every public function of the six layer modules,
every public method of `DiscriminantGroup` and each `verify` criterion with a
wrapper that records a span (name, start, end, parent, operation id) while an
operation is open.  Modules that imported a name from another module (orbits
takes `discriminant_group` and friends from lattice) get the wrapper too.
Value types (vectors, residues, series, table rows) are not wrapped: their
cost lands in the self time of the function that uses them.  Spans stay in
memory until the pass ends; `summary` turns them into per-function calls,
inclusive time and self time (a span's time minus the time its child spans
cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("lattice", "orbits", "nldiv", "siegel", "chern", "cli")


def _count_series_mul(counts, args, result):
    counts["siegel.series_mul.term_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _count_candidates(counts, args, result):
    counts["orbits.eichler_candidates.candidates"] += len(result)


def _count_witness(counts, args, result):
    counts["orbits.find_witness.found"] += result is not None


def _count_siegel_table(counts, args, result):
    counts["siegel.table_loads"] += 1


def _count_chern_table(counts, args, result):
    counts["chern.table_loads"] += 1


# work counted from a call's arguments or result
COUNTERS = {
    "siegel.series_mul": _count_series_mul,
    "orbits.eichler_candidates": _count_candidates,
    "orbits.find_witness": _count_witness,
    "siegel.loads_half_integral": _count_siegel_table,
    "siegel.loads_coeff_table": _count_siegel_table,
    "chern.loads_unigonal": _count_chern_table,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.active = False

    # -- recording

    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.op_ids.append(self.op_id)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one operation and start recording."""
        self.op_id = op_id
        self.active = True
        return self._open("op")

    def end_op(self, index: int) -> None:
        self._close(index)
        self.active = False

    # -- wrapping

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a generator's frames interleave with its consumer's, so it gets
            # no span; the items it yields are counted
            key = f"{name}.scanned"

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                for item in fn(*args, **kwargs):
                    tracer.counts[key] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, wherever they are bound."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"nlk3.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        group = sys.modules["nlk3.lattice"].DiscriminantGroup
        for attr, obj in list(vars(group).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(group, attr, self._wrap(f"lattice.DiscriminantGroup.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "nlk3" or name.startswith("nlk3.")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = replaced.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        cli = sys.modules["nlk3.cli"]
        cli.CRITERIA = tuple(self._wrap(f"cli.criterion.{i}", fn) for i, fn in enumerate(cli.CRITERIA, start=1))

    # -- results

    def _self_times(self) -> list:
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - covered[i] for i in range(len(self.names))]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds `s` and self seconds
        `self_s`; plus the work counters."""
        stats: dict = {}
        for i, self_s in enumerate(self._self_times()):
            name = self.names[i]
            stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
            stats[f"{name}.s"] = stats.get(f"{name}.s", 0.0) + self.ends[i] - self.starts[i]
            stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + self_s
        stats.update(self.counts)
        return stats

    def self_time_gap(self) -> float:
        """Largest gap, over operations, between the operation's time and the
        sum of the self times of the spans inside it (zero up to rounding)."""
        total_self: dict = {}
        op_time: dict = {}
        for i, self_s in enumerate(self._self_times()):
            total_self[self.op_ids[i]] = total_self.get(self.op_ids[i], 0.0) + self_s
            if self.parents[i] < 0:
                op_time[self.op_ids[i]] = self.ends[i] - self.starts[i]
        return max((abs(total_self[k] - op_time[k]) for k in op_time), default=0.0)
