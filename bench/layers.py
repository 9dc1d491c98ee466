"""Outside-in tracing of homogen's layers for the benchmark's traced run.

The tracer wraps public functions of each module from outside the package and
records one span per call: a name, a start, an end and the index of the
enclosing span. Spans live in compact arrays until the run ends; self time is
a span's duration minus the time its child spans cover. Nothing under
``src/`` changes.

A function is patched in every ``homogen`` module that binds it, because
``from .world import grid_to_json`` copies the reference into the importing
module and patching only the defining module would miss those calls. A
recursive function records a span only for its outermost call.
"""

from __future__ import annotations

import gzip
import json
import operator
import statistics
import sys
import time
from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any


class Tracer:
    """Spans of one traced run, kept in compact arrays, plus event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack = [-1]
        # (span name, exception type) -> count, plus named event counters.
        self.counters: Counter[Any] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None):
        """``fn`` recording a span per outermost call under ``name``."""
        nid = self._id(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        counters = self.counters
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[(name, type(exc).__name__)] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                active = False
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total nanoseconds and self nanoseconds."""
        dur = array("q", map(operator.sub, self.end, self.start))
        covered = array("q", bytes(8 * len(dur)))
        for parent, d in zip(self.parent, dur):
            if parent >= 0:
                covered[parent] += d
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in self.names}
        by_id = [out[name] for name in self.names]
        for nid, d, c in zip(self.name, dur, covered):
            entry = by_id[nid]
            entry["calls"] += 1
            entry["total_ns"] += d
            entry["self_ns"] += d - c
        return out

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [end - start for n, start, end in zip(self.name, self.start, self.end) if n == nid]

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the raw columns, gzipped."""
        columns = {"name": self.name, "parent": self.parent, "start_ns": self.start,
                   "end_ns": self.end}
        header = {
            "names": self.names,
            "byteorder": sys.byteorder,
            "columns": [[key, col.typecode, col.itemsize, len(col)] for key, col in columns.items()],
        }
        with gzip.open(path, "wb", compresslevel=1) as fp:
            fp.write(json.dumps(header).encode() + b"\n")
            for col in columns.values():
                col.tofile(fp)


class Patches:
    """Replacements installed on live objects, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable, modules: list[Any]) -> None:
        """Rebind ``original`` to ``replacement`` in every module that binds it."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def install(tracer: Tracer, homogen_modules: dict[str, Any]) -> tuple[Patches, list[Any]]:
    """Wrap every traced layer; returns the patches and the homogenizer runs seen."""
    m = homogen_modules
    modules = list(m.values())
    calc, diagnostics, homogenizer = m["homogen.calc"], m["homogen.diagnostics"], m["homogen.homogenizer"]
    gen, world, interp, lang = (m["homogen.karel.gen"], m["homogen.karel.world"],
                                m["homogen.karel.interp"], m["homogen.karel.lang"])
    patches = Patches()

    def functions(names: dict[str, tuple[Any, str]]) -> None:
        for span, (module, attr) in names.items():
            original = getattr(module, attr)
            patches.everywhere(original, tracer.wrap(span, original), modules)

    functions({
        "calc.sample_record": (calc, "sample_record"),
        "calc.sample_expr": (calc, "sample_expr"),
        "calc.render": (calc, "render"),
        "calc.eval_mod10": (calc, "eval_mod10"),
        "calc.salient": (calc, "_salients_of_text"),
        "diagnostics.kl_to_uniform": (diagnostics, "kl_to_uniform"),
        "karel.gen.sample_program": (gen, "sample_program"),
        "karel.gen.make_task": (gen, "make_task"),
        "karel.gen.grid_sampler": (gen, "sample_uniform_grid"),
        "karel.gen.task_to_json": (gen, "task_to_json"),
        "karel.gen.task_from_json": (gen, "task_from_json"),
        "karel.gen.task_salients": (gen, "task_salients"),
        "karel.world.grid_from_json": (world, "grid_from_json"),
        "karel.world.grid_to_json": (world, "grid_to_json"),
        "karel.interp.branch_arms": (interp, "branch_arms"),
        "karel.lang.emit_tokens": (lang, "emit_tokens"),
        "karel.lang.parse_program": (lang, "parse_program"),
    })

    def count_crash(result: Any) -> None:
        if not result.success:
            tracer.counters["karel.interp.execute.crashed"] += 1

    execute = interp.execute
    patches.everywhere(execute, tracer.wrap("karel.interp.execute", execute, count_crash), modules)

    grid_cls = world.KarelGrid
    patches.set(grid_cls, "__post_init__",
                tracer.wrap("karel.world.grid_validate", grid_cls.__post_init__))

    histogram = diagnostics.Histogram
    from_values = histogram.__dict__["from_values"].__func__
    patches.set(histogram, "from_values",
                classmethod(tracer.wrap("diagnostics.from_values", from_values)))

    task_source = gen.task_source

    def traced_task_source(*args, **kwargs):
        return tracer.wrap("karel.gen.task", task_source(*args, **kwargs))

    patches.everywhere(task_source, traced_task_source, modules)

    # A homogenizer run is a generator; each resumption is one span, so its
    # self time excludes the CLI's work between records.
    runs: list[Any] = []
    run_cls = homogenizer.HomogenizerRun
    run_iter = run_cls.__iter__

    def traced_iter(run: Any) -> Iterator[Any]:
        runs.append(run)
        resume = tracer.wrap("homogenizer.next", run_iter(run).__next__)
        while True:
            try:
                item = resume()
            except StopIteration:
                return
            yield item

    patches.set(run_cls, "__iter__", traced_iter)
    return patches, runs


# Metric name -> unit, in report order. Every workload reports all of them;
# a layer the workload bypasses reports zero calls and zero time.
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "homogenizer.draws": "count",
    "homogenizer.accepted": "count",
    "homogenizer.draws_per_accept": "ratio",
    "homogenizer.self_us_per_draw": "us",
    "calc.sample_record.us_per_call": "us",
    "calc.sample_record.calls": "count",
    "calc.sample_expr.us_per_call": "us",
    "calc.render.us_per_call": "us",
    "calc.eval_mod10.us_per_call": "us",
    "calc.salient.us_per_call": "us",
    "calc.salient.calls": "count",
    "karel.gen.task.p50_ms": "ms",
    "karel.gen.task.tail_ms": "ms",
    "karel.gen.task.tail_pct": "%",
    "karel.gen.task.calls": "count",
    "karel.gen.sample_program.us_per_call": "us",
    "karel.gen.programs_per_task": "ratio",
    "karel.gen.uncoverable": "count",
    "karel.gen.make_task.self_us_per_call": "us",
    "karel.gen.grid_sampler.us_per_call": "us",
    "karel.gen.grid_sampler.self_us_per_call": "us",
    "karel.gen.grids_per_task": "ratio",
    "karel.gen.task_to_json.us_per_call": "us",
    "karel.gen.task_from_json.us_per_call": "us",
    "karel.gen.task_from_json.calls_per_record": "ratio",
    "karel.gen.task_salients.us_per_call": "us",
    "karel.gen.task_salients.calls_per_record": "ratio",
    "karel.world.grid_validate.us_per_call": "us",
    "karel.world.grid_validate.calls": "count",
    "karel.world.grid_from_json.us_per_call": "us",
    "karel.world.grid_to_json.us_per_call": "us",
    "karel.interp.execute.us_per_call": "us",
    "karel.interp.execute.calls": "count",
    "karel.interp.execute.crash_share": "ratio",
    "karel.interp.branch_arms.us_per_call": "us",
    "karel.lang.emit_tokens.us_per_call": "us",
    "karel.lang.parse_program.us_per_call": "us",
    "diagnostics.busy_s": "s",
    "trace.overhead_share": "ratio",
}

# Tail percentiles tried from the highest down; the reported one is the
# highest with at least this many samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def tail(durations_ns: list[int]) -> tuple[float, float]:
    """(percentile, value in ns) of the highest well-sampled percentile."""
    n = len(durations_ns)
    if n == 0:
        return 0.0, 0.0
    ordered = sorted(durations_ns)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            break
    rank = min(n - 1, int(pct / 100.0 * n))
    return pct, float(ordered[rank])


def per_layer_metrics(tracer: Tracer, runs: list[Any], records: int,
                      overhead_share: float) -> dict[str, float]:
    """Every metric in :data:`PER_LAYER_UNITS` from the spans and counters."""
    spans = tracer.summary()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def get(name: str) -> dict[str, Any]:
        return spans.get(name, empty)

    def calls(name: str) -> int:
        return get(name)["calls"]

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us_per_call(name: str, field: str = "total_ns") -> float:
        return per(get(name)[field], calls(name)) / 1e3

    tasks = calls("karel.gen.task")
    task_durations = tracer.durations("karel.gen.task")
    tail_pct, tail_ns = tail(task_durations)
    draws = sum(run.draws_used for run in runs)
    accepted = sum(run.accepted for run in runs)

    metrics = {
        "cli.self_s": get("cli.main")["self_ns"] / 1e9,
        "homogenizer.draws": draws,
        "homogenizer.accepted": accepted,
        "homogenizer.draws_per_accept": per(draws, accepted),
        "homogenizer.self_us_per_draw": per(get("homogenizer.next")["self_ns"], draws) / 1e3,
        "calc.sample_record.us_per_call": us_per_call("calc.sample_record"),
        "calc.sample_record.calls": calls("calc.sample_record"),
        "calc.sample_expr.us_per_call": us_per_call("calc.sample_expr"),
        "calc.render.us_per_call": us_per_call("calc.render"),
        "calc.eval_mod10.us_per_call": us_per_call("calc.eval_mod10"),
        "calc.salient.us_per_call": us_per_call("calc.salient"),
        "calc.salient.calls": calls("calc.salient"),
        "karel.gen.task.p50_ms": statistics.median(task_durations) / 1e6 if tasks else 0.0,
        "karel.gen.task.tail_ms": tail_ns / 1e6,
        "karel.gen.task.tail_pct": tail_pct,
        "karel.gen.task.calls": tasks,
        "karel.gen.sample_program.us_per_call": us_per_call("karel.gen.sample_program"),
        "karel.gen.programs_per_task": per(calls("karel.gen.sample_program"), tasks),
        "karel.gen.uncoverable": tracer.counters[("karel.gen.make_task", "UncoverableProgramError")],
        "karel.gen.make_task.self_us_per_call": us_per_call("karel.gen.make_task", "self_ns"),
        "karel.gen.grid_sampler.us_per_call": us_per_call("karel.gen.grid_sampler"),
        "karel.gen.grid_sampler.self_us_per_call": us_per_call("karel.gen.grid_sampler", "self_ns"),
        "karel.gen.grids_per_task": per(calls("karel.gen.grid_sampler"), tasks),
        "karel.gen.task_to_json.us_per_call": us_per_call("karel.gen.task_to_json"),
        "karel.gen.task_from_json.us_per_call": us_per_call("karel.gen.task_from_json"),
        "karel.gen.task_from_json.calls_per_record": per(calls("karel.gen.task_from_json"), records),
        "karel.gen.task_salients.us_per_call": us_per_call("karel.gen.task_salients"),
        "karel.gen.task_salients.calls_per_record": per(calls("karel.gen.task_salients"), records),
        "karel.world.grid_validate.us_per_call": us_per_call("karel.world.grid_validate"),
        "karel.world.grid_validate.calls": calls("karel.world.grid_validate"),
        "karel.world.grid_from_json.us_per_call": us_per_call("karel.world.grid_from_json"),
        "karel.world.grid_to_json.us_per_call": us_per_call("karel.world.grid_to_json"),
        "karel.interp.execute.us_per_call": us_per_call("karel.interp.execute"),
        "karel.interp.execute.calls": calls("karel.interp.execute"),
        "karel.interp.execute.crash_share": per(
            tracer.counters["karel.interp.execute.crashed"], calls("karel.interp.execute")),
        "karel.interp.branch_arms.us_per_call": us_per_call("karel.interp.branch_arms"),
        "karel.lang.emit_tokens.us_per_call": us_per_call("karel.lang.emit_tokens"),
        "karel.lang.parse_program.us_per_call": us_per_call("karel.lang.parse_program"),
        "diagnostics.busy_s": (get("diagnostics.from_values")["total_ns"]
                               + get("diagnostics.kl_to_uniform")["total_ns"]) / 1e9,
        "trace.overhead_share": overhead_share,
    }
    assert metrics.keys() == PER_LAYER_UNITS.keys()
    return metrics
