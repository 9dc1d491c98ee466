#!/usr/bin/env python3
"""Benchmark of the ``homogen`` command line, end to end and layer by layer.

Usage, from the repository root:

    python3 bench/run.py --workload calc-homogenize --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all             # every workload, one table
    python3 bench/run.py --self-check               # quick correctness of the bench itself
    python3 bench/run.py --record-reference         # rewrite bench/reference.json

``--trace 0`` runs the CLI as fresh subprocesses and reports the end-to-end
metrics; ``--trace 1`` runs the same command lines in-process, untraced and
traced in turn, and reports the per-layer metrics. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Every run also writes a result file under ``bench/results/``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import speed
from workloads import (
    BENCH_DIR,
    REFERENCE_PATH,
    ROOT,
    SRC,
    WORKLOADS,
    Workload,
    check_outputs,
    clear_outputs,
    cli_argv,
    digest_outputs,
    ensure_pool,
    failure_of,
    member_seeds,
    prepare_inputs,
    run_child,
    setup_argv,
    sha256_of,
    workdir,
)

RESULTS_DIR = BENCH_DIR / "results"

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "cpu_ms_per_record": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# No new member starts after this long; with the member timeout a run ends
# within 180 s.
RUN_BUDGET_S = 140.0
# The reference corpus has enough distinct members for runs up to this long.
CORPUS_SECONDS = 30
# BENCHMARK.json run_seconds.
RUN_SECONDS = 20
QUICK_CORPUS = 2


class Usage(Exception):
    pass


def check_sources() -> None:
    if not (SRC / "homogen" / "cli.py").is_file():
        raise Usage(f"no homogen sources at {SRC.relative_to(ROOT)}/homogen; "
                    "run the benchmark from a full checkout")


def run_record(workload: str, seed: int, trace: int, mode: str) -> dict:
    """Machine and code identity stored with every result."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "mode": mode,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": revision,
        "source_sha256": sources.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
        "started_unix": time.time(),
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(w: Workload, cwd: Path, seed: int, seconds: float, mode: str,
            reference: dict) -> dict:
    """Closed-loop subprocess runs of the workload; the end-to-end metrics.

    Every member and set-up probe runs with calibration chunks beside it on
    one pinned CPU, and its times are scaled by them (``speed.py``). A
    child's elapsed time is its wall time minus the CPU time the chunks took.
    """
    ref = reference[mode][w.name]
    count, corpus = ref["count"], ref["corpus"]
    inputs, problem = prepare_inputs(w, cwd, seed, count, ref.get("pool_sha256"))

    cpu = speed.pin_to_one_cpu()
    started = time.perf_counter()
    n = w.members(seconds) if mode == "full" else corpus
    setup = []
    members = []
    for cli_seed in member_seeds(seed, n, corpus):
        if time.perf_counter() - started > RUN_BUDGET_S:
            problem = problem or f"run budget spent after {len(members)} of {n} members"
            break
        # One set-up probe before each member spreads the probes over the run.
        probe = run_child(setup_argv(w.argv(cli_seed, count)), cwd)
        setup.append({**timings(probe), "failure": failure_of(probe)})
        result = run_child(cli_argv(w.argv(cli_seed, count)), cwd)
        failure = failure_of(result) or check_outputs(cwd, ref["outputs"].get(str(cli_seed)), inputs)
        clear_outputs(cwd, inputs)
        members.append({
            "cli_seed": cli_seed,
            "records": count,
            **timings(result),
            "peak_rss_mb": result.peak_rss_mb,
            "exit_code": result.exit_code,
            "failure": failure,
        })

    passed = [m for m in members if m["failure"] is None] or members
    records = sum(m["records"] for m in passed)
    summary = {
        "records_per_s": quartiles([m["records"] / m["scaled_elapsed_s"] for m in passed]),
        "cpu_ms_per_record": quartiles([1e3 * m["scaled_cpu_s"] / m["records"] for m in passed]),
        "peak_rss_mb": quartiles([m["peak_rss_mb"] for m in passed]),
        "setup_s": quartiles([p["scaled_elapsed_s"] for p in setup]),
    }
    # Throughput and CPU cost pool every member, so a run's value is its
    # records over its members' total scaled elapsed (or CPU) time.
    values = {
        "records_per_s": records / sum(m["scaled_elapsed_s"] for m in passed),
        "cpu_ms_per_record": 1e3 * sum(m["scaled_cpu_s"] for m in passed) / records,
        "peak_rss_mb": max(m["peak_rss_mb"] for m in passed),
        "setup_s": summary["setup_s"]["median"],
    }
    unscaled = {
        "records_per_s": records / sum(m["elapsed_s"] for m in passed),
        "cpu_ms_per_record": 1e3 * sum(m["cpu_s"] for m in passed) / records,
        "setup_s": statistics.median(p["elapsed_s"] for p in setup),
        "chunk_cpu_s": quartiles([m["chunk_cpu_s"] for m in passed]),
    }
    failed = sum(m["failure"] is not None for m in members)
    setup_failures = [p["failure"] for p in setup if p["failure"]]
    return {
        "correct": problem is None and not setup_failures and failed == 0,
        "attempted": len(members),
        "failed": failed,
        "failed_runs_share": failed / len(members),
        "problems": [p for p in [problem, *setup_failures] if p] + [
            f"member --seed {m['cli_seed']}: {m['failure']}" for m in members if m["failure"]
        ],
        "pinned_cpu": cpu,
        "summary": summary,
        "unscaled": unscaled,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()
        },
        "members": members,
        "setup_probes": setup,
    }


def timings(result) -> dict[str, float]:
    """A calibrated child's times, as measured and as scaled."""
    cal = result.calibration
    elapsed = result.wall_s - cal.cpu_s
    return {
        "wall_s": result.wall_s,
        "elapsed_s": elapsed,
        "cpu_s": result.cpu_s,
        "chunks": cal.chunks,
        "chunk_cpu_s": cal.cpu_s / cal.chunks if cal.chunks else float("nan"),
        "scaled_elapsed_s": elapsed * cal.scale,
        "scaled_cpu_s": result.cpu_s * cal.scale,
    }


def import_homogen() -> dict:
    """Import the checkout's homogen package in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import homogen.cli  # noqa: F401  (loads every traced module)

    if not Path(homogen.cli.__file__).resolve().is_relative_to(SRC):
        raise Usage(f"imported homogen from {homogen.cli.__file__}, not from {SRC}")
    return {
        name: module for name, module in sys.modules.items()
        if name == "homogen" or name.startswith("homogen.")
    }


def run_in_process(main, argv: list[str], cwd: Path) -> tuple[float, str | None]:
    """Call ``main(argv)`` inside ``cwd``; its wall time and any failure."""
    previous = Path.cwd()
    sink = io.StringIO()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception:
                return time.perf_counter() - start, traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return elapsed, None if code == 0 else f"exit code {code}"


def trace(w: Workload, cwd: Path, seed: int, seconds: float, mode: str, reference: dict,
          spans_path: Path) -> dict:
    """In-process runs, untraced and traced in turn; the per-layer metrics."""
    modules = import_homogen()
    main = modules["homogen.cli"].main
    ref = reference[mode][w.name]
    count, corpus = ref["count"], ref["corpus"]
    inputs, problem = prepare_inputs(w, cwd, seed, count, ref.get("pool_sha256"))
    n = w.members(seconds, traced=True) if mode == "full" else 1

    tracer = layers.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    runs: list = []
    untraced_s = traced_s = 0.0
    failures = []
    for cli_seed in member_seeds(seed, n, corpus):
        expected = ref["outputs"].get(str(cli_seed))
        argv = w.argv(cli_seed, count)
        elapsed, failure = run_in_process(main, argv, cwd)
        failures.append(failure or check_outputs(cwd, expected, inputs))
        clear_outputs(cwd, inputs)
        untraced_s += elapsed

        patches, seen = layers.install(tracer, modules)
        try:
            elapsed, failure = run_in_process(traced_main, argv, cwd)
        finally:
            patches.restore()
        runs.extend(seen)
        failures.append(failure or check_outputs(cwd, expected, inputs))
        clear_outputs(cwd, inputs)
        traced_s += elapsed

    metrics = layers.per_layer_metrics(tracer, runs, records=count * n,
                                       overhead_share=traced_s / untraced_s - 1.0)
    tracer.write(spans_path)
    failed = sum(f is not None for f in failures)
    return {
        "correct": problem is None and failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "failed_runs_share": failed / len(failures),
        "problems": [p for p in [problem, *failures] if p],
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "spans": len(tracer.start),
        "metrics": {
            name: {"value": value, "unit": layers.PER_LAYER_UNITS[name]}
            for name, value in metrics.items()
        },
    }


def print_table(name: str, outcome: dict) -> None:
    print(f"== {name}: {outcome['attempted'] - outcome['failed']}/{outcome['attempted']} runs "
          f"passed, failed_runs_share {outcome['failed_runs_share']:.3f}")
    for problem in outcome["problems"][:5]:
        print(f"   problem: {problem}")
    summary = outcome.get("summary", {})
    for metric, entry in outcome["metrics"].items():
        line = f"   {metric:44s} {entry['value']:14.6g} {entry['unit']}"
        if metric in summary:
            s = summary[metric]
            line += (f"   per child: median {s['median']:.6g}, q1 {s['q1']:.6g}, "
                     f"q3 {s['q3']:.6g}, n {s['n']}")
        print(line)
    unscaled = outcome.get("unscaled")
    if unscaled:
        print(f"   unscaled: records_per_s {unscaled['records_per_s']:.6g} 1/s, cpu_ms_per_record "
              f"{unscaled['cpu_ms_per_record']:.6g} ms, setup_s {unscaled['setup_s']:.6g} s; "
              f"calibration chunk median {unscaled['chunk_cpu_s']['median']:.6g} s "
              f"(nominal {speed.NOMINAL_CHUNK_S} s)")


def run_one(name: str, seed: int, seconds: float, use_trace: bool, mode: str,
            reference: dict) -> dict:
    w = WORKLOADS[name]
    record = run_record(name, seed, int(use_trace), mode)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(use_trace)}-{time.time_ns()}"
    with workdir(w) as cwd:
        if use_trace:
            outcome = trace(w, cwd, seed, seconds, mode, reference,
                            RESULTS_DIR / f"{stem}.spans.gz")
        else:
            outcome = measure(w, cwd, seed, seconds, mode, reference)
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps({"run": record, **outcome}, indent=1) + "\n", encoding="utf-8")
    return outcome


def load_reference() -> dict:
    if not REFERENCE_PATH.is_file():
        raise Usage("bench/reference.json is missing; run with --record-reference")
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def record_reference() -> None:
    """Run every corpus member once and store the digests of its outputs."""
    reference: dict = {}
    for mode in ("full", "quick"):
        reference[mode] = {}
        for w in WORKLOADS.values():
            count = w.count if mode == "full" else w.quick_count
            corpus = w.members(CORPUS_SECONDS) if mode == "full" else QUICK_CORPUS
            entry: dict = {"count": count, "corpus": corpus, "outputs": {}}
            if w.reads_pool:
                entry["pool_sha256"] = sha256_of(ensure_pool(count, None))
            with workdir(w) as cwd:
                inputs, problem = prepare_inputs(w, cwd, 0, count, entry.get("pool_sha256"))
                if problem:
                    raise RuntimeError(problem)
                for cli_seed in range(1, corpus + 1):
                    failure = failure_of(run_child(cli_argv(w.argv(cli_seed, count)), cwd))
                    if failure:
                        raise RuntimeError(f"{w.name} member {cli_seed}: {failure}")
                    entry["outputs"][str(cli_seed)] = digest_outputs(cwd, inputs)
                    clear_outputs(cwd, inputs)
            reference[mode][w.name] = entry
            print(f"recorded {mode} {w.name}: {corpus} members of {count} records", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def self_check(reference: dict) -> bool:
    """Quick-mode checks of the benchmark itself; prints one line per check."""
    results: list[tuple[str, bool]] = []
    traced: dict[str, list[dict]] = {}
    for name, w in WORKLOADS.items():
        outcome = run_one(name, 0, 1.0, False, "quick", reference)
        results.append((f"{name} runs and matches its reference digests", outcome["correct"]))

        ref = reference["quick"][name]
        with workdir(w) as cwd:
            inputs, _ = prepare_inputs(w, cwd, 0, ref["count"], ref.get("pool_sha256"))
            run_child(cli_argv(w.argv(1, ref["count"])), cwd)
            target = next(p for p in sorted(cwd.iterdir()) if p.name not in inputs)
            data = bytearray(target.read_bytes())
            data[len(data) // 2] ^= 0x01
            target.write_bytes(bytes(data))
            flagged = check_outputs(cwd, ref["outputs"]["1"], inputs) is not None
        results.append((f"{name} flags a corrupted {target.name}", flagged))

        traced[name] = [run_one(name, 0, 1.0, True, "quick", reference) for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if v["unit"] == "count"}
            for t in traced[name]
        ]
        results.append((f"{name} traced runs agree on every count", counts[0] == counts[1]))
        results.append((f"{name} traced runs are correct", all(t["correct"] for t in traced[name])))

    def calls(name: str, metric: str) -> float:
        return traced[name][0]["metrics"][metric]["value"]

    for name in ("karel-generate", "karel-stats"):
        results.append((f"{name} makes no calc calls",
                        calls(name, "calc.sample_record.calls") == calls(name, "calc.salient.calls") == 0))
        results.append((f"{name} makes no homogenizer draws", calls(name, "homogenizer.draws") == 0))
    results.append(("karel-stats makes no interpreter calls",
                    calls("karel-stats", "karel.interp.execute.calls") == 0))
    results.append(("calc-homogenize makes no interpreter calls",
                    calls("calc-homogenize", "karel.interp.execute.calls") == 0))
    results.append(("each workload's own layers are seen",
                    calls("calc-homogenize", "homogenizer.draws") > 0
                    and calls("karel-generate", "karel.interp.execute.calls") > 0
                    and calls("karel-stats", "karel.gen.task_from_json.calls_per_record") > 0))
    for label, ok in results:
        print(f"SELF-CHECK {'PASS' if ok else 'FAIL'}: {label}")
    return all(ok for _, ok in results)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        check_sources()
        if args.record_reference:
            record_reference()
            return 0
        reference = load_reference()
        if args.self_check:
            return 0 if self_check(reference) else 1
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes = {}
        for name in names:
            outcomes[name] = run_one(name, args.seed, args.seconds, bool(args.trace), "full",
                                     reference)
            print_table(name, outcomes[name])
    except Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = outcomes[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o["metrics"].items()}
    print(json.dumps({
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
