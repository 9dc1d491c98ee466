"""The three benchmark workloads and the child-process runner that times them.

Each workload is a ``homogen`` command line run as a fresh, single-threaded
subprocess, one at a time (a closed loop with one client). A run executes
members of a fixed corpus in an order drawn from ``--seed``; every member's
output files are compared byte for byte against the SHA-256 digests recorded
in ``reference.json``.

Why a fixed corpus rather than CLI seeds drawn from ``--seed``: the cost of a
Karel task is heavy-tailed (median 2.8 ms, mean 28 ms, coefficient of
variation about 2), so throughput over freshly drawn seeds moved by about 10%
(interquartile range over median) from one benchmark seed to the next even at
40 s per run. With a fixed corpus every run measures the same work, and every
output byte can be checked against a stored digest instead of only against
itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from speed import Calibration, wait_calibrating

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
CACHE_DIR = BENCH_DIR / ".cache"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# A member still running after this long is killed and counted as failed;
# members take 1-4 s on the reference machine.
MEMBER_TIMEOUT_S = 30.0
# Building the karel-stats dataset takes about 25 s on the reference machine.
POOL_TIMEOUT_S = 600.0
# The karel-stats dataset is ``generate karel`` at this seed.
POOL_SEED = 7

SETUP_PROBE = (
    "import sys\n"
    "from homogen.cli import build_parser\n"
    "build_parser().parse_args(sys.argv[1:])\n"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``args`` is the member command line, with ``{count}`` and ``{seed}``
    filled in per member. ``count`` is the records each member writes, or for
    karel-stats reads. ``child_s`` is a member's nominal wall time on the
    reference machine and ``traced_child_s`` that of one member run
    in-process untraced, then traced, with its spans summarised; both turn
    ``--seconds`` into a number of members.
    """

    name: str
    args: tuple[str, ...]
    count: int
    quick_count: int
    child_s: float
    traced_child_s: float
    reads_pool: bool = False

    def argv(self, cli_seed: int, count: int) -> list[str]:
        return [a.format(count=count, seed=cli_seed) for a in self.args]

    def members(self, seconds: float, traced: bool = False) -> int:
        """How many members fill ``seconds`` on the reference machine."""
        return max(1, round(seconds / (self.traced_child_s if traced else self.child_s)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calc-homogenize",
            ("homogenize", "calc", "--dist", "dcfg", "--var", "length", "--eps", "0.025",
             "--count", "{count}", "--seed", "{seed}", "--out", "out.jsonl"),
            count=10_000, quick_count=300, child_s=2.0, traced_child_s=10.0,
        ),
        Workload(
            "karel-generate",
            ("generate", "karel", "--count", "{count}", "--seed", "{seed}", "--out", "out.jsonl"),
            count=60, quick_count=3, child_s=2.2, traced_child_s=5.0,
        ),
        Workload(
            "karel-stats",
            ("stats", "in.jsonl", "--out", "stats.json"),
            count=600, quick_count=12, child_s=3.5, traced_child_s=7.5, reads_pool=True,
        ),
    )
}


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stderr: str
    calibration: Calibration


def run_child(argv: list[str], cwd: Path, timeout_s: float = MEMBER_TIMEOUT_S) -> ChildResult:
    """Run ``argv`` in ``cwd`` and time it; rusage comes from ``os.wait4``.

    Calibration chunks run in this process while the child does (``speed.py``).
    """
    out_path = cwd / ".stdout"
    err_path = cwd / ".stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            status, usage, calibration = wait_calibrating(proc.pid)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stderr=stderr,
        calibration=calibration,
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "homogen.cli", *args]


def setup_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-c", SETUP_PROBE, *args]


def failure_of(result: ChildResult) -> str | None:
    if result.exit_code != 0:
        return f"exit code {result.exit_code}"
    if "Traceback (most recent call last)" in result.stderr:
        return "traceback on stderr"
    return None


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_outputs(cwd: Path, inputs: set[str]) -> dict[str, str]:
    """SHA-256 of every file in ``cwd`` except the inputs."""
    return {p.name: sha256_of(p) for p in sorted(cwd.iterdir()) if p.name not in inputs}


def check_outputs(cwd: Path, expected: dict[str, str] | None, inputs: set[str]) -> str | None:
    """Why the outputs in ``cwd`` are wrong, or None when every digest matches."""
    if expected is None:
        return "no reference digests for this member"
    got = digest_outputs(cwd, inputs)
    if got.keys() != expected.keys():
        return f"output files {sorted(got)} differ from reference {sorted(expected)}"
    bad = [name for name in got if got[name] != expected[name]]
    return f"digest mismatch in {', '.join(bad)}" if bad else None


def clear_outputs(cwd: Path, inputs: set[str]) -> None:
    for p in cwd.iterdir():
        if p.name not in inputs:
            p.unlink()


@contextlib.contextmanager
def workdir(workload: Workload) -> Iterator[Path]:
    """A fresh directory for this process's member runs, removed afterwards."""
    path = WORK_DIR / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def ensure_pool(count: int, expected_sha256: str | None) -> Path:
    """The karel-stats dataset: ``generate karel`` at :data:`POOL_SEED`.

    It is built once per checkout and reused while its digest matches
    ``expected_sha256``; with no expected digest it is always rebuilt.
    """
    pool = CACHE_DIR / f"karel-pool-{POOL_SEED}-{count}.jsonl"
    if pool.exists() and expected_sha256 is not None and sha256_of(pool) == expected_sha256:
        return pool
    build = CACHE_DIR / f"build-{os.getpid()}"
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    args = ["generate", "karel", "--count", str(count), "--seed", str(POOL_SEED),
            "--out", "pool.jsonl"]
    try:
        reason = failure_of(run_child(cli_argv(args), build, POOL_TIMEOUT_S))
        if reason is not None:
            raise RuntimeError(f"building the karel-stats input failed: {reason}")
        (build / "pool.jsonl").replace(pool)
    finally:
        shutil.rmtree(build, ignore_errors=True)
    return pool


def prepare_inputs(workload: Workload, cwd: Path, seed: int, count: int,
                   pool_sha256: str | None) -> tuple[set[str], str | None]:
    """Write the workload's input files into ``cwd``.

    Returns the input file names, which are never digested as outputs, and
    why the input is wrong when the karel-stats dataset cannot be built or
    does not match its reference digest. Each run shuffles the dataset's
    records with ``seed``.
    """
    if not workload.reads_pool:
        return set(), None
    try:
        data = ensure_pool(count, pool_sha256).read_bytes()
    except RuntimeError as exc:
        (cwd / "in.jsonl").write_bytes(b"")
        return {"in.jsonl"}, str(exc)
    lines = data.splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    (cwd / "in.jsonl").write_bytes(b"".join(lines))
    if hashlib.sha256(data).hexdigest() != pool_sha256:
        return {"in.jsonl"}, "karel-stats input does not match its reference digest"
    return {"in.jsonl"}, None


def member_seeds(seed: int, n: int, corpus: int) -> list[int]:
    """CLI seeds of the ``n`` members a run executes, in the run's order.

    Members are the corpus seeds 1..n, cycling when ``n`` exceeds the
    corpus; ``seed`` only shuffles their order.
    """
    seeds = [1 + i % corpus for i in range(n)]
    random.Random(seed).shuffle(seeds)
    return seeds
