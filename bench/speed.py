"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the speed of pure-Python code moves by a third or
more for seconds to minutes at a time, with no steal time reported and CPU
time rising with wall time (a busy hyperthread sibling on the host slows the
core). No statistic over one run removes that, because a whole run can fall
into a slow stretch, and a speed probe timed between members misses changes
during a member.

So the benchmark pins itself and its members to one CPU and, while a member
runs, keeps timing small chunks of a fixed, program-independent pure-Python
loop (the *calibration*) on that CPU: a chunk of about 2 ms, then a 10 ms
sleep, so the member gets most of the CPU. Chunks and member share the core
over the same interval and are slowed alike. Each of the member's times is
scaled by how fast the chunks ran:

    scaled = measured * NOMINAL_CHUNK_S / mean chunk CPU time

so a timing reads as it would on a machine where a chunk takes
``NOMINAL_CHUNK_S``. The calibration never calls ``homogen``, so a change to
the program moves the scaled figures as it moves the raw ones. Because
members are pinned to one CPU, a parallel speed-up would not show.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass

# Chunk CPU time that scaled figures are expressed against: roughly what one
# chunk takes on the reference machine at its usual speed.
NOMINAL_CHUNK_S = 0.002
CHUNK_ROUNDS = 15
SLEEP_S = 0.010


@dataclass(frozen=True)
class Calibration:
    """The chunks timed while one child ran."""

    chunks: int
    cpu_s: float

    @property
    def scale(self) -> float:
        """Factor that turns a time measured during the child into a scaled one."""
        return NOMINAL_CHUNK_S * self.chunks / self.cpu_s if self.chunks else 1.0


def pin_to_one_cpu() -> int:
    """Run this process, and the children it starts, on one allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.randrange(10)
    return (rng.choice("+-*"), _tree(rng, depth - 1), _tree(rng, depth - 1))


def _render(tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    op, left, right = tree
    return f"({_render(left)}{op}{_render(right)})"


def _value(tree) -> int:
    if isinstance(tree, int):
        return tree
    op, left, right = tree
    a, b = _value(left), _value(right)
    return (a + b if op == "+" else a - b if op == "-" else a * b) % 10


def _work(rounds: int) -> int:
    """Fixed work shaped like the workloads: recursive sampling, rendering,
    small grids of lists, and JSON round trips."""
    rng = random.Random(20191227)
    total = 0
    for _ in range(rounds):
        tree = _tree(rng, 7)
        text = _render(tree)
        grid = [[rng.randrange(4) for _ in range(8)] for _ in range(8)]
        record = {"text": text, "value": _value(tree), "grid": grid}
        back = json.loads(json.dumps(record, sort_keys=True))
        total += back["value"] + len(set(back["text"])) + sum(map(sum, back["grid"]))
    return total


def wait_calibrating(pid: int) -> tuple[int, os.struct_rusage, Calibration]:
    """``os.wait4(pid)``, timing calibration chunks until the child exits."""
    chunks = 0
    cpu = 0.0
    while True:
        done, status, usage = os.wait4(pid, os.WNOHANG)
        if done:
            return status, usage, Calibration(chunks, cpu)
        start = time.thread_time()
        _work(CHUNK_ROUNDS)
        cpu += time.thread_time() - start
        chunks += 1
        time.sleep(SLEEP_S)
