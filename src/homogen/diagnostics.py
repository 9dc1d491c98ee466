"""Uniformity measurements and sampling-cost curves for homogenized data.

KL divergences are in nats. ``kl_to_uniform`` compares the counts of a
``CountTable`` with uniform over its domain: ``log(K) - H(P)`` for ``K``
values. ``Histogram`` is another name for ``CountTable``, kept for the
benchmark's ``diagnostics.from_values`` span and the acceptance suite.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Sequence
from typing import Any

from ._frozen import Frozen
from .homogenizer import CountTable, HomogenizerRun, SalientSpec, expected_tries_bound

Histogram = CountTable


def kl_to_uniform(table: CountTable) -> float:
    """KL divergence from a count table's frequencies to uniform, in nats.

    ``table.counts`` holds every domain value's count, in domain order. Zero
    bins add nothing; the result is >= 0, and 0 exactly when all bins are equal.
    """
    if table.total <= 0:
        raise ValueError("cannot measure an empty histogram")
    k = len(table.counts)
    acc = 0.0
    for c in table.counts.values():
        if c:
            p = c / table.total
            acc += p * math.log(p * k)
    # Guard against float dust just below zero for perfectly uniform counts.
    return max(acc, 0.0)


class CurvePoint(Frozen):
    __slots__ = ("epsilon", "draws_per_accept", "bound", "stderr")


def acceptance_curve(
    source: Callable[[random.Random], Any],
    spec: SalientSpec,
    epsilons: Sequence[float],
    draws_per_point: int,
    rng: random.Random,
) -> list[CurvePoint]:
    """Measure mean source draws per accepted sample at each epsilon.

    ``draws_per_point`` is the number of accepted samples collected for each
    point. The standard error treats per-accept draw counts as geometric,
    giving ``sqrt(m(m-1)/n)`` for a measured mean of ``m`` over ``n``
    accepts. Each point runs on a seed drawn from ``rng``, so a fixed rng
    state reproduces the whole curve.
    """
    if draws_per_point < 1:
        raise ValueError("draws_per_point must be >= 1")
    points = []
    for epsilon in epsilons:
        bound = expected_tries_bound(epsilon)  # validates epsilon > 0
        seed = rng.randrange(2**63)
        run = HomogenizerRun(source, spec, epsilon=epsilon, target_size=draws_per_point, seed=seed)
        for _ in run:
            pass
        measured = run.draws_used / draws_per_point
        stderr = math.sqrt(max(measured * (measured - 1.0), 0.0) / draws_per_point)
        points.append(
            CurvePoint(epsilon=epsilon, draws_per_accept=measured, bound=bound, stderr=stderr)
        )
    return points
