"""Uniformity measurements and sampling-cost curves for homogenized data.

KL divergences are in nats. ``kl_to_uniform`` compares an empirical
histogram against the uniform distribution over its declared domain, so the
value is ``log(K) - H(P)`` for a ``K``-value domain.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from ._frozen import Frozen
from .homogenizer import HomogenizerConfig, SalientSpec, expected_tries_bound, homogenize


class Histogram(Frozen):
    """Counts over a fixed finite domain; unseen values are kept at zero."""

    __slots__ = ("domain", "counts", "total")

    @classmethod
    def from_values(cls, domain: Iterable[Any], values: Iterable[Any]) -> "Histogram":
        counts = {x: 0 for x in tuple(domain)}
        if not counts:
            raise ValueError("histogram domain must be non-empty")
        total = 0
        for v in values:
            try:
                counts[v] += 1
            except KeyError:
                raise ValueError(f"value {v!r} is outside the histogram domain") from None
            total += 1
        return cls(domain=tuple(counts), counts=counts, total=total)


def kl_to_uniform(hist: Histogram) -> float:
    """KL divergence from the histogram's frequencies to uniform, in nats.

    Zero-count bins contribute nothing; the result is always >= 0 and is 0
    exactly when every bin is equally full.
    """
    if hist.total <= 0:
        raise ValueError("cannot measure an empty histogram")
    k = len(hist.domain)
    acc = 0.0
    for value in hist.domain:
        c = hist.counts.get(value, 0)
        if c:
            p = c / hist.total
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
        config = HomogenizerConfig(epsilon=epsilon, target_size=draws_per_point, seed=seed)
        data = homogenize(source, spec, config)
        measured = data.draws_used / draws_per_point
        stderr = math.sqrt(max(measured * (measured - 1.0), 0.0) / draws_per_point)
        points.append(
            CurvePoint(epsilon=epsilon, draws_per_accept=measured, bound=bound, stderr=stderr)
        )
    return points
