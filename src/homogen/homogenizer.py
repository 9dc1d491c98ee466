"""Evening out a salient variable of a sample stream by rejection.

A *salient variable* is a caller-declared feature of a sample with a finite
discrete domain. :func:`homogenize` wraps any seeded sampler and keeps
drawing from it, accepting each draw of value ``x`` with probability

    (min_frequency + epsilon) / (frequency(x) + epsilon)

where the frequencies are running empirical shares over everything drawn so
far, rejected draws included, and the minimum ranges over the whole declared
domain (values never seen count as zero). Over-represented values are
rejected more often, so the accepted stream's marginal over the domain moves
toward uniform. ``epsilon`` trades throughput for residual bias: each
accepted sample costs at most ``1 + 1/epsilon`` source draws in expectation,
and at ``epsilon = 0`` the accepted marginal converges to exactly uniform but
nothing is accepted until every domain value has been seen at least once, so
such a run must set its draw budget, ``max_draws``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Any


class DomainViolationError(ValueError):
    """A salient extractor produced a value outside its declared domain."""


class BudgetExhaustedError(RuntimeError):
    """The source-draw budget ran out before the target size was reached.

    Carries the partial run statistics so callers can report how far the
    run got.
    """

    def __init__(self, message: str, *, draws_used: int, accepted: int, counts: "CountTable"):
        super().__init__(message)
        self.draws_used = draws_used
        self.accepted = accepted
        self.counts = counts


@dataclass(frozen=True)
class SalientSpec:
    """A named finite-domain feature of samples.

    ``extract`` must be deterministic and must map every sample the source
    can produce into ``domain``.
    """

    name: str
    domain: tuple[Any, ...]
    extract: Callable[[Any], Any]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", tuple(self.domain))
        if not self.domain:
            raise ValueError("salient domain must be non-empty")
        if len(set(self.domain)) != len(self.domain):
            raise ValueError("salient domain contains duplicate values")


class CountTable:
    """Running counts of salient values over every source draw.

    The minimum count is maintained incrementally, so the acceptance
    probability stays O(1) per draw even for large domains.
    """

    __slots__ = ("counts", "total", "_min_count", "_n_at_min")

    def __init__(self, domain: Iterable[Any]):
        self.counts: dict[Any, int] = {x: 0 for x in domain}
        if not self.counts:
            raise ValueError("domain must be non-empty")
        self.total = 0
        self._min_count = 0
        self._n_at_min = len(self.counts)

    @classmethod
    def from_counts(cls, counts: dict[Any, int]) -> "CountTable":
        table = cls(counts.keys())
        for value, count in counts.items():
            if count < 0:
                raise ValueError(f"negative count for {value!r}")
            table.counts[value] = int(count)
        table.total = sum(table.counts.values())
        table._min_count = min(table.counts.values())
        table._n_at_min = sum(1 for c in table.counts.values() if c == table._min_count)
        return table

    def increment(self, value: Any) -> int:
        """Count one draw of ``value`` and return its new count."""
        try:
            old = self.counts[value]
        except KeyError:
            raise DomainViolationError(f"value {value!r} is outside the declared domain") from None
        self.counts[value] = old + 1
        self.total += 1
        if old == self._min_count:
            self._n_at_min -= 1
            if self._n_at_min == 0:
                # The last bin at the old minimum just left it, so the new
                # minimum is exactly one higher; recount who sits there.
                self._min_count += 1
                self._n_at_min = sum(1 for c in self.counts.values() if c == self._min_count)
        return old + 1

    @property
    def min_count(self) -> int:
        return self._min_count

    @property
    def min_frequency(self) -> float:
        if self.total == 0:
            raise ValueError("no draws counted yet")
        return self._min_count / self.total

    def frequency(self, value: Any) -> float:
        if self.total == 0:
            raise ValueError("no draws counted yet")
        try:
            return self.counts[value] / self.total
        except KeyError:
            raise DomainViolationError(f"value {value!r} is outside the declared domain") from None

    def copy(self) -> "CountTable":
        return CountTable.from_counts(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.counts == other.counts and self.total == other.total

    def __repr__(self) -> str:
        return f"CountTable(total={self.total}, counts={self.counts!r})"


def acceptance_probability(counts: CountTable, value: Any, epsilon: float) -> float:
    """Probability of keeping a just-counted draw of ``value``.

    ``value`` must already have been counted at least once, which makes the
    result at most 1. With ``epsilon > 0`` the result is at least
    ``epsilon / (1 + epsilon)``.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    if counts.total == 0:
        raise ValueError("cannot compute an acceptance probability from an empty count table")
    if counts.frequency(value) == 0.0:
        raise ValueError(f"value {value!r} has never been counted")
    return _acceptance(counts.min_count, counts.counts[value], counts.total, epsilon)


def _acceptance(min_count: int, count: int, total: int, epsilon: float) -> float:
    # The one copy of the acceptance formula; callers check its inputs.
    return (min_count / total + epsilon) / (count / total + epsilon)


@dataclass(frozen=True)
class HomogenizerConfig:
    """Knobs for one homogenization run.

    ``max_draws`` bounds the source draws, warm-up included; None picks
    ``target_size * ceil(1 + 1/epsilon) * 20``, twenty times the expected
    need. An ``epsilon == 0`` run has no expected need and must set it.
    ``warm_up`` draws are counted before any acceptance starts.
    """

    epsilon: float
    target_size: int
    seed: int = 0
    max_draws: int | None = None
    warm_up: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, not {self.epsilon}")
        if self.target_size < 1:
            raise ValueError("target_size must be >= 1")
        if self.warm_up < 0:
            raise ValueError("warm_up must be >= 0")
        if self.max_draws is not None and self.max_draws < 1:
            raise ValueError("max_draws must be >= 1 when given")
        if self.epsilon == 0 and self.max_draws is None:
            raise ValueError(
                "epsilon=0 accepts nothing until every domain value has been seen; "
                "set max_draws to bound the run"
            )

    def resolved_max_draws(self) -> int:
        if self.max_draws is not None:
            return self.max_draws
        return self.target_size * math.ceil(expected_tries_bound(self.epsilon)) * 20


@dataclass(frozen=True)
class HomogenizedDataset:
    """Accepted samples plus the run's draw statistics."""

    items: tuple[Any, ...]
    draws_used: int
    final_counts: CountTable


class HomogenizerRun:
    """One homogenization pass; iterate it to receive accepted samples.

    The run owns a single RNG seeded from the config. The source draw and the
    acceptance coin interleave on that RNG in a fixed order, so the output is
    a pure function of (source, spec, config). A run can be consumed once.
    """

    def __init__(
        self,
        source: Callable[[random.Random], Any],
        spec: SalientSpec,
        config: HomogenizerConfig,
    ):
        self.source = source
        self.spec = spec
        self.config = config
        self.counts = CountTable(spec.domain)
        self.draws_used = 0
        self.accepted = 0
        self._rng = random.Random(config.seed)
        self._started = False

    def __iter__(self) -> Iterator[Any]:
        if self._started:
            raise RuntimeError("a HomogenizerRun can only be iterated once")
        self._started = True
        return self._iterate()

    def _iterate(self) -> Iterator[Any]:
        rng = self._rng
        coin = rng.random
        source = self.source
        extract = self.spec.extract
        counts = self.counts
        increment = counts.increment
        epsilon = self.config.epsilon
        target = self.config.target_size
        cap = self.config.resolved_max_draws()

        try:
            for _ in range(min(self.config.warm_up, cap)):
                increment(extract(source(rng)))
                self.draws_used += 1

            while self.accepted < target:
                if self.draws_used >= cap:
                    raise BudgetExhaustedError(
                        f"used {self.draws_used} draws but accepted only "
                        f"{self.accepted} of {target} samples",
                        draws_used=self.draws_used,
                        accepted=self.accepted,
                        counts=counts.copy(),
                    )
                sample = source(rng)
                count = increment(extract(sample))
                self.draws_used += 1
                # acceptance_probability's checks hold by construction here:
                # epsilon was checked by the config, and the value was just
                # counted, so the total and its count are at least 1.
                keep = _acceptance(counts._min_count, count, counts.total, epsilon)
                if coin() < keep:
                    self.accepted += 1
                    yield sample
        except DomainViolationError as exc:
            raise DomainViolationError(f"salient {self.spec.name!r}: {exc}") from None


def homogenize(
    source: Callable[[random.Random], Any],
    spec: SalientSpec,
    config: HomogenizerConfig,
) -> HomogenizedDataset:
    """Draw from ``source`` until ``config.target_size`` samples are accepted.

    Returns the accepted samples in acceptance order together with the total
    number of source draws and the final count table (which covers every
    draw, not just the accepted ones). Raises :class:`BudgetExhaustedError`
    if the draw budget runs out first; the result is never silently short.
    """
    run = HomogenizerRun(source, spec, config)
    items = tuple(run)
    return HomogenizedDataset(items=items, draws_used=run.draws_used, final_counts=run.counts)


def expected_tries_bound(epsilon: float) -> float:
    """Upper bound on expected source draws per accepted sample."""
    if not math.isfinite(epsilon):
        raise ValueError("the draw bound requires a finite epsilon")
    if epsilon <= 0:
        raise ValueError("the draw bound requires epsilon > 0")
    bound = 1.0 + 1.0 / epsilon
    if not math.isfinite(bound):
        raise ValueError("the draw bound 1 + 1/epsilon overflows a float")
    return bound


def required_presamples(
    domain_size: int,
    failure_prob: float,
    deviation: float,
    min_value_prob: float,
) -> float:
    """Source draws sufficient to certify near-uniformity of a sampler.

    After this many draws, with probability at least ``1 - failure_prob``
    every empirical frequency of a ``domain_size``-valued variable lies
    within ``deviation * (1/domain_size)`` of its true value, provided every
    value has probability at least ``min_value_prob``. Scales with
    ``log(domain_size)`` only, despite the per-value guarantee.
    """
    if domain_size < 1:
        raise ValueError("domain_size must be >= 1")
    if not 0 < failure_prob < 1:
        raise ValueError("failure_prob must be in (0, 1)")
    if deviation <= 0:
        raise ValueError("deviation must be > 0")
    if not 0 < min_value_prob <= 1:
        raise ValueError("min_value_prob must be in (0, 1]")
    return (
        48.0
        * math.log(2.0 * domain_size / failure_prob)
        / (min_value_prob * domain_size**2 * deviation**2)
    )
