"""Evening out a salient variable of a sample stream by rejection.

A *salient variable* is a caller-declared feature of a sample with a finite
discrete domain. A :class:`HomogenizerRun`, the one entry point, wraps any
seeded sampler and keeps drawing from it, accepting each draw of value
``x`` with probability

    (min_count / total + epsilon) / (count(x) / total + epsilon)

where the counts run over everything drawn so far, rejected draws
included, ``total`` is the number of those draws, and the minimum ranges
over the whole declared domain (values never seen count as zero).
Over-represented values are rejected more often, so the accepted stream's
marginal over the domain moves toward uniform. ``epsilon`` trades throughput for residual bias: each
accepted sample costs at most ``1 + 1/epsilon`` source draws in expectation,
and at ``epsilon = 0`` the accepted marginal converges to exactly uniform but
nothing is accepted until every domain value has been seen at least once, so
such a run must set its draw budget, ``max_draws``. If the source can never
draw some domain value, an ``epsilon = 0`` run accepts nothing and ends at
that budget: Karel ``size`` has a domain up to 160 while programs stop at 60
tokens, and t2t ``max_depth`` has a domain up to 15 while its trees reach 7.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from ._frozen import Frozen


class DomainViolationError(ValueError):
    """A salient extractor produced a value outside its declared domain."""


class BudgetExhaustedError(RuntimeError):
    """A sampling stall: a budget ran out before the wanted items were drawn.

    Two places raise it: a :class:`HomogenizerRun` whose ``max_draws`` ran
    out before the target size was reached, which keeps how far it got in
    ``draws_used``, ``accepted`` and ``counts``; and a Karel task stream
    (``karel.gen.task_source``) after 100 consecutive programs fail task
    assembly.
    """


class SalientSpec(Frozen):
    """A named finite-domain feature of samples.

    ``extract`` must be deterministic and must map every sample the source
    can produce into ``domain``.
    """

    __slots__ = ("name", "domain", "extract")

    def __init__(self, name: str, domain: Iterable[Any], extract: Callable[[Any], Any]) -> None:
        domain = tuple(domain)
        if not domain:
            raise ValueError("salient domain must be non-empty")
        if len(set(domain)) != len(domain):
            raise ValueError("salient domain contains duplicate values")
        super().__init__(name, domain, extract)


class CountTable:
    """Counts of values over a declared domain, in domain order, unseen ones at zero.

    ``min_count`` is maintained incrementally, so the acceptance
    probability stays O(1) per draw even for large domains.
    """

    __slots__ = ("counts", "total", "min_count", "_n_at_min")

    def __init__(self, domain: Iterable[Any]):
        self.counts: dict[Any, int] = {x: 0 for x in domain}
        if not self.counts:
            raise ValueError("domain must be non-empty")
        self.total = 0
        self.min_count = 0
        self._n_at_min = len(self.counts)

    @classmethod
    def from_values(cls, domain: Iterable[Any], values: Iterable[Any]) -> "CountTable":
        """A table over ``domain`` with each of ``values`` counted."""
        table = cls(domain)
        for v in values:
            table.increment(v)
        return table

    def increment(self, value: Any) -> int:
        """Count one draw of ``value`` and return its new count."""
        try:
            old = self.counts[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise DomainViolationError(f"value {value!r} is outside the declared domain") from None
        self.counts[value] = old + 1
        self.total += 1
        if old == self.min_count:
            self._n_at_min -= 1
            if self._n_at_min == 0:
                # The last bin at the old minimum just left it, so the new
                # minimum is exactly one higher; recount who sits there.
                self.min_count += 1
                self._n_at_min = sum(1 for c in self.counts.values() if c == self.min_count)
        return old + 1

    def __repr__(self) -> str:
        return f"CountTable(total={self.total}, counts={self.counts!r})"


class HomogenizerRun:
    """One homogenization pass and its own result: iterate it once to receive
    the accepted samples, then read ``draws_used``, ``accepted`` and ``counts``.

    ``target_size`` and ``max_draws`` are exact ints (no bool or float);
    ``max_draws`` bounds the source draws, and None picks
    ``target_size * ceil(1 + 1/epsilon) * 20``, twenty times the expected
    need, once, when the run is built. An ``epsilon == 0`` run has no
    expected need and must set it.

    The run owns a single RNG seeded from ``seed``. The source draw and the
    acceptance coin interleave on that RNG in a fixed order, so the output is
    a pure function of the source, the spec and the four settings. A run
    whose draw budget ends first raises :class:`BudgetExhaustedError`; it is
    never silently short.
    """

    def __init__(
        self,
        source: Callable[[random.Random], Any],
        spec: SalientSpec,
        *,
        epsilon: float,
        target_size: int,
        seed: int = 0,
        max_draws: int | None = None,
    ) -> None:
        if not (math.isfinite(epsilon) and epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, not {epsilon}")
        if not (type(target_size) is int and target_size >= 1):
            raise ValueError("target_size must be >= 1")
        if max_draws is not None and not (type(max_draws) is int and max_draws >= 1):
            raise ValueError("max_draws must be >= 1 when given")
        if epsilon == 0 and max_draws is None:
            raise ValueError(
                "epsilon=0 accepts nothing until every domain value has been seen; "
                "set max_draws to bound the run"
            )
        if max_draws is None:
            max_draws = target_size * math.ceil(expected_tries_bound(epsilon)) * 20
        self.source = source
        self.spec = spec
        self.epsilon = epsilon
        self.target_size = target_size
        self.max_draws = max_draws
        self.counts = CountTable(spec.domain)
        self.accepted = 0
        self._rng = random.Random(seed)
        self._started = False

    @property
    def draws_used(self) -> int:
        return self.counts.total  # every source draw, rejected ones included

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
        epsilon = self.epsilon
        target = self.target_size
        cap = self.max_draws

        try:
            while self.accepted < target:
                if counts.total >= cap:
                    raise BudgetExhaustedError(
                        f"draw budget exhausted after {counts.total} draws "
                        f"({self.accepted} accepted)"
                    )
                sample = source(rng)
                count = increment(extract(sample))
                # The formula's inputs are valid by construction: __init__
                # checked epsilon >= 0, and the value was just counted, so
                # total >= count >= max(1, min_count) and 0 <= keep <= 1.
                total = counts.total
                keep = (counts.min_count / total + epsilon) / (count / total + epsilon)
                if coin() < keep:
                    self.accepted += 1
                    yield sample
        except DomainViolationError as exc:
            raise DomainViolationError(f"salient {self.spec.name!r}: {exc}") from None


def expected_tries_bound(epsilon: float) -> float:
    """Upper bound on expected source draws per accepted sample."""
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite for the draw bound")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0 for the draw bound")
    bound = 1.0 + 1.0 / epsilon
    if not math.isfinite(bound):
        raise ValueError("epsilon is too small: the draw bound 1 + 1/epsilon overflows a float")
    return bound
