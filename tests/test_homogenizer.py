import math
import random

import pytest

from homogen import homogenizer
from homogen.homogenizer import (
    BudgetExhaustedError,
    CountTable,
    DomainViolationError,
    HomogenizerConfig,
    HomogenizerRun,
    SalientSpec,
    acceptance_probability,
    expected_tries_bound,
    homogenize,
    required_presamples,
)


def weighted_source(weights: dict):
    """Deterministic-given-rng categorical source over the dict's keys."""
    values = list(weights)
    cumulative = []
    acc = 0.0
    for v in values:
        acc += weights[v]
        cumulative.append(acc)

    def draw(rng: random.Random):
        r = rng.random() * acc
        for v, c in zip(values, cumulative):
            if r < c:
                return v
        return values[-1]

    return draw


def identity_spec(name, domain):
    return SalientSpec(name=name, domain=tuple(domain), extract=lambda s: s)


# ---------------------------------------------------------------------------
# acceptance_probability


def test_acceptance_probability_balanced_counts():
    counts = CountTable.from_counts({"a": 1, "b": 1})
    assert acceptance_probability(counts, "a", 0.0) == 1.0


def test_acceptance_probability_overrepresented_value():
    counts = CountTable.from_counts({"a": 3, "b": 1})
    assert acceptance_probability(counts, "a", 0.0) == pytest.approx(1.0 / 3.0)
    assert acceptance_probability(counts, "a", 0.25) == pytest.approx(0.5)


def test_acceptance_probability_requires_counted_value():
    counts = CountTable.from_counts({"a": 2, "b": 0})
    with pytest.raises(ValueError):
        acceptance_probability(counts, "b", 0.1)


def test_acceptance_probability_rejects_empty_table():
    counts = CountTable(["a", "b"])
    with pytest.raises(ValueError):
        acceptance_probability(counts, "a", 0.1)


def test_acceptance_probability_monotone_in_epsilon():
    rng = random.Random(7)
    for _ in range(200):
        counts = CountTable.from_counts(
            {k: rng.randint(0, 50) for k in "abcde"} | {"f": rng.randint(1, 50)}
        )
        e1 = rng.uniform(0.0, 2.0)
        e2 = e1 + rng.uniform(0.001, 3.0)
        g1 = acceptance_probability(counts, "f", e1)
        g2 = acceptance_probability(counts, "f", e2)
        assert g2 >= g1
        assert 0.0 <= g1 <= 1.0


def test_acceptance_probability_lower_bound_during_run():
    # Drive the counting loop by hand and check every draw's probability
    # against the epsilon/(1+epsilon) floor.
    rng = random.Random(11)
    source = weighted_source({0: 0.7, 1: 0.2, 2: 0.09, 3: 0.01})
    for epsilon in (0.01, 0.1, 0.5, 2.0):
        counts = CountTable([0, 1, 2, 3])
        floor = epsilon / (1.0 + epsilon)
        for _ in range(3000):
            v = source(rng)
            counts.increment(v)
            g = acceptance_probability(counts, v, epsilon)
            assert floor <= g <= 1.0


def test_run_acceptance_equals_acceptance_probability_bit_for_bit():
    # The run computes the acceptance from the count ``increment`` returns
    # instead of calling acceptance_probability; on random count tables both
    # give the same float as the pre-change formula, to the last bit.
    rng = random.Random(12)
    for _ in range(40):
        domain = range(rng.randint(1, 30))
        table = CountTable.from_counts({x: rng.randint(0, 50) for x in domain})
        for epsilon in (0.0, 1e-9, 0.025, 0.1, rng.random(), 3.0):
            for _ in range(50):
                v = rng.choice(domain)
                count = table.increment(v)
                assert count == table.counts[v]
                inlined = homogenizer._acceptance(table.min_count, count, table.total, epsilon)
                old = (table.min_frequency + epsilon) / (table.frequency(v) + epsilon)
                assert inlined.hex() == acceptance_probability(table, v, epsilon).hex()
                assert inlined.hex() == old.hex()


def _reference_run(source, spec, config):
    """The pre-change run loop, calling acceptance_probability on every draw."""
    rng = random.Random(config.seed)
    counts = CountTable(spec.domain)
    draws = 0
    for _ in range(config.warm_up):
        counts.increment(spec.extract(source(rng)))
        draws += 1
    items = []
    cap = config.resolved_max_draws()
    while len(items) < config.target_size and (cap is None or draws < cap):
        sample = source(rng)
        value = spec.extract(sample)
        counts.increment(value)
        draws += 1
        if rng.random() < acceptance_probability(counts, value, config.epsilon):
            items.append(sample)
    return items, draws, counts


@pytest.mark.parametrize("epsilon, warm_up", [(0.025, 0), (0.3, 0), (0.0, 50), (2.0, 10)])
def test_run_matches_the_reference_loop(epsilon, warm_up):
    domain = list(range(8))
    source = weighted_source({v: (v + 1.0) ** 2 for v in domain})
    spec = identity_spec("value", domain)
    config = HomogenizerConfig(
        epsilon=epsilon, target_size=1500, seed=31, warm_up=warm_up,
        max_draws=None if epsilon else 1_000_000,
    )
    data = homogenize(source, spec, config)
    items, draws, counts = _reference_run(source, spec, config)
    assert list(data.items) == items
    assert data.draws_used == draws
    assert data.final_counts == counts


# ---------------------------------------------------------------------------
# CountTable


def test_count_table_tracks_minimum_incrementally():
    rng = random.Random(3)
    domain = list(range(12))
    table = CountTable(domain)
    shadow = {x: 0 for x in domain}
    for _ in range(5000):
        v = rng.choice(domain) if rng.random() < 0.8 else 0
        table.increment(v)
        shadow[v] += 1
        assert table.min_count == min(shadow.values())
        assert table.total == sum(shadow.values())
    assert table.counts == shadow


def test_count_table_rejects_unknown_value():
    table = CountTable(["a"])
    with pytest.raises(DomainViolationError):
        table.increment("b")


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        HomogenizerConfig(epsilon=-0.1, target_size=10)
    with pytest.raises(ValueError):
        HomogenizerConfig(epsilon=0.1, target_size=0)
    with pytest.raises(ValueError):
        HomogenizerConfig(epsilon=0.1, target_size=10, warm_up=-1)
    with pytest.raises(ValueError):
        HomogenizerConfig(epsilon=0.1, target_size=10, max_draws=0)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        HomogenizerConfig(epsilon=epsilon, target_size=10)


def test_config_epsilon_zero_needs_opt_in():
    # At epsilon 0 no default budget exists, and a warm-up bounds nothing.
    with pytest.raises(ValueError, match="max_draws"):
        HomogenizerConfig(epsilon=0.0, target_size=10)
    with pytest.raises(ValueError, match="max_draws"):
        HomogenizerConfig(epsilon=0.0, target_size=1, warm_up=1)
    assert HomogenizerConfig(epsilon=0.0, target_size=10, max_draws=5).resolved_max_draws() == 5


def test_default_budget_is_twenty_times_the_expected_need():
    # target_size * ceil(1 + 1/epsilon) * 20: ceil(41.0) = 41 and ceil(4.33) = 5.
    assert HomogenizerConfig(epsilon=0.025, target_size=7).resolved_max_draws() == 5_740
    assert HomogenizerConfig(epsilon=0.3, target_size=7).resolved_max_draws() == 700


# ---------------------------------------------------------------------------
# homogenize


def test_uniform_source_stays_uniform():
    domain = list(range(10))
    source = weighted_source({v: 1.0 for v in domain})
    spec = identity_spec("value", domain)
    data = homogenize(source, spec, HomogenizerConfig(epsilon=0.1, target_size=1000, seed=5))
    assert len(data.items) == 1000
    # Each bin within 5 standard deviations of the uniform expectation.
    sd = math.sqrt(1000 * 0.1 * 0.9)
    for v in domain:
        n_v = sum(1 for item in data.items if item == v)
        assert abs(n_v - 100) <= 5 * sd


def test_epsilon_zero_evens_out_a_biased_source():
    # 0.9/0.1 source; accepted shares predicted equal because each value's
    # acceptance probability scales as 1/frequency.
    domain = (0, 1)
    source = weighted_source({0: 0.9, 1: 0.1})
    spec = identity_spec("value", domain)
    config = HomogenizerConfig(epsilon=0.0, target_size=10_000, seed=9, max_draws=1_000_000)
    data = homogenize(source, spec, config)
    freq_rare = sum(1 for item in data.items if item == 1) / len(data.items)
    assert 0.45 <= freq_rare <= 0.55


def test_huge_epsilon_passes_the_source_through():
    domain = (0, 1)
    source = weighted_source({0: 0.99, 1: 0.01})
    spec = identity_spec("value", domain)
    data = homogenize(source, spec, HomogenizerConfig(epsilon=1000.0, target_size=10_000, seed=2))
    freq_common = sum(1 for item in data.items if item == 0) / len(data.items)
    assert freq_common >= 0.97


def test_counts_cover_every_draw_including_rejections():
    domain = (0, 1, 2)
    source = weighted_source({0: 0.8, 1: 0.15, 2: 0.05})
    spec = identity_spec("value", domain)
    config = HomogenizerConfig(epsilon=0.05, target_size=500, seed=13, warm_up=50)
    data = homogenize(source, spec, config)
    assert data.final_counts.total == data.draws_used
    assert data.draws_used >= len(data.items) + 50
    assert len(data.items) == 500


def test_uniformity_improvement_across_seeds():
    # Homogenized output should be closer to uniform than an equally sized
    # raw sample, for every seed tried.
    domain = list(range(6))
    weights = {0: 0.55, 1: 0.25, 2: 0.1, 3: 0.06, 4: 0.03, 5: 0.01}
    source = weighted_source(weights)
    spec = identity_spec("value", domain)

    def kl_to_uniform(values):
        k = len(domain)
        n = len(values)
        acc = 0.0
        for v in domain:
            c = sum(1 for x in values if x == v)
            if c:
                p = c / n
                acc += p * math.log(p * k)
        return acc

    for seed in range(20):
        config = HomogenizerConfig(epsilon=0.05, target_size=10_000, seed=seed)
        data = homogenize(source, spec, config)
        rng = random.Random(seed + 10_000)
        raw = [source(rng) for _ in range(10_000)]
        assert kl_to_uniform(data.items) < kl_to_uniform(raw)


def test_same_seed_reproduces_the_run_exactly():
    domain = list(range(5))
    source = weighted_source({v: v + 1.0 for v in domain})
    spec = identity_spec("value", domain)
    config = HomogenizerConfig(epsilon=0.02, target_size=2000, seed=77)
    a = homogenize(source, spec, config)
    b = homogenize(source, spec, config)
    assert a.items == b.items
    assert a.draws_used == b.draws_used
    assert a.final_counts == b.final_counts
    c = homogenize(source, spec, HomogenizerConfig(epsilon=0.02, target_size=2000, seed=78))
    assert c.items != a.items


def test_budget_exhaustion_is_an_error_with_statistics():
    domain = (0, 1)
    source = weighted_source({0: 0.5, 1: 0.5})
    spec = identity_spec("value", domain)
    config = HomogenizerConfig(epsilon=0.1, target_size=10_000, seed=4, max_draws=50)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        homogenize(source, spec, config)
    err = excinfo.value
    assert err.draws_used == 50
    assert 0 <= err.accepted < 10_000
    assert err.counts.total == 50


def test_epsilon_zero_run_over_a_value_never_drawn_stops_at_its_budget():
    # Value 2 is never drawn, so the minimum count stays 0 and every
    # acceptance probability stays 0.
    spec = identity_spec("value", (0, 1, 2))
    config = HomogenizerConfig(epsilon=0.0, target_size=1, seed=3, max_draws=500)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        homogenize(weighted_source({0: 0.5, 1: 0.5}), spec, config)
    assert excinfo.value.draws_used == 500
    assert excinfo.value.accepted == 0


def test_warm_up_stops_at_the_draw_budget():
    spec = identity_spec("value", (0, 1))
    config = HomogenizerConfig(epsilon=0.1, target_size=5, seed=3, max_draws=10, warm_up=100)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        homogenize(weighted_source({0: 0.5, 1: 0.5}), spec, config)
    assert excinfo.value.draws_used == 10
    assert excinfo.value.counts.total == 10


def test_extractor_outside_domain_raises():
    spec = SalientSpec(name="bad", domain=(0, 1), extract=lambda s: 2)
    config = HomogenizerConfig(epsilon=0.1, target_size=10, seed=1)
    with pytest.raises(DomainViolationError, match="bad"):
        homogenize(lambda rng: 0, spec, config)


def test_run_is_single_use():
    domain = (0, 1)
    spec = identity_spec("value", domain)
    run = HomogenizerRun(
        weighted_source({0: 0.5, 1: 0.5}),
        spec,
        HomogenizerConfig(epsilon=0.5, target_size=5, seed=0),
    )
    list(run)
    with pytest.raises(RuntimeError):
        iter(run)


def test_warm_up_draws_are_counted_but_not_emitted():
    domain = (0, 1)
    source = weighted_source({0: 0.5, 1: 0.5})
    spec = identity_spec("value", domain)
    config = HomogenizerConfig(
        epsilon=0.0, target_size=100, seed=6, warm_up=200, max_draws=10_000
    )
    data = homogenize(source, spec, config)
    assert len(data.items) == 100
    assert data.draws_used >= 300


def test_salient_spec_validation():
    with pytest.raises(ValueError):
        SalientSpec(name="x", domain=(), extract=lambda s: s)
    with pytest.raises(ValueError):
        SalientSpec(name="x", domain=(1, 1), extract=lambda s: s)


# ---------------------------------------------------------------------------
# bounds


def test_expected_tries_bound():
    assert expected_tries_bound(0.025) == pytest.approx(41.0)
    assert expected_tries_bound(1.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        expected_tries_bound(0.0)
    with pytest.raises(ValueError):
        expected_tries_bound(-1.0)
    for epsilon in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite epsilon"):
            expected_tries_bound(epsilon)
    # A subnormal epsilon is finite and positive, but 1/epsilon overflows.
    assert math.isfinite(expected_tries_bound(1e-308))
    with pytest.raises(ValueError, match="overflows"):
        expected_tries_bound(1e-320)
    with pytest.raises(ValueError, match="overflows"):
        HomogenizerConfig(epsilon=1e-320, target_size=5).resolved_max_draws()


def test_required_presamples_formula():
    # Oracle: direct evaluation of 48 ln(2K/delta) / (p K^2 xi^2).
    value = required_presamples(2, 0.1, 0.1, 0.5)
    assert value == pytest.approx(48.0 * math.log(40.0) / (0.5 * 4 * 0.01))
    assert value == pytest.approx(8853.3, abs=0.5)


def test_required_presamples_scaling():
    base = required_presamples(8, 0.05, 0.2, 0.1)
    assert required_presamples(8, 0.05, 0.4, 0.1) == pytest.approx(base / 4.0)
    assert required_presamples(8, 0.05, 0.2, 0.05) == pytest.approx(base * 2.0)


def test_required_presamples_validation():
    with pytest.raises(ValueError):
        required_presamples(0, 0.1, 0.1, 0.5)
    with pytest.raises(ValueError):
        required_presamples(2, 0.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        required_presamples(2, 0.1, 0.0, 0.5)
    with pytest.raises(ValueError):
        required_presamples(2, 0.1, 0.1, 0.0)
