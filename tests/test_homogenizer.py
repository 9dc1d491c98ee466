import math
import random

import pytest

from homogen.homogenizer import (
    BudgetExhaustedError,
    CountTable,
    DomainViolationError,
    HomogenizerRun,
    SalientSpec,
    expected_tries_bound,
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


def constant_run(**settings):
    """A run over a one-value source, for checks of the settings alone."""
    return HomogenizerRun(lambda rng: 0, identity_spec("value", (0,)), **settings)


# ---------------------------------------------------------------------------
# the run loop against an independent reference


def _reference_run(source, spec, epsilon, target_size, seed=0, max_draws=None):
    """The paper's loop written out: plain dict counts, the minimum
    recomputed on every draw, and the acceptance formula inline."""
    rng = random.Random(seed)
    counts = {x: 0 for x in spec.domain}
    draws = 0
    items = []
    cap = max_draws if max_draws is not None else target_size * math.ceil(1 + 1 / epsilon) * 20
    while len(items) < target_size and draws < cap:
        sample = source(rng)
        value = spec.extract(sample)
        counts[value] += 1
        draws += 1
        keep = (min(counts.values()) / draws + epsilon) / (counts[value] / draws + epsilon)
        if epsilon > 0:
            # An over-represented value is still kept at this floor.
            assert epsilon / (1 + epsilon) <= keep <= 1
        if rng.random() < keep:
            items.append(sample)
    return items, draws, counts


@pytest.mark.parametrize("epsilon", [0.025, 0.3, 0.0, 2.0])
def test_run_matches_the_reference_loop(epsilon):
    domain = list(range(8))
    source = weighted_source({v: (v + 1.0) ** 2 for v in domain})
    spec = identity_spec("value", domain)
    settings = dict(
        epsilon=epsilon, target_size=1500, seed=31, max_draws=None if epsilon else 1_000_000,
    )
    run = HomogenizerRun(source, spec, **settings)
    accepted = list(run)
    items, draws, counts = _reference_run(source, spec, **settings)
    assert accepted == items
    assert run.accepted == len(items)
    assert run.draws_used == draws
    assert run.counts.counts == counts


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5, 2.0])
def test_run_keeps_the_acceptance_floor_on_a_skewed_source(epsilon):
    # A value drawn 1% of the time holds the minimum down, so the common
    # values sit near the eps/(1+eps) floor that the reference asserts on
    # every draw.
    domain = [0, 1, 2, 3]
    source = weighted_source({0: 0.7, 1: 0.2, 2: 0.09, 3: 0.01})
    spec = identity_spec("value", domain)
    run = HomogenizerRun(source, spec, epsilon=epsilon, target_size=1000, seed=11)
    accepted = list(run)
    items, draws, counts = _reference_run(source, spec, epsilon, target_size=1000, seed=11)
    assert accepted == items
    assert run.draws_used == draws
    assert run.counts.counts == counts


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
# settings validation

EPSILON_MESSAGE = "epsilon must be finite and >= 0, not {}"
TARGET_MESSAGE = "target_size must be >= 1"
MAX_DRAWS_MESSAGE = "max_draws must be >= 1 when given"

# Settings a run refuses, and the message it refuses them with. The checks
# run in a fixed order, so with several bad settings the first one names it.
INVALID_SETTINGS = [
    ({"epsilon": math.nan, "target_size": 1}, EPSILON_MESSAGE.format("nan")),
    ({"epsilon": -0.1, "target_size": 1}, EPSILON_MESSAGE.format(-0.1)),
    ({"epsilon": 0.1, "target_size": 0}, TARGET_MESSAGE),
    ({"epsilon": 0.1, "target_size": 1, "max_draws": 0}, MAX_DRAWS_MESSAGE),
    ({"epsilon": 0.0, "target_size": 1},
     "epsilon=0 accepts nothing until every domain value has been seen; "
     "set max_draws to bound the run"),
    ({"epsilon": 1e-320, "target_size": 1}, "the draw bound 1 + 1/epsilon overflows a float"),
    ({"epsilon": math.nan, "target_size": 0, "max_draws": 0}, EPSILON_MESSAGE.format("nan")),
    ({"epsilon": 0.1, "target_size": 0, "max_draws": 0}, TARGET_MESSAGE),
    ({"epsilon": 0.0, "target_size": 1, "max_draws": 0}, MAX_DRAWS_MESSAGE),
    ({"epsilon": 0.1, "target_size": 2.5}, TARGET_MESSAGE),
    ({"epsilon": 0.1, "target_size": True}, TARGET_MESSAGE),
    ({"epsilon": 0.1, "target_size": 1, "max_draws": 10.5}, MAX_DRAWS_MESSAGE),
]


@pytest.mark.parametrize(
    "settings, message", INVALID_SETTINGS,
    ids=["-".join(map(str, settings.values())) for settings, _ in INVALID_SETTINGS],
)
def test_run_rejects_invalid_settings(settings, message):
    with pytest.raises(ValueError) as excinfo:
        constant_run(**settings)
    assert str(excinfo.value) == message


def test_config_rejects_bad_parameters():
    # The settings are keyword-only, so epsilon and target_size cannot swap.
    with pytest.raises(TypeError):
        HomogenizerRun(lambda rng: 0, identity_spec("value", (0,)), 0.1, 10)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        constant_run(epsilon=epsilon, target_size=10)


def test_config_epsilon_zero_needs_opt_in():
    # At epsilon 0 no default budget exists.
    with pytest.raises(ValueError, match="max_draws"):
        constant_run(epsilon=0.0, target_size=10)
    assert constant_run(epsilon=0.0, target_size=10, max_draws=5).max_draws == 5


def test_default_budget_is_twenty_times_the_expected_need():
    # target_size * ceil(1 + 1/epsilon) * 20: ceil(41.0) = 41 and ceil(4.33) = 5.
    assert constant_run(epsilon=0.025, target_size=7).max_draws == 5_740
    assert constant_run(epsilon=0.3, target_size=7).max_draws == 700


# ---------------------------------------------------------------------------
# runs


def test_uniform_source_stays_uniform():
    domain = list(range(10))
    source = weighted_source({v: 1.0 for v in domain})
    spec = identity_spec("value", domain)
    items = list(HomogenizerRun(source, spec, epsilon=0.1, target_size=1000, seed=5))
    assert len(items) == 1000
    # Each bin within 5 standard deviations of the uniform expectation.
    sd = math.sqrt(1000 * 0.1 * 0.9)
    for v in domain:
        n_v = sum(1 for item in items if item == v)
        assert abs(n_v - 100) <= 5 * sd


def test_epsilon_zero_evens_out_a_biased_source():
    # 0.9/0.1 source; accepted shares predicted equal because each value's
    # acceptance probability scales as 1/frequency.
    domain = (0, 1)
    source = weighted_source({0: 0.9, 1: 0.1})
    spec = identity_spec("value", domain)
    items = list(HomogenizerRun(source, spec, epsilon=0.0, target_size=10_000, seed=9,
                                max_draws=1_000_000))
    freq_rare = sum(1 for item in items if item == 1) / len(items)
    assert 0.45 <= freq_rare <= 0.55


def test_huge_epsilon_passes_the_source_through():
    domain = (0, 1)
    source = weighted_source({0: 0.99, 1: 0.01})
    spec = identity_spec("value", domain)
    items = list(HomogenizerRun(source, spec, epsilon=1000.0, target_size=10_000, seed=2))
    freq_common = sum(1 for item in items if item == 0) / len(items)
    assert freq_common >= 0.97


def test_counts_cover_every_draw_including_rejections():
    domain = (0, 1, 2)
    source = weighted_source({0: 0.8, 1: 0.15, 2: 0.05})
    spec = identity_spec("value", domain)
    run = HomogenizerRun(source, spec, epsilon=0.05, target_size=500, seed=13)
    items = list(run)
    assert sum(run.counts.counts.values()) == run.draws_used
    assert run.draws_used > len(items)
    assert len(items) == run.accepted == 500


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
        items = list(HomogenizerRun(source, spec, epsilon=0.05, target_size=10_000, seed=seed))
        rng = random.Random(seed + 10_000)
        raw = [source(rng) for _ in range(10_000)]
        assert kl_to_uniform(items) < kl_to_uniform(raw)


def test_same_seed_reproduces_the_run_exactly():
    domain = list(range(5))
    source = weighted_source({v: v + 1.0 for v in domain})
    spec = identity_spec("value", domain)
    settings = dict(epsilon=0.02, target_size=2000, seed=77)
    a, b = HomogenizerRun(source, spec, **settings), HomogenizerRun(source, spec, **settings)
    a_items = list(a)
    assert list(b) == a_items
    assert a.draws_used == b.draws_used
    assert a.counts.counts == b.counts.counts
    c = HomogenizerRun(source, spec, epsilon=0.02, target_size=2000, seed=78)
    assert list(c) != a_items


def test_budget_exhaustion_is_an_error_with_statistics():
    domain = (0, 1)
    source = weighted_source({0: 0.5, 1: 0.5})
    spec = identity_spec("value", domain)
    run = HomogenizerRun(source, spec, epsilon=0.1, target_size=10_000, seed=4, max_draws=50)
    with pytest.raises(BudgetExhaustedError) as excinfo:
        list(run)
    # The run keeps its statistics; the error only reports them.
    assert str(excinfo.value) == f"draw budget exhausted after 50 draws ({run.accepted} accepted)"
    assert run.draws_used == 50
    assert 0 <= run.accepted < 10_000
    assert run.counts.total == 50


def test_epsilon_zero_run_over_a_value_never_drawn_stops_at_its_budget():
    # Value 2 is never drawn, so the minimum count stays 0 and every
    # acceptance probability stays 0.
    spec = identity_spec("value", (0, 1, 2))
    run = HomogenizerRun(weighted_source({0: 0.5, 1: 0.5}), spec,
                         epsilon=0.0, target_size=1, seed=3, max_draws=500)
    with pytest.raises(BudgetExhaustedError, match=r"^draw budget exhausted after 500 draws "
                                                   r"\(0 accepted\)$"):
        list(run)
    assert run.draws_used == 500
    assert run.accepted == 0


def test_extractor_outside_domain_raises():
    spec = SalientSpec(name="bad", domain=(0, 1), extract=lambda s: 2)
    with pytest.raises(DomainViolationError, match="bad"):
        list(HomogenizerRun(lambda rng: 0, spec, epsilon=0.1, target_size=10, seed=1))


def test_unhashable_salient_value_is_a_domain_violation():
    table = CountTable((0, 1))
    with pytest.raises(DomainViolationError, match=r"value \[0\] is outside"):
        table.increment([0])
    assert table.total == 0
    spec = SalientSpec(name="boxed", domain=(0, 1), extract=lambda s: [s])
    with pytest.raises(DomainViolationError, match=r"^salient 'boxed': value \[0\]"):
        list(HomogenizerRun(lambda rng: 0, spec, epsilon=0.1, target_size=10, seed=1))


def test_draws_used_is_the_count_tables_total_when_a_run_stops_early():
    calls = 0

    def source(rng):
        nonlocal calls
        calls += 1
        return 2 if calls == 30 else rng.randrange(2)

    spec = identity_spec("value", (0, 1))
    # The budget stops the run before the 30th draw: every draw was counted.
    run = HomogenizerRun(source, spec, epsilon=0.1, target_size=10_000, seed=5, max_draws=29)
    with pytest.raises(BudgetExhaustedError, match="after 29 draws"):
        list(run)
    assert calls == 29
    assert run.draws_used == run.counts.total == 29
    # The 30th draw is outside the domain: it raises and is not counted.
    calls = 0
    run = HomogenizerRun(source, spec, epsilon=0.1, target_size=10_000, seed=5)
    with pytest.raises(DomainViolationError):
        list(run)
    assert calls == 30
    assert run.draws_used == run.counts.total == 29
    with pytest.raises(AttributeError):
        run.draws_used = 0


def test_run_is_single_use():
    domain = (0, 1)
    spec = identity_spec("value", domain)
    run = HomogenizerRun(weighted_source({0: 0.5, 1: 0.5}), spec, epsilon=0.5, target_size=5)
    list(run)
    with pytest.raises(RuntimeError):
        iter(run)


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
        constant_run(epsilon=1e-320, target_size=5)
    # A run that sets its own budget never needs the bound.
    assert constant_run(epsilon=1e-320, target_size=5, max_draws=9).max_draws == 9


def test_config_that_constructs_always_resolves_its_budget():
    # Construction resolves the default budget, so a run never fails on it:
    # every epsilon either is refused up front or resolves to a draw count.
    epsilons = [10.0 ** -k for k in range(0, 324, 3)] + [5e-324, 2.0 ** -1024, 2.0 ** -1022]
    assert all(epsilon > 0 for epsilon in epsilons)
    refused = 0
    for epsilon in epsilons:
        try:
            budget = constant_run(epsilon=epsilon, target_size=5).max_draws
        except ValueError as exc:
            assert "overflows" in str(exc)
            refused += 1
            continue
        assert isinstance(budget, int) and budget >= 5 * 20
    assert 0 < refused < len(epsilons)

