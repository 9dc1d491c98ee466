import math
import random

import pytest

from homogen.diagnostics import (
    Histogram,
    acceptance_curve,
    kl_to_uniform,
)
from homogen.homogenizer import CountTable

from test_homogenizer import identity_spec, weighted_source


def hist(counts: dict) -> Histogram:
    return Histogram.from_values(counts, [v for v, c in counts.items() for _ in range(c)])


def test_kl_of_uniform_counts_is_zero():
    assert kl_to_uniform(hist({v: 25 for v in range(4)})) == 0.0


def test_kl_of_point_mass():
    h = hist({0: 100, 1: 0, 2: 0, 3: 0})
    assert kl_to_uniform(h) == pytest.approx(math.log(4.0))


def test_kl_of_three_to_one_split():
    # Oracle: 0.75 ln(1.5) + 0.25 ln(0.5).
    h = hist({0: 3, 1: 1})
    expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert kl_to_uniform(h) == pytest.approx(expected)
    assert kl_to_uniform(h) == pytest.approx(0.1308, abs=1e-4)


def test_kl_is_permutation_invariant_and_nonnegative():
    rng = random.Random(21)
    for _ in range(200):
        counts = [rng.randint(0, 30) for _ in range(6)]
        if sum(counts) == 0:
            counts[0] = 1
        h1 = hist({v: c for v, c in enumerate(counts)})
        rng.shuffle(counts)
        h2 = hist({v: c for v, c in enumerate(counts)})
        assert kl_to_uniform(h1) == pytest.approx(kl_to_uniform(h2))
        assert kl_to_uniform(h1) >= 0.0


def test_kl_rejects_empty_histogram():
    with pytest.raises(ValueError):
        kl_to_uniform(hist({0: 0, 1: 0}))


def test_kl_reads_a_count_table_as_it_reads_a_histogram():
    # The CLI counts values into a CountTable as they arrive, so its reports
    # must keep, to the last bit, the float a Histogram of the same values
    # gives. Some domain values stay unseen, and the table counts the values
    # in an order of its own.
    rng = random.Random(26)
    for domain in (range(2), range(7), "abcde", range(40, 0, -3), (None, 1.5, "x", (0, 1))):
        domain = tuple(domain)
        for _ in range(40):
            seen = rng.sample(domain, rng.randint(1, len(domain)))
            weights = [rng.random() for _ in seen]
            values = rng.choices(seen, weights, k=rng.randint(1, 300))
            table = CountTable(domain)
            for value in rng.sample(values, len(values)):
                table.increment(value)
            expected = kl_to_uniform(Histogram.from_values(domain, values))
            assert kl_to_uniform(table) == expected
            assert kl_to_uniform(hist({v: values.count(v) for v in domain})) == expected


def test_histogram_from_values_and_domain_check():
    h = Histogram.from_values((0, 1, 2), [0, 0, 2])
    assert h.counts == {0: 2, 1: 0, 2: 1}
    assert h.total == 3
    with pytest.raises(ValueError):
        Histogram.from_values((0, 1), [5])
    with pytest.raises(ValueError):
        Histogram.from_values((), [])


def test_histogram_is_a_count_table_whose_total_is_its_counts_sum():
    # A table is built only from values, so its total cannot disagree with
    # its counts: a total of 5 over counts {0: 1, 1: 1} once measured as 0.0.
    with pytest.raises(TypeError):
        Histogram(domain=(0, 1), counts={0: 1, 1: 1}, total=5)
    rng = random.Random(27)
    for _ in range(50):
        domain = tuple(range(rng.randint(1, 8)))
        h = Histogram.from_values(domain, rng.choices(domain, k=rng.randint(0, 40)))
        assert type(h) is CountTable
        assert tuple(h.counts) == domain
        assert h.total == sum(h.counts.values())


def test_acceptance_curve_huge_epsilon_costs_one_draw():
    source = weighted_source({0: 0.9, 1: 0.1})
    spec = identity_spec("value", (0, 1))
    points = acceptance_curve(source, spec, [1000.0], 2000, random.Random(3))
    assert points[0].draws_per_accept == pytest.approx(1.0, abs=0.05)
    assert points[0].draws_per_accept <= points[0].bound


def test_acceptance_curve_monotone_and_bounded():
    source = weighted_source({0: 0.6, 1: 0.25, 2: 0.1, 3: 0.05})
    spec = identity_spec("value", (0, 1, 2, 3))
    epsilons = [0.05, 0.1, 0.3, 1.0]
    points = acceptance_curve(source, spec, epsilons, 3000, random.Random(17))
    for p in points:
        assert p.draws_per_accept <= p.bound + 3.0 * p.stderr
    for a, b in zip(points, points[1:]):
        slack = 3.0 * math.sqrt(a.stderr**2 + b.stderr**2)
        assert b.draws_per_accept <= a.draws_per_accept + slack


def test_acceptance_curve_validates_arguments():
    source = weighted_source({0: 1.0})
    spec = identity_spec("value", (0,))
    with pytest.raises(ValueError):
        acceptance_curve(source, spec, [0.0], 10, random.Random(0))
    for draws_per_point in (0, 2.5, True):
        with pytest.raises(ValueError, match="^draws_per_point must be >= 1$"):
            acceptance_curve(source, spec, [0.1], draws_per_point, random.Random(0))
