"""Goodness-of-fit helpers for the tests that check a sampler against its
exact law: Pearson's chi-squared statistic over pooled bins, and its upper
tail."""

import math


def chi2_sf(stat, df):
    """P(X >= stat) for X chi-squared on ``df`` degrees of freedom, from the
    closed form of the upper incomplete gamma function at a whole or
    half-whole order. Each series term ``y^a e^-y / Γ(a + 1)`` is taken from
    its logarithm, so a large statistic does not underflow ``e^-y`` to 0."""
    if stat <= 0:
        return 1.0
    y = stat / 2
    sf, order = (math.erfc(math.sqrt(y)), 0.5) if df % 2 else (0.0, 0.0)
    for _ in range(df // 2):
        sf += math.exp(order * math.log(y) - y - math.lgamma(order + 1))
        order += 1
    return sf


def chi2_against(law, counts):
    """Pearson's statistic and degrees of freedom of ``counts`` against the
    probabilities ``law``, adjacent values pooled upward until each pooled
    bin expects at least 5."""
    assert counts.keys() <= law.keys()
    n = sum(counts.values())
    bins, expected, observed = [], 0.0, 0
    for value in sorted(law):
        expected += n * law[value]
        observed += counts[value]
        if expected >= 5:
            bins.append((expected, observed))
            expected, observed = 0.0, 0
    last_expected, last_observed = bins.pop()
    bins.append((last_expected + expected, last_observed + observed))
    return sum((o - e) ** 2 / e for e, o in bins), len(bins) - 1
