"""Property tests of the CLI's domain table.

For random seeds, the one-pass salients of a sampled item equal the value of
every ``salient_specs()`` extractor, stay in each spec's domain, and equal
what ``read`` measures on the item's stored JSON record.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from homogen import calc
from homogen.cli import DOMAINS, build_parser

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def check_one_pass_salients(domain_name, argv, seed, spec_input):
    domain = DOMAINS[domain_name]
    args = build_parser().parse_args(
        ["generate", domain_name, *argv, "--count", "1", "--out", "unused.jsonl"]
    )
    source, _ = domain.source(args)
    item = source(random.Random(seed))
    values = domain.salients(item)
    specs = domain.salient_specs()
    assert values.keys() == specs.keys()
    for name, spec in specs.items():
        assert values[name] == spec.extract(spec_input(item)), name
        assert values[name] in spec.domain, name
    record = json.loads(json.dumps(domain.to_record(item)))
    assert domain.read(record) == values


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, dist=st.sampled_from(["dcfg", "t2t", "rcfg", "bal"]))
def test_calc_one_pass_salients_match_every_spec(seed, dist):
    check_one_pass_salients("calc", ["--dist", dist], seed, calc.render)


@settings(max_examples=10, deadline=None)
@given(
    seed=SEEDS,
    argv=st.sampled_from([
        [],
        ["--pairs", "uniform"],
        ["--grids", "narrow", "--r-wall", "0.25", "--r-marker", "0.65"],
    ]),
)
def test_karel_one_pass_salients_match_every_spec(seed, argv):
    check_one_pass_salients("karel", argv, seed, lambda task: task)
