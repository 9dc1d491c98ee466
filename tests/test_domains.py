"""Property tests of the CLI's domain table.

For random seeds and every salient variable, the function a ``homogenize``
run draws from returns the item that the ``generate`` source draws from the
same seed, with that variable's ``salient_specs()`` value, inside the spec's
domain and equal to what ``read`` measures on the item's written line. The
line is what the JSON encoder writes for the record it holds.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from homogen.cli import DOMAINS, _json_line, build_parser

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def check_one_pass_salients(domain_name, argv, seed):
    domain = DOMAINS[domain_name]
    args = build_parser().parse_args(
        ["generate", domain_name, *argv, "--count", "1", "--out", "unused.jsonl"]
    )
    source, measured_by, _ = domain.sources(args)
    item = source(random.Random(seed))
    line = domain.to_line(item)
    record = json.loads(line)
    assert _json_line(record) == line
    stored = domain.read(record)
    specs = domain.salient_specs()
    assert stored.keys() == specs.keys()
    for name, spec in specs.items():
        drawn, value = measured_by(name)(random.Random(seed))
        assert domain.to_line(drawn) == line, name
        assert value == spec.extract(item) == stored[name], name
        assert value in spec.domain, name


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, dist=st.sampled_from(["dcfg", "t2t", "rcfg", "bal"]))
def test_calc_one_pass_salients_match_every_spec(seed, dist):
    check_one_pass_salients("calc", ["--dist", dist], seed)


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
    check_one_pass_salients("karel", argv, seed)
