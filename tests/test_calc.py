import copy
import math
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homogen import calc, cli
from homogen.karel.lang import KarelSyntaxError, parse_program
from homogen.rng import randbelow
from homogen.calc import (
    _SALIENT_DOMAINS as DOMAINS,
    MAX_NESTING,
    MAX_NODES,
    OPS,
    Bal,
    BinOp,
    CalcParseError,
    Dcfg,
    Rcfg,
    T2t,
    _salients_of_text,
    calc_salients,
    eval_mod10,
    expr_record,
    expr_salients,
    parse_expr,
    render,
    salient_specs,
    sample_expr,
    sample_record,
)
from laws import chi2_against, chi2_sf

ALL_SAMPLERS = (Dcfg(), T2t(), Rcfg(), Bal())


def sampler_id(sampler):
    """The sampler's text in a calc manifest, which names its test cases."""
    return cli._CALC_DISTS[type(sampler).__name__.lower()][1].format(sampler)


def exact_value(expr):
    """Unbounded-integer oracle; mod applied only at the end by callers."""
    if type(expr) is int:
        return expr
    left, right = exact_value(expr.left), exact_value(expr.right)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    return left * right


def tree_depth(expr):
    if type(expr) is int:
        return 0
    return 1 + max(tree_depth(expr.left), tree_depth(expr.right))


def fuzz_exprs(n, seed):
    rng = random.Random(seed)
    for i in range(n):
        yield sample_expr(rng, ALL_SAMPLERS[i % len(ALL_SAMPLERS)])


# ---------------------------------------------------------------------------
# evaluation


def test_eval_examples():
    assert eval_mod10(parse_expr("5+4*(2+3)")) == 5
    assert eval_mod10(7) == 7
    assert eval_mod10(parse_expr("1-2")) == 9


@pytest.mark.parametrize(
    "value", [True, False, 1.0, 10, -1, "3", None],
    ids=["true", "false", "float", "ten", "minus-one", "str", "none"],
)
def test_digit_requires_an_exact_int(value):
    # A bool is an int subclass, so it would render as "True" yet evaluate as 1.
    # A leaf is not checked when built, so the walk behind every written
    # record, and the one that measures a draw, reject it, as the whole tree
    # or as a left or right child.
    message = rf"^not a calculator expression: {re.escape(repr(value))}$"
    for tree in (value, BinOp("+", value, 2), BinOp("*", 3, BinOp("-", 4, value))):
        for walk in (expr_record, render, eval_mod10, expr_salients):
            with pytest.raises(TypeError, match=message):
                walk(tree)


def test_eval_matches_exact_arithmetic():
    for expr in fuzz_exprs(2000, seed=101):
        assert eval_mod10(expr) == exact_value(expr) % 10


def test_eval_matches_python_eval_of_rendered_text():
    for expr in fuzz_exprs(500, seed=102):
        assert eval_mod10(expr) == eval(render(expr)) % 10


def test_mod_is_a_homomorphism_on_every_node():
    # (a op b) mod 10 == ((a mod 10) op (b mod 10)) mod 10 at each node.
    def check(expr):
        if type(expr) is int:
            return
        l, r = exact_value(expr.left), exact_value(expr.right)
        lm, rm = eval_mod10(expr.left), eval_mod10(expr.right)
        op = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b}[expr.op]
        assert op(l, r) % 10 == op(lm, rm) % 10 == eval_mod10(expr)
        check(expr.left)
        check(expr.right)

    for expr in fuzz_exprs(300, seed=103):
        check(expr)


# ---------------------------------------------------------------------------
# rendering and parsing


def test_render_examples():
    assert render(BinOp("*", BinOp("+", 1, 2), 3)) == "(1+2)*3"
    assert render(BinOp("+", 1, BinOp("*", 2, 3))) == "1+2*3"
    assert render(BinOp("-", 1, BinOp("+", 2, 3))) == "1-(2+3)"


def test_parse_examples():
    assert parse_expr("7") == 7
    expr = parse_expr("(1+2)*(3-4)+5")
    assert expr == BinOp(
        "+",
        BinOp("*", BinOp("+", 1, 2), BinOp("-", 3, 4)),
        5,
    )


def test_parse_is_left_associative_with_precedence():
    assert parse_expr("1+2+3") == BinOp("+", BinOp("+", 1, 2), 3)
    assert parse_expr("1-2*3") == BinOp("-", 1, BinOp("*", 2, 3))


@pytest.mark.parametrize("parse, text, error, message, position", [
    (parse_expr, "(1+2", CalcParseError, "expected ')' at position 4", 4),
    (parse_program, "def run() : move )", KarelSyntaxError, "expected 'main', found 'run' at 4", 4),
], ids=["calc", "karel"])
def test_parse_errors_survive_pickle_and_deepcopy(parse, text, error, message, position):
    with pytest.raises(error) as excinfo:
        parse(text)
    assert (str(excinfo.value), excinfo.value.position) == (message, position)
    for clone in (pickle.loads(pickle.dumps(excinfo.value)), copy.deepcopy(excinfo.value)):
        assert type(clone) is error
        assert (str(clone), clone.position) == (message, position)


def test_parse_errors_carry_positions():
    with pytest.raises(CalcParseError) as excinfo:
        parse_expr("1+")
    assert excinfo.value.position == 2
    with pytest.raises(CalcParseError):
        parse_expr("(1+2")
    with pytest.raises(CalcParseError):
        parse_expr("12")
    with pytest.raises(CalcParseError):
        parse_expr("1 + 2")
    with pytest.raises(CalcParseError):
        parse_expr("")


@pytest.mark.parametrize("text, position", [
    ("\u0663+\u0664", 0),  # Arabic-Indic 3 and 4: str.isdigit() accepts both
    ("\u00b2", 0),  # superscript 2: a digit to str.isdigit(), not to int()
    ("1+\uff12", 2),  # fullwidth 2
], ids=["arabic-indic", "superscript", "fullwidth"])
def test_parse_accepts_only_ascii_digits(text, position):
    with pytest.raises(CalcParseError) as excinfo:
        parse_expr(text)
    assert excinfo.value.position == position
    assert str(excinfo.value) == f"unexpected character {text[position]!r} at position {position}"
    with pytest.raises(CalcParseError):
        calc_salients(text)


def test_round_trip_over_all_samplers():
    for expr in fuzz_exprs(2000, seed=104):
        assert parse_expr(render(expr)) == expr


def test_render_emits_minimal_parens():
    # Dropping any single parenthesis pair changes the parse or breaks it.
    for expr in fuzz_exprs(300, seed=105):
        text = render(expr)
        pairs = _paren_pairs(text)
        for open_i, close_i in pairs:
            stripped = "".join(
                ch for i, ch in enumerate(text) if i not in (open_i, close_i)
            )
            try:
                reparsed = parse_expr(stripped)
            except CalcParseError:
                continue
            assert reparsed != expr


def _paren_pairs(text):
    stack = []
    pairs = []
    for i, ch in enumerate(text):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            pairs.append((stack.pop(), i))
    return pairs


# ---------------------------------------------------------------------------
# samplers


def test_dcfg_small_p_is_mostly_digits():
    rng = random.Random(1)
    exprs = [sample_expr(rng, Dcfg(p=0.01)) for _ in range(500)]
    digit_share = sum(type(e) is int for e in exprs) / len(exprs)
    assert digit_share > 0.95


def test_dcfg_validates_p():
    with pytest.raises(ValueError):
        Dcfg(p=0.0)
    with pytest.raises(ValueError):
        Dcfg(p=1.0)


def dcfg_num_ops_law():
    """The exact law of a default dcfg tree's ``num_ops``: ``{n: probability}``.

    A tree with n operators has one of the C_n binary shapes (C_n the
    Catalan number) and takes n branch coins and n + 1 digit coins, so
    P(n) = C_n p^n (1 - p)^(n + 1). The p is the documented one, written out
    rather than read from ``calc``, so that a changed constant moves the
    sample but not the law. ``num_ops`` clamps at 60, so that value takes
    the rest of the mass; the nesting cap cuts off far less than any bin.
    """
    p = 0.3
    law = {n: math.comb(2 * n, n) // (n + 1) * p**n * (1 - p) ** (n + 1) for n in range(60)}
    law[60] = 1 - sum(law.values())
    return law


def test_dcfg_num_ops_follows_its_exact_law():
    rng = random.Random(5)
    sampler = Dcfg()
    counts = Counter(expr_salients(sample_expr(rng, sampler))["num_ops"] for _ in range(100_000))
    stat, df = chi2_against(dcfg_num_ops_law(), counts)
    assert chi2_sf(stat, df) > 1e-3, (stat, df)


def dcfg_length_law():
    """The exact law of a default dcfg tree's ``length``: ``{length: probability}``.

    ``length`` is ``2t + 2`` for t = ops + parens, clamped at 120. The law of
    t is built per root class in increasing t: a digit, with probability
    0.7, has t = 0, and each of the three operators, with probability 0.1,
    adds 1 to its children's. A ``*`` node wraps a ``+``/``-`` left child
    and any operator right child, a ``+``/``-`` node only a ``+``/``-`` right
    child, and each wrap adds 1. The weights are the documented ones,
    written out rather than read from ``calc``.
    """
    top = 59  # t = 59 is the first t past the clamp
    digit, additive, product = [0.7] + [0.0] * top, [0.0] * (top + 1), [0.0] * (top + 1)

    def child(t, additive_wrap, product_wrap):
        # P(a child's t and its wrap add up to t), where a +/- child adds
        # additive_wrap and a * child product_wrap.
        return digit[t] + (additive[t - additive_wrap] if t >= additive_wrap else 0.0) + (
            product[t - product_wrap] if t >= product_wrap else 0.0)

    for t in range(1, top):
        for left in range(t):
            right = t - 1 - left
            additive[t] += 0.2 * child(left, 0, 0) * child(right, 1, 0)
            product[t] += 0.1 * child(left, 1, 0) * child(right, 1, 1)
    law = {2 * t + 2: digit[t] + additive[t] + product[t] for t in range(top)}
    law[120] = 1 - sum(law.values())
    return law


def test_dcfg_length_follows_its_exact_law():
    rng = random.Random(5)
    sampler = Dcfg()
    counts = Counter(expr_salients(sample_expr(rng, sampler))["length"] for _ in range(100_000))
    stat, df = chi2_against(dcfg_length_law(), counts)
    assert chi2_sf(stat, df) > 1e-3, (stat, df)


def dcfg_num_parens_law():
    """The exact law of a default dcfg tree's ``num_parens``: ``{k: probability}``.

    A tree's parenthesis pairs are its wrapped nodes, clamped at 30. As for
    :func:`dcfg_length_law`, the law is tracked per root class: a digit, with
    probability 0.7, has none; a ``+``/``-`` node, with probability 0.2,
    adds the pairs of its children and wraps a ``+``/``-`` right child; a
    ``*`` node, with probability 0.1, wraps a ``+``/``-`` left child and any
    operator right child. A node with no pairs can still be any size, so
    the law at k holds itself; it is the fixed point of the map below, which
    each round extends to trees one level deeper. The default dcfg has 0.6
    children per node, so 200 rounds leave out trees deeper than 200
    levels, under 1e-40 of the mass. The weights are the documented ones.
    """
    top = 30
    digit = [0.7] + [0.0] * (top - 1)
    additive, product = [0.0] * top, [0.0] * top

    def child(k, additive_wrap, product_wrap):
        return digit[k] + (additive[k - additive_wrap] if k >= additive_wrap else 0.0) + (
            product[k - product_wrap] if k >= product_wrap else 0.0)

    for _ in range(200):
        additive, product = (
            [0.2 * sum(child(left, 0, 0) * child(k - left, 1, 0) for left in range(k + 1))
             for k in range(top)],
            [0.1 * sum(child(left, 1, 0) * child(k - left, 1, 1) for left in range(k + 1))
             for k in range(top)],
        )
    law = {k: digit[k] + additive[k] + product[k] for k in range(top)}
    law[top] = 1 - sum(law.values())
    return law


def test_dcfg_num_parens_follows_its_exact_law():
    rng = random.Random(5)
    sampler = Dcfg()
    counts = Counter(
        expr_salients(sample_expr(rng, sampler))["num_parens"] for _ in range(100_000))
    stat, df = chi2_against(dcfg_num_parens_law(), counts)
    assert chi2_sf(stat, df) > 1e-3, (stat, df)


def test_t2t_default_depth_range():
    rng = random.Random(3)
    depths = {tree_depth(sample_expr(rng, T2t())) for _ in range(2000)}
    assert depths <= set(range(1, 9))
    assert {1, 8} <= depths


def test_bal_trees_are_complete():
    def leaves_and_depths(expr, depth=0):
        if type(expr) is int:
            return [depth]
        return leaves_and_depths(expr.left, depth + 1) + leaves_and_depths(expr.right, depth + 1)

    rng = random.Random(4)
    for _ in range(300):
        expr = sample_expr(rng, Bal())
        leaf_depths = set(leaves_and_depths(expr))
        assert len(leaf_depths) == 1
        assert leaf_depths <= set(range(1, 7))


def test_rcfg_terminates_and_round_trips():
    rng = random.Random(5)
    for _ in range(2000):
        expr = sample_expr(rng, Rcfg())
        assert parse_expr(render(expr)) == expr


def test_sample_record_labels_match_expr():
    rng = random.Random(6)
    for _ in range(300):
        rec = sample_record(rng, Dcfg())
        assert rec["label"] == eval_mod10(parse_expr(rec["expr"]))
        assert 0 <= rec["label"] <= 9


class _ScriptedRng:
    """Branches on the first ``branches`` coins, then draws digits only;
    every other draw is 0, so operators are ``+`` and runs are 2 long."""

    def __init__(self, branches):
        self.branches = branches

    def random(self):
        self.branches -= 1
        return 0.0 if self.branches >= 0 else 0.99

    def getrandbits(self, k):
        return 0


def left_chain_depth(expr):
    depth = 0
    while isinstance(expr, BinOp):
        expr = expr.left
        depth += 1
    return depth


@pytest.mark.parametrize("sampler", [Dcfg(p=0.5), Rcfg(p=0.5)], ids=sampler_id)
def test_grammar_walks_stop_at_the_nesting_cap(sampler):
    # The first MAX_NESTING coins nest operators down the left spine.
    assert left_chain_depth(sample_expr(_ScriptedRng(MAX_NESTING), sampler)) == MAX_NESTING
    with pytest.raises(ValueError, match=f"nested deeper than {MAX_NESTING} levels"):
        sample_expr(_ScriptedRng(MAX_NESTING + 1), sampler)


def test_near_critical_dcfg_raises_value_error():
    rng = random.Random(10)
    sample_expr(rng, Dcfg(p=0.499))
    # The second tree would nest 1,310 levels deep.
    with pytest.raises(ValueError, match="nested deeper"):
        sample_expr(rng, Dcfg(p=0.499))


def test_fixed_depth_samplers_reject_depths_past_the_cap():
    with pytest.raises(ValueError, match="max_depth"):
        T2t(max_depth=MAX_NESTING + 1)
    T2t(max_depth=MAX_NESTING)
    # A float depth would fail only at the first draw, and True would draw
    # depth-1 trees under the repr T2t(max_depth=True).
    for max_depth in (2.5, True):
        with pytest.raises(ValueError, match=rf"^max_depth must be in 1\.\.{MAX_NESTING}$"):
            T2t(max_depth=max_depth)


def t2t_at_depth(rng, depth):
    """A t2t tree of exactly ``depth``: the draw ``T2t`` makes once it has
    drawn its depth."""
    return calc._sample_t2t(rng.random, rng.getrandbits, depth, [calc.MAX_NODES])


def test_t2t_draws_stop_at_the_node_bound(monkeypatch):
    # Scripted coins force the left side and every other side gets depth 0:
    # a depth-10 draw is a left spine of 10 operators, 21 nodes in all.
    expr = t2t_at_depth(_ScriptedRng(10), 10)
    assert left_chain_depth(expr) == 10
    monkeypatch.setattr(calc, "MAX_NODES", 21)
    assert t2t_at_depth(_ScriptedRng(10), 10) == expr
    monkeypatch.setattr(calc, "MAX_NODES", 20)
    with pytest.raises(ValueError, match="nodes"):
        t2t_at_depth(_ScriptedRng(10), 10)


def test_deep_t2t_draws_raise_value_error():
    rng = random.Random(3)
    with pytest.raises(ValueError, match=f"grew past {MAX_NODES} nodes"):
        t2t_at_depth(rng, MAX_NESTING)


def test_samplers_are_deterministic_given_seed():
    for sampler in ALL_SAMPLERS:
        a = [sample_expr(random.Random(42), sampler) for _ in range(1)]
        b = [sample_expr(random.Random(42), sampler) for _ in range(1)]
        assert a == b


# ---------------------------------------------------------------------------
# salients


def test_salients_worked_example():
    s = calc_salients("(1+2)*(3-4)+5")
    # 13 chars -> 14; digit depths 1,1,1,1,0 -> mean 0.8 -> bin 3; the
    # operator characters are +, *, -, + -> 4.
    assert s == {"length": 14, "num_ops": 4, "num_parens": 2, "mean_depth": 3, "max_depth": 1}


def test_salients_flat_expression():
    assert calc_salients("1+2*3") == {
        "length": 6, "num_ops": 2, "num_parens": 0, "mean_depth": 0, "max_depth": 0
    }


def test_salients_single_digit():
    assert calc_salients("7") == {
        "length": 2, "num_ops": 0, "num_parens": 0, "mean_depth": 0, "max_depth": 0
    }


def test_salients_reject_malformed_text():
    with pytest.raises(CalcParseError):
        calc_salients("1++2")


def test_salients_clamp_to_domains():
    # A deep balanced tree overflows several domains at once.
    rng = random.Random(7)
    expr = calc._sample_bal(rng.getrandbits, 10)
    s = calc_salients(render(expr))
    assert s["length"] == 120
    assert s["num_ops"] == 60
    assert s["num_parens"] == 30
    assert s["max_depth"] <= 15


def test_salients_depend_only_on_the_rendered_text():
    for expr in fuzz_exprs(500, seed=106):
        text = render(expr)
        again = render(parse_expr(text))
        assert again == text
        assert calc_salients(text) == calc_salients(again)


def test_salient_specs_cover_their_domains():
    specs = salient_specs()
    assert set(specs) == {"length", "num_ops", "num_parens", "mean_depth", "max_depth"}
    for expr in fuzz_exprs(500, seed=107):
        for spec in specs.values():
            assert spec.extract(expr) in spec.domain


def test_salient_clamps_are_the_ends_of_their_domains():
    # The smallest and the largest measurements land on each domain's ends.
    lowest = calc._clamped(0, 0, 0, 0, 1, 0)
    highest = calc._clamped(10**6, 10**6, 10**6, 10**9, 1, 10**6)
    assert lowest.keys() == highest.keys() == DOMAINS.keys()
    for name, domain in DOMAINS.items():
        assert (lowest[name], highest[name]) == (domain[0], domain[-1]), name


def _leaves(expr):
    todo = [expr]
    while todo:
        node = todo.pop()
        if type(node) is BinOp:
            todo += (node.right, node.left)
        else:
            yield node


@pytest.mark.parametrize("sampler", ALL_SAMPLERS, ids=sampler_id)
@pytest.mark.parametrize("seed", [121, 122])
def test_producers_make_only_valid_leaves(sampler, seed):
    rng, measured_rng = random.Random(seed), random.Random(seed)
    measured = calc.measured_source(sampler, "length")
    for _ in range(300):
        tree = sample_expr(rng, sampler)
        for produced in (tree, measured(measured_rng)[0], parse_expr(render(tree))):
            assert all(type(x) is int and 0 <= x <= 9 for x in _leaves(produced))


def test_one_operator_trees_share_one_salient_dict():
    trees = [BinOp(op, a, b) for op in OPS for a in range(10) for b in range(10)]
    assert len(trees) == 300
    for expr in trees:
        salients = expr_salients(expr)
        assert salients is calc._ONE_OP_SALIENTS
        assert salients == _salients_of_text(render(expr))
    assert expr_salients(4) == _salients_of_text("4")


def test_salient_spec_extractors_match_calc_salients():
    specs = salient_specs()
    for expr in fuzz_exprs(300, seed=108):
        s = calc_salients(render(expr))
        assert s.keys() == specs.keys()
        for name, spec in specs.items():
            assert spec.extract(expr) == s[name], name


# ---------------------------------------------------------------------------
# references: the pre-change samplers, salient loop and recursive parser


def _reference_sample(rng, sampler):
    """The ``randrange``-based samplers the getrandbits draws replaced."""

    def dcfg(p):
        if rng.random() >= p:
            return rng.randrange(10)
        op = OPS[rng.randrange(3)]
        left = dcfg(p)
        right = dcfg(p)
        return BinOp(op, left, right)

    def t2t(depth):
        if depth == 0:
            return rng.randrange(10)
        op = OPS[rng.randrange(3)]
        force_left = rng.random() < 0.5
        other_depth = rng.randrange(depth)
        if force_left:
            return BinOp(op, t2t(depth - 1), t2t(other_depth))
        return BinOp(op, t2t(other_depth), t2t(depth - 1))

    def rcfg(p):
        if rng.random() >= p:
            return rng.randrange(10)
        op = OPS[rng.randrange(3)]
        if op == "-":
            return BinOp("-", rcfg(p), rcfg(p))
        k = rng.randint(2, 4)
        node = rcfg(p)
        for _ in range(k - 1):
            node = BinOp(op, node, rcfg(p))
        return node

    def bal(depth):
        if depth == 0:
            return rng.randrange(10)
        op = OPS[rng.randrange(3)]
        left = bal(depth - 1)
        right = bal(depth - 1)
        return BinOp(op, left, right)

    if isinstance(sampler, Dcfg):
        return dcfg(sampler.p)
    if isinstance(sampler, T2t):
        return t2t(rng.randint(1, sampler.max_depth))
    if isinstance(sampler, Rcfg):
        return rcfg(sampler.p)
    return bal(rng.randint(1, 6))


REFERENCE_SAMPLERS = (
    Dcfg(), Dcfg(p=0.45), T2t(), T2t(max_depth=11), Rcfg(), Rcfg(p=0.25), Bal(),
)


@pytest.mark.parametrize("sampler", REFERENCE_SAMPLERS, ids=sampler_id)
@pytest.mark.parametrize("seed", [61, 62])
def test_samplers_match_the_randrange_reference(sampler, seed):
    new, old = random.Random(seed), random.Random(seed)
    for _ in range(2500):
        assert sample_expr(new, sampler) == _reference_sample(old, sampler)
    assert new.getstate() == old.getstate()


def _randbelow_reference_sample(rng, sampler):
    """The samplers as they drew before digits and operators were drawn
    inline: every bounded draw through ``randbelow``, with the nesting and
    node bounds."""
    coin, bits = rng.random, rng.getrandbits

    def dcfg(p, room):
        if coin() >= p:
            return randbelow(bits, 10)
        if not room:
            raise ValueError(calc._TOO_DEEP)
        op = OPS[randbelow(bits, 3)]
        left = dcfg(p, room - 1)
        right = dcfg(p, room - 1)
        return BinOp(op, left, right)

    def t2t(depth, room):
        room[0] -= 1
        if room[0] < 0:
            raise ValueError(calc._TOO_BIG)
        if depth == 0:
            return randbelow(bits, 10)
        op = OPS[randbelow(bits, 3)]
        force_left = coin() < 0.5
        other_depth = randbelow(bits, depth)
        if force_left:
            left = t2t(depth - 1, room)
            return BinOp(op, left, t2t(other_depth, room))
        left = t2t(other_depth, room)
        return BinOp(op, left, t2t(depth - 1, room))

    def rcfg(p, room):
        if coin() >= p:
            return randbelow(bits, 10)
        if not room:
            raise ValueError(calc._TOO_DEEP)
        room -= 1
        op = OPS[randbelow(bits, 3)]
        if op == "-":
            left = rcfg(p, room)
            return BinOp("-", left, rcfg(p, room))
        k = 2 + randbelow(bits, 3)
        node = rcfg(p, room)
        for _ in range(k - 1):
            node = BinOp(op, node, rcfg(p, room))
        return node

    def bal(depth):
        if depth == 0:
            return randbelow(bits, 10)
        op = OPS[randbelow(bits, 3)]
        left = bal(depth - 1)
        right = bal(depth - 1)
        return BinOp(op, left, right)

    if isinstance(sampler, Dcfg):
        return dcfg(sampler.p, MAX_NESTING)
    if isinstance(sampler, T2t):
        return t2t(1 + randbelow(bits, sampler.max_depth), [calc.MAX_NODES])
    if isinstance(sampler, Rcfg):
        return rcfg(sampler.p, MAX_NESTING)
    return bal(1 + randbelow(bits, 6))


def _outcome(sample, rng, sampler):
    try:
        return sample(rng, sampler)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _errors_drawing_like_the_randbelow_reference(sampler):
    """Draws 10 trees on each of 200 seeds with both versions, asserting
    equal trees (or equal errors) and equal generator states; returns the
    number of errors."""
    errors = 0
    for seed in range(200):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(10):
            drawn = _outcome(sample_expr, new, sampler)
            assert drawn == _outcome(_randbelow_reference_sample, old, sampler), seed
            assert new.getstate() == old.getstate(), seed
            errors += isinstance(drawn, str)
    return errors


@pytest.mark.parametrize("sampler", REFERENCE_SAMPLERS, ids=sampler_id)
def test_inline_draws_match_the_randbelow_reference(sampler):
    assert _errors_drawing_like_the_randbelow_reference(sampler) == 0


def test_inline_draws_stop_like_the_randbelow_reference(monkeypatch):
    # The near-critical walk passes the nesting cap on some seeds, and both
    # versions stop it with the same error after the same draws.
    assert _errors_drawing_like_the_randbelow_reference(Dcfg(p=0.499)) > 0
    # So do t2t draws that pass a lowered node bound.
    monkeypatch.setattr(calc, "MAX_NODES", 60)
    assert _errors_drawing_like_the_randbelow_reference(T2t(max_depth=9)) > 0


def _reference_salients(text):
    """The pre-change character loop, keyed by spec name."""
    length = len(text)
    ops = parens = depth = depth_sum = max_depth = digits = 0
    for ch in text:
        if ch == "(":
            parens += 1
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch.isdigit():
            digits += 1
            depth_sum += depth
            if depth > max_depth:
                max_depth = depth
        elif ch in ("+", "-", "*"):
            ops += 1
    mean_depth = depth_sum / digits if digits else 0.0

    def clamp(value, low, high):
        return min(max(value, low), high)

    return {
        "length": clamp(length + length % 2, 2, 120),
        "num_ops": clamp(ops, 0, 60),
        "num_parens": clamp(parens, 0, 30),
        "mean_depth": clamp(int(round(4.0 * mean_depth)), 0, 40),
        "max_depth": clamp(max_depth, 0, 15),
    }


def test_salients_match_the_character_loop_reference():
    rng = random.Random(63)
    texts = ["7", "", "(7)", "((((((((((((((((((((1))))))))))))))))))))", ")1(", "1+(2"]
    # Deep parentheses that overflow every clamped domain at once.
    texts.append("(" * 45 + "+".join("1" * 70) + ")" * 45)
    texts.append(render(calc._sample_bal(rng.getrandbits, 10)))
    for sampler in REFERENCE_SAMPLERS:
        texts += [render(sample_expr(rng, sampler)) for _ in range(500)]
    clamped = set()
    for text in texts:
        values = _salients_of_text(text)
        assert values == _reference_salients(text), text
        clamped |= {name for name, value in values.items() if value == max(DOMAINS[name])}
    assert clamped == set(DOMAINS)


class _ReferenceParser:
    """The pre-change recursive-descent parser."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def sum_expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.atom()
        while self.peek() == "*":
            self.pos += 1
            node = BinOp("*", node, self.atom())
        return node

    def atom(self):
        ch = self.peek()
        if ch is None:
            raise CalcParseError("unexpected end of input", self.pos)
        if "0" <= ch <= "9":
            self.pos += 1
            return int(ch)
        if ch == "(":
            self.pos += 1
            node = self.sum_expr()
            if self.peek() != ")":
                raise CalcParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        raise CalcParseError(f"unexpected character {ch!r}", self.pos)


def _reference_parse(text):
    parser = _ReferenceParser(text)
    expr = parser.sum_expr()
    if parser.pos != len(text):
        raise CalcParseError(f"unexpected character {text[parser.pos]!r}", parser.pos)
    return expr


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except CalcParseError as exc:
        return ("error", str(exc), exc.position)


def test_parser_matches_the_recursive_reference():
    # Rendered texts, then each with one character deleted, duplicated or
    # replaced, so every error message and position is exercised.
    rng = random.Random(64)
    texts = ["", "(", ")", "()", "1)", "(1", "1 + 2", "12", "x", "1*", "((1)", "(1))",
             "\u0663+\u0664", "\u00b2", "1+\uff12"]
    for sampler in REFERENCE_SAMPLERS:
        for _ in range(150):
            text = render(sample_expr(rng, sampler))
            i = rng.randrange(len(text))
            texts += [text, text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                      text[:i] + rng.choice("0+-*() ") + text[i + 1:]]
    outcomes = set()
    for text in texts:
        new = _parse_outcome(parse_expr, text)
        assert new == _parse_outcome(_reference_parse, text), text
        outcomes.add(new[1].split(" at ")[0] if type(new) is tuple else "ok")
    assert {"ok", "unexpected end of input", "expected ')'"} <= outcomes
    assert any(o.startswith("unexpected character") for o in outcomes)


# ---------------------------------------------------------------------------
# references: the recursive render and evaluation the record walk replaced

_REFERENCE_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def _reference_eval(expr):
    match expr:
        case int(v):
            return v
        case BinOp(op="+", left=l, right=r):
            return (_reference_eval(l) + _reference_eval(r)) % 10
        case BinOp(op="-", left=l, right=r):
            return (_reference_eval(l) - _reference_eval(r)) % 10
        case BinOp(op="*", left=l, right=r):
            return (_reference_eval(l) * _reference_eval(r)) % 10
    raise TypeError(f"not a calculator expression: {expr!r}")


def _reference_render(expr):
    parts = []
    _reference_render_into(expr, parts)
    return "".join(parts)


def _reference_render_into(expr, out):
    if type(expr) is int:
        out.append(str(expr))
        return
    prec = _REFERENCE_PRECEDENCE[expr.op]
    _reference_render_child(expr.left, out, needs_parens=_reference_child_prec(expr.left) < prec)
    out.append(expr.op)
    _reference_render_child(
        expr.right, out, needs_parens=_reference_child_prec(expr.right) <= prec
    )


def _reference_child_prec(expr):
    return _REFERENCE_PRECEDENCE[expr.op] if isinstance(expr, BinOp) else 3


def _reference_render_child(expr, out, needs_parens):
    if needs_parens:
        out.append("(")
        _reference_render_into(expr, out)
        out.append(")")
    else:
        _reference_render_into(expr, out)


def check_against_the_recursive_reference(expr):
    text, label = _reference_render(expr), _reference_eval(expr)
    assert expr_record(expr) == {"expr": text, "label": label}
    assert render(expr) == text
    assert eval_mod10(expr) == label
    assert expr_salients(expr) == _salients_of_text(text), text


def _hand_built_trees():
    """Every operator over every child pairing (digit or each operator, on
    either side), alone and as either child of each operator."""
    digits = iter(range(10**6))

    def digit():
        return next(digits) % 10

    def child(kind):
        return digit() if kind is None else BinOp(kind, digit(), digit())

    kinds = (None, *OPS)
    pairs = [BinOp(op, child(l), child(r)) for op in OPS for l in kinds for r in kinds]
    trees = [digit(), *pairs]
    for op in OPS:
        for tree in pairs:
            trees += [BinOp(op, tree, digit()), BinOp(op, digit(), tree)]
    return trees


def test_record_walk_matches_the_reference_on_every_precedence_pairing():
    trees = _hand_built_trees()
    assert len(trees) == 1 + 48 + 288
    for expr in trees:
        check_against_the_recursive_reference(expr)
    # A looser left child is wrapped, an equally loose right child too.
    product = BinOp("*", 3, 4)
    assert render(BinOp("*", BinOp("-", 1, 2), product)) == "(1-2)*(3*4)"
    assert render(BinOp("*", product, BinOp("-", 1, 2))) == "3*4*(1-2)"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sampler=st.sampled_from(REFERENCE_SAMPLERS),
)
def test_record_walk_and_tree_salients_match_the_recursive_reference(seed, sampler):
    rng = random.Random(seed)
    for _ in range(40):
        check_against_the_recursive_reference(sample_expr(rng, sampler))


def exact_op(op, left, right):
    return left + right if op == "+" else left - right if op == "-" else left * right


def test_render_and_eval_follow_nesting_past_the_recursion_limit():
    text = "1+(" * 600 + "1+1" + ")" * 600
    assert render(parse_expr(text)) == text
    # The innermost pair around a lone digit is redundant and not kept.
    assert render(parse_expr("1+(" * 600 + "1" + ")" * 600)) == "1+(" * 599 + "1+1" + ")" * 599

    # A 5,000-level chain that alternates sides and cycles the operators,
    # built together with its exact value.
    expr, value = 7, 7
    for i in range(5000):
        op, d = OPS[i % 3], i % 10
        if i % 2:
            expr, value = BinOp(op, d, expr), exact_op(op, d, value)
        else:
            expr, value = BinOp(op, expr, d), exact_op(op, value, d)
    assert eval_mod10(expr) == value % 10
    rendered = render(expr)
    assert parse_expr(rendered) == expr
    assert expr_salients(expr) == _salients_of_text(rendered)
    assert expr_salients(expr)["max_depth"] == max(DOMAINS["max_depth"])


def test_parser_follows_nesting_past_the_recursion_limit():
    deep = "(" * 5000 + "1+2" + ")" * 5000
    assert parse_expr(deep) == BinOp("+", 1, 2)
    with pytest.raises(CalcParseError, match=r"expected '\)' at position 10002"):
        parse_expr(deep[:-1])


def _reference_repr(expr):
    if type(expr) is int:
        return repr(expr)
    left, right = _reference_repr(expr.left), _reference_repr(expr.right)
    return f"BinOp(op={expr.op!r}, left={left}, right={right})"


def _reference_equal(a, b):
    if type(a) is not type(b):
        return False
    if type(a) is int:
        return a == b
    return a.op == b.op and _reference_equal(a.left, b.left) and _reference_equal(a.right, b.right)


def test_tree_equality_hash_and_repr_match_the_recursive_reference():
    # Small trees so that distinct draws are often equal.
    exprs = [e for e, _ in zip(fuzz_exprs(100, seed=109), range(100))]
    rng = random.Random(110)
    exprs += [sample_expr(rng, Dcfg(p=0.2)) for _ in range(200)]
    for expr in exprs:
        assert repr(expr) == _reference_repr(expr)
        copy = parse_expr(render(expr))
        assert copy == expr and not copy != expr
    equal_pairs = 0
    for a, b in zip(exprs, exprs[1:] + exprs[:1]):
        assert (a == b) is _reference_equal(a, b), (a, b)
        assert (a != b) is not _reference_equal(a, b)
        equal_pairs += a == b
    assert 0 < equal_pairs < len(exprs)
    assert BinOp("+", 1, 2) != 1
    assert 1 != BinOp("+", 1, 2)
    assert BinOp("+", 1, 2) != BinOp("-", 1, 2)
    with pytest.raises(TypeError, match="unhashable"):
        hash(BinOp("*", 3, 4))


def test_tree_equality_hash_and_repr_follow_nesting_past_the_recursion_limit():
    # Two separately built 5,000-level chains that alternate sides and cycle
    # the operators; the repr is built alongside from both ends.
    def chain(last_leaf):
        expr = 7
        prefix, suffix = [], []
        for i in range(5000):
            op, d = OPS[i % 3], i % 10
            if i % 2:
                expr = BinOp(op, d, expr)
                prefix.append(f"BinOp(op={op!r}, left={d}, right=")
                suffix.append(")")
            else:
                expr = BinOp(op, expr, d if i else last_leaf)
                prefix.append(f"BinOp(op={op!r}, left=")
                suffix.append(f", right={d if i else last_leaf})")
        return expr, "".join(reversed(prefix)) + "7" + "".join(suffix)

    expr, text = chain(0)
    same, _ = chain(0)
    other, _ = chain(1)
    assert expr == same
    assert expr != other and not expr == other
    assert repr(expr) == text
    deep = parse_expr("1*(" * 1200 + "1" + ")" * 1200)
    assert deep == parse_expr("1*(" * 1200 + "1" + ")" * 1200)
    assert deep == parse_expr(render(deep))
    assert repr(deep).count("BinOp(") == 1200


# ---------------------------------------------------------------------------
# node and dispatch contracts


def test_binop_checks_its_operator_on_every_construction():
    d = 1
    for op in ("/", "", "++", None, ["+"]):
        with pytest.raises(ValueError, match="unknown operator"):
            BinOp(op, d, d)
    assert BinOp(op="*", left=d, right=2) == BinOp("*", d, 2)


def test_binop_fields_are_read_only():
    node = BinOp("+", 1, 2)
    for field in ("op", "left", "right"):
        with pytest.raises(AttributeError):
            setattr(node, field, 3)
    with pytest.raises(AttributeError):
        node.extra = 1
    assert (node.op, node.left, node.right) == ("+", 1, 2)


def test_binop_never_equals_the_tuple_of_its_fields():
    d1, d2 = 1, 2
    node = BinOp("+", d1, d2)
    fields = ("+", d1, d2)
    assert node != fields and fields != node
    assert not node == fields and not fields == node
    assert BinOp("*", node, d1) != ("*", node, d1)
    assert BinOp("*", node, d1) != BinOp("*", fields, d1)
    assert BinOp("*", fields, d1) != BinOp("*", node, d1)


@pytest.mark.parametrize("leaf", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize("build", [
    lambda x: BinOp("+", x, 2),
    lambda x: BinOp("+", 2, x),
    lambda x: BinOp("*", BinOp("-", 3, BinOp("+", x, 2)), 4),
], ids=["left-child", "right-child", "deeper"])
def test_binop_leaves_equal_only_leaves_of_their_type(build, leaf):
    odd, valid = build(leaf), build(1)
    assert odd != valid and valid != odd
    assert not odd == valid and not valid == odd
    assert (odd == valid) is _reference_equal(odd, valid)
    assert odd == build(leaf) and not odd != build(leaf)


def test_binop_pickles_and_deep_copies_to_an_equal_tree():
    rng = random.Random(17)
    trees = [sample_expr(rng, sampler) for sampler in ALL_SAMPLERS for _ in range(5)]
    trees += [parse_expr("1*(" * 40 + "1" + ")" * 40)]
    for tree in trees:
        for clone in [pickle.loads(pickle.dumps(tree, protocol)) for protocol in range(6)] + [
            copy.deepcopy(tree), copy.copy(tree)
        ]:
            assert type(clone) is type(tree)
            assert clone == tree
            assert render(clone) == render(tree)


def test_binop_class_patterns_match_by_position_and_keyword():
    node = BinOp("+", 1, BinOp("*", 2, 3))
    match node:
        case BinOp(op, l, r):
            assert (op, l, r) == ("+", 1, BinOp("*", 2, 3))
        case _:
            pytest.fail("positional class pattern did not match")
    match node:
        case BinOp(op="+", left=l):
            assert l == 1
        case _:
            pytest.fail("keyword class pattern did not match")
    match node:
        case BinOp(op="-"):
            pytest.fail("a pattern on another operator matched")


def test_sample_expr_rejects_an_unknown_sampler():
    for sampler in (object(), None, "dcfg", (Dcfg(),)):
        with pytest.raises(TypeError, match="unknown sampler"):
            sample_expr(random.Random(1), sampler)
