import copy
import functools
import json
import math
import pickle
import random
import re
from collections import Counter

import pytest

from homogen import cli
from homogen.homogenizer import HomogenizerRun
from homogen.diagnostics import Histogram, kl_to_uniform
from homogen.karel import gen, interp
from homogen.karel.gen import (
    _SALIENT_DOMAINS,
    NARROW_SWEEP_PARAMS,
    GenerationStallError,
    MarkerCountDist,
    NarrowGridParams,
    SynthesisTask,
    UncoverableProgramError,
    _ratio_decile,
    make_task,
    salient_specs,
    sample_marker_count,
    sample_narrow_grid,
    sample_program,
    sample_uniform_grid,
    satisfies_action_pruning,
    task_from_json,
    task_from_line,
    task_line,
    task_salients,
    task_source,
    task_to_json,
)
from homogen.karel.interp import DEFAULT_STEP_LIMIT, branch_arms, compile_program, execute
from homogen.karel.lang import (
    ACTIONS,
    MAX_REPEAT,
    PREDICATES,
    Action,
    If,
    IfElse,
    KarelProgram,
    Not,
    Pred,
    Repeat,
    While,
    emit_tokens,
    parse_program,
    program_salients,
)
from homogen.karel.world import DIRECTIONS, GridDraw, KarelGrid, grid_cells, grid_from_json
from homogen.rng import randbelow
from karel_fixtures import CRASH_GRID, CRASH_TEXT
from laws import chi2_against, chi2_sf


# ---------------------------------------------------------------------------
# marker pile distributions


def geom_pmf(k):
    # Coin flips to the first head, clamped at 9: P(k) = 2^-k, P(9) = 2^-8.
    return 2.0 ** -8 if k == 9 else 2.0 ** -k


def antigeom_pmf(k):
    return geom_pmf(10 - k)


def test_marker_counts_stay_in_range():
    rng = random.Random(51)
    for dist in MarkerCountDist:
        for _ in range(2000):
            assert 1 <= sample_marker_count(rng, dist) <= 9


def test_geom_pmf_spot_values():
    rng = random.Random(52)
    n = 1_000_000
    counts = [0] * 10
    for _ in range(n):
        counts[sample_marker_count(rng, MarkerCountDist.GEOM)] += 1
    assert counts[1] / n == pytest.approx(0.5, abs=0.01)
    assert counts[2] / n == pytest.approx(0.25, abs=0.01)
    assert counts[9] / n == pytest.approx(geom_pmf(9), abs=0.01)


def test_antigeom_mirrors_geom():
    rng = random.Random(53)
    n = 200_000
    counts = [0] * 10
    for _ in range(n):
        counts[sample_marker_count(rng, MarkerCountDist.ANTIGEOM)] += 1
    assert counts[9] / n == pytest.approx(0.5, abs=0.01)
    assert counts[8] / n == pytest.approx(0.25, abs=0.01)


def test_uniform_pile_sizes():
    rng = random.Random(54)
    n = 90_000
    counts = [0] * 10
    for _ in range(n):
        counts[sample_marker_count(rng, MarkerCountDist.UNIFORM)] += 1
    for k in range(1, 10):
        assert counts[k] / n == pytest.approx(1.0 / 9.0, abs=0.01)


# ---------------------------------------------------------------------------
# grid samplers


def _decile_law(sizes):
    """The law of ``10 * k // m``, for k uniform on 0..m - 1, pooled over a
    ``Counter`` of the sizes m."""
    total = sum(sizes.values())
    law = Counter()
    for m, count in sizes.items():
        for k in range(m):
            law[10 * k // m] += count / (total * m)
    return law


def test_uniform_grids_bulk_invariants_and_marker_share():
    # One pass checks legality plus the conditional marker share, whose
    # closed form is E[marker rate] = 1/2 (independent of the wall rate),
    # and the exact law of the draw. With both rates integrated out, a
    # count of cells that each pass a coin of one uniform rate is uniform
    # on 0..cells, so the redraw of all-wall grids weighs the sides (w, h)
    # by wh/(wh + 1), and given n = wh cells the wall count is uniform on
    # 0..n - 1; given f free cells the marker cells are uniform on 0..f, and
    # piles on 1..9. Side and pile ranges are written out rather than read
    # from ``karel.gen``. The four laws share a family-wise alpha of 1e-3.
    rng = random.Random(55)
    n = 100_000
    share_sum = 0.0
    sides = set()
    shapes, cells, walls, frees, marked, piles = (Counter() for _ in range(6))
    for _ in range(n):
        grid = sample_uniform_grid(rng)
        sides.add(grid.width)
        sides.add(grid.height)
        size = grid.width * grid.height
        non_wall = size - len(grid.walls)
        assert non_wall >= 1
        share_sum += len(grid.markers) / non_wall
        shapes[grid.width, grid.height] += 1
        cells[size] += 1
        walls[10 * (size - non_wall) // size] += 1
        frees[non_wall + 1] += 1
        marked[10 * len(grid.markers) // (non_wall + 1)] += 1
        piles.update(grid.markers.values())
    assert share_sum / n == pytest.approx(0.5, abs=0.02)
    assert sides == set(range(2, 17))
    weights = {(w, h): w * h / (w * h + 1) for w in range(2, 17) for h in range(2, 17)}
    laws = [
        ({shape: weight / sum(weights.values()) for shape, weight in weights.items()}, shapes),
        (_decile_law(cells), walls),
        (_decile_law(frees), marked),
        (dict.fromkeys(range(1, 10), 1 / 9), piles),
    ]
    for law, counts in laws:
        stat, df = chi2_against(law, counts)
        assert chi2_sf(stat, df) > 1e-3 / 4, (stat, df)


def test_uniform_grid_pile_sizes_cover_one_to_nine():
    rng = random.Random(56)
    seen = set()
    for _ in range(2000):
        seen.update(sample_uniform_grid(rng).markers.values())
    assert seen == set(range(1, 10))


def reference_uniform_grid(rng):
    """The per-call ``randint``/``randrange`` sampler the optimised one replaces."""
    while True:
        width = rng.randint(2, 16)
        height = rng.randint(2, 16)
        marker_rate = rng.random()
        wall_rate = rng.random()
        walls = set()
        markers = {}
        for j in range(height):
            for i in range(width):
                wants_marker = rng.random() < marker_rate
                wants_wall = rng.random() < wall_rate
                if wants_wall:
                    walls.add((i, j))
                elif wants_marker:
                    markers[(i, j)] = rng.randint(1, 9)
        free = [(i, j) for j in range(height) for i in range(width) if (i, j) not in walls]
        if not free:
            continue
        pos = free[rng.randrange(len(free))]
        direction = DIRECTIONS[rng.randrange(4)]
        return KarelGrid(
            width=width,
            height=height,
            walls=frozenset(walls),
            markers=markers,
            karel_pos=pos,
            karel_dir=direction,
        )


def validated(draw):
    """The draw as a validated grid, built as ``make_task`` builds it."""
    return KarelGrid(draw.width, draw.height, draw.walls, draw.markers, draw.karel_pos,
                     draw.karel_dir)


@pytest.mark.parametrize("seed", [57, 58])
def test_uniform_grid_sampler_matches_reference_draw_for_draw(seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(2500):
        draw = sample_uniform_grid(fast)
        expected = reference_uniform_grid(slow)
        assert draw.walls == expected.walls
        # Building the grid validates the draw.
        grid = validated(draw)
        assert grid == expected
        assert grid.free == frozenset(draw.free)
        assert list(grid.markers.items()) == list(expected.markers.items())
    assert fast.getstate() == slow.getstate()


def test_narrow_grid_exact_counts():
    rng = random.Random(57)
    params = NarrowGridParams(r_wall=0.25, r_marker=0.65)
    for _ in range(300):
        grid = sample_narrow_grid(rng, params)
        cells = grid.width * grid.height
        assert 10 <= grid.width <= 16 and 10 <= grid.height <= 16
        assert len(grid.walls) == int(cells * 0.25)
        assert len(grid.markers) == int(cells * 0.65)
        assert grid.karel_pos not in grid.walls


def reference_narrow_grid(rng, params):
    """The narrow sampler as it was when a draw carried its wall set."""
    width = rng.randint(10, 16)
    height = rng.randint(10, 16)
    cells = [(i, j) for j in range(height) for i in range(width)]
    walls = rng.sample(cells, int(len(cells) * params.r_wall))
    remaining = [c for c in cells if c not in set(walls)]
    marker_cells = rng.sample(remaining, int(len(cells) * params.r_marker))
    markers = {cell: sample_marker_count(rng, params.marker_dist) for cell in marker_cells}
    pos = remaining[rng.randrange(len(remaining))]
    direction = DIRECTIONS[rng.randrange(4)]
    return KarelGrid(width, height, frozenset(walls), markers, pos, direction)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_narrow_draw_builds_a_valid_grid(seed):
    fast, slow = random.Random(seed), random.Random(seed)
    for params in NARROW_SWEEP_PARAMS:
        for _ in range(10):
            draw = sample_narrow_grid(fast, params)
            expected = reference_narrow_grid(slow, params)
            assert draw.walls == expected.walls
            grid = validated(draw)
            assert grid == expected
            assert list(grid.markers.items()) == list(expected.markers.items())
            assert draw.free == [c for c in grid_cells(grid.width, grid.height)
                                 if c in grid.free]
    assert fast.getstate() == slow.getstate()


def test_narrow_grid_zero_rates_give_empty_grids():
    rng = random.Random(58)
    grid = sample_narrow_grid(rng, NarrowGridParams(r_wall=0.0, r_marker=0.0))
    assert grid.walls == frozenset()
    assert grid.markers == {}


def test_narrow_params_validation():
    with pytest.raises(ValueError):
        NarrowGridParams(r_wall=0.6, r_marker=0.6)
    with pytest.raises(ValueError):
        NarrowGridParams(r_wall=-0.1, r_marker=0.5)
    with pytest.raises(ValueError):
        NarrowGridParams(r_wall=0.5, r_marker=1.1)
    # All walls would leave the agent nowhere to stand; any rate below 1 does.
    with pytest.raises(ValueError, match="r_wall"):
        NarrowGridParams(r_wall=1.0, r_marker=0.0)
    grid = sample_narrow_grid(random.Random(3), NarrowGridParams(r_wall=0.99, r_marker=0.0))
    assert grid.karel_pos not in grid.walls


def test_table1_parameter_grid():
    assert len(NARROW_SWEEP_PARAMS) == 12
    pairs = {(p.r_wall, p.r_marker) for p in NARROW_SWEEP_PARAMS}
    assert pairs == {(0.05, 0.85), (0.25, 0.65), (0.65, 0.25), (0.85, 0.05)}
    for pair in pairs:
        dists = {p.marker_dist for p in NARROW_SWEEP_PARAMS if (p.r_wall, p.r_marker) == pair}
        assert dists == set(MarkerCountDist)


# ---------------------------------------------------------------------------
# program sampling


def test_sampled_programs_respect_the_token_cap():
    rng = random.Random(60)
    for _ in range(3000):
        program = sample_program(rng)
        assert len(emit_tokens(program)) <= 60


def test_sampled_programs_parse_back_to_equal_asts():
    rng = random.Random(61)
    for _ in range(1000):
        program = sample_program(rng)
        assert parse_program(emit_tokens(program)) == program


def test_nested_control_flow_share():
    # Regression pin: measured 0.094 on the default table over 10^4 draws;
    # anything under 1% would mean the sampler stopped nesting.
    # Only control bodies are braced, so a brace depth of 2 or more means a
    # control node sits inside another's body.
    rng = random.Random(7)
    hits = 0
    for _ in range(10_000):
        program = sample_program(rng)
        if program_salients(program)["nesting_depth"] >= 2:
            hits += 1
    share = hits / 10_000
    assert share >= 0.01
    assert share == pytest.approx(0.094, abs=0.03)


def test_nesting_depth_examples():
    # The cases the share above depends on: a control node inside another's
    # body reaches depth 2, siblings stay at 1, and a statement tuple nested
    # in a body is walked like the body itself.
    w_in_w = parse_program(
        "def main(): while(frontIsClear()): { while(markersPresent()): pickMarker() }"
    )
    assert program_salients(w_in_w)["nesting_depth"] == 2
    move = (Action("move"),)
    siblings = KarelProgram((While(Pred("frontIsClear"), move), While(Pred("leftIsClear"), move)))
    assert program_salients(siblings)["nesting_depth"] == 1
    r_in_i = KarelProgram((If(Pred("frontIsClear"), (Repeat(3, move),)),))
    assert program_salients(r_in_i)["nesting_depth"] == 2
    tuple_in_i = KarelProgram((If(Pred("frontIsClear"), ((Repeat(3, move),),)),))
    assert program_salients(tuple_in_i)["nesting_depth"] == 2
    assert program_salients(KarelProgram(move))["nesting_depth"] == 0


def test_repeat_counts_stay_in_range():
    rng = random.Random(62)
    seen = set()
    for _ in range(5000):
        program = sample_program(rng)
        for token in emit_tokens(program):
            if token.isdigit():
                seen.add(int(token))
    assert seen
    assert min(seen) >= 0 and max(seen) <= 19


class _ReferenceOversize(Exception):
    pass


def reference_sample_program(rng):
    """The sampler that draws a tree of binary seq productions, each a pair
    of nodes, then flattens every body into one statement tuple; the one in
    use joins tuples as it draws. Its weights, negation chance and 60-token
    cap are written out here, so a change to any of the sampler's pins fails
    the draw-for-draw comparison."""
    while True:
        budget = [60]
        try:
            body = _reference_stmt(rng, budget)
        except _ReferenceOversize:
            continue
        program = KarelProgram(_reference_flatten(body))
        if len(emit_tokens(program)) <= 60:
            return program


def _reference_stmt(rng, budget):
    budget[0] -= 1
    if budget[0] < 0:
        raise _ReferenceOversize
    roll = rng.random()
    edge = 0.55
    if roll < edge:
        return Action(ACTIONS[rng.randrange(len(ACTIONS))])
    edge += 0.25
    if roll < edge:
        first = _reference_stmt(rng, budget)
        rest = _reference_stmt(rng, budget)
        return (first, rest)
    edge += 0.06
    if roll < edge:
        return If(_reference_cond(rng), _reference_stmt(rng, budget))
    edge += 0.04
    if roll < edge:
        cond = _reference_cond(rng)
        then_body = _reference_stmt(rng, budget)
        else_body = _reference_stmt(rng, budget)
        return IfElse(cond, then_body, else_body)
    edge += 0.06
    if roll < edge:
        return While(_reference_cond(rng), _reference_stmt(rng, budget))
    return Repeat(rng.randrange(MAX_REPEAT + 1), _reference_stmt(rng, budget))


def _reference_cond(rng):
    pred = Pred(PREDICATES[rng.randrange(len(PREDICATES))])
    return Not(pred) if rng.random() < 0.2 else pred


def _reference_flatten(node):
    match node:
        case (first, rest):
            return _reference_flatten(first) + _reference_flatten(rest)
        case Action():
            return (node,)
        case If(cond=cond, body=body):
            return (If(cond, _reference_flatten(body)),)
        case IfElse(cond=cond, then_body=then_body, else_body=else_body):
            return (IfElse(cond, _reference_flatten(then_body), _reference_flatten(else_body)),)
        case While(cond=cond, body=body):
            return (While(cond, _reference_flatten(body)),)
        case Repeat(times=times, body=body):
            return (Repeat(times, _reference_flatten(body)),)
    raise TypeError(f"not a statement: {node!r}")


def test_sample_program_matches_reference_draw_for_draw():
    for seed in range(300):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert sample_program(fast) == reference_sample_program(slow)
        assert fast.getstate() == slow.getstate()


def program_law(weights=(0.55, 0.25, 0.06, 0.04, 0.06, 0.04), negate=0.2, cap=60):
    """The exact law of ``sample_program``: ``{(size, control_flow_count,
    nesting_depth): probability}``.

    The weights of action, seq, if, if-else, while and repeat, the negation
    chance and the cap are the documented ones, written out rather than read
    from ``karel.gen``, so that a changed constant moves the sample but not
    the law. A walk is kept when its body has at most ``cap - 5`` tokens (the
    header is ``def main ( ) :``); every node emits a token, so the node
    budget cuts only walks that break the cap anyway. In tokens an action is
    3, a condition 3 or, negated, 6, a seq ``first + 1 + second`` (the
    ``;``), an if or while ``6 + cond + body``, an if-else
    ``10 + cond + then + else`` and a repeat ``7 + body``; every control
    node adds one to the count and one brace level. A body's tokens exceed each child's, so one pass over the token
    count in increasing order computes the law.
    """
    action, seq, if_, if_else, while_, repeat = weights
    conds = ((3, 1 - negate), (6, negate))
    top = cap - 5
    # Per body token count: {(control count, depth): probability} for one
    # body, and for two bodies side by side (tokens summed, depth the max).
    body = [Counter() for _ in range(top + 1)]
    two = [Counter() for _ in range(top + 1)]
    for t in range(3, top + 1):
        for t1 in range(3, t - 3):
            for (c1, d1), p1 in body[t1].items():
                for (c2, d2), p2 in body[t - 1 - t1].items():
                    two[t - 1][c1 + c2, max(d1, d2)] += p1 * p2
        out = body[t]
        if t == 3:
            out[0, 0] += action
        for key, p in two[t - 1].items():
            out[key] += seq * p
        nested = [((if_ + while_) * pc, body, t - 6 - ct) for ct, pc in conds]
        nested += [(if_else * pc, two, t - 10 - ct) for ct, pc in conds]
        for weight, inner, rest in [*nested, (repeat, body, t - 7)]:
            for (c, d), p in inner[rest].items() if rest > 0 else ():
                out[c + 1, d + 1] += weight * p
    return {(t + 5, c, d): p for t in range(top + 1) for (c, d), p in body[t].items()}


def test_chi2_sf_matches_known_quantiles():
    # Upper 5% and 0.1% points of chi-squared tables.
    for stat, df, tail in [(3.841, 1, 0.05), (5.991, 2, 0.05), (11.070, 5, 0.05),
                           (62.830, 46, 0.05), (20.515, 5, 0.001), (81.400, 46, 0.001)]:
        assert chi2_sf(stat, df) == pytest.approx(tail, rel=2e-3)


def _chi2_sf_by_products(stat, df):
    """The same series with each term the product of the one before and
    ``y / order``, which underflows once ``e^-y`` does."""
    y = stat / 2
    if df % 2:
        sf, term, order = math.erfc(math.sqrt(y)), math.exp(-y) * math.sqrt(y) / math.gamma(1.5), 1.5
    else:
        sf, term, order = 0.0, math.exp(-y), 1.0
    for _ in range(df // 2):
        sf += term
        term *= y / order
        order += 1
    return sf


def test_chi2_sf_holds_its_tail_for_large_statistics():
    # e^-y underflows past a statistic of about 1,490, where a law over
    # more than about 1,500 pooled bins would always read 0.
    assert chi2_sf(1500, 1600) == pytest.approx(0.9636, abs=1e-4)
    assert chi2_sf(1600, 1600) == pytest.approx(0.4953, abs=1e-4)
    worst = max(abs(chi2_sf(stat, df) - _chi2_sf_by_products(stat, df))
                for stat in range(10, 1001, 10) for df in range(1, 201))
    assert worst < 1e-12


def test_program_law_gives_the_documented_share_over_the_cap():
    law = program_law()
    assert 1 - sum(law.values()) == pytest.approx(0.0566, abs=1e-4)  # "about 5% run over"
    assert sum(p for (size, _, _), p in law.items() if size == 8) / sum(law.values()) == (
        pytest.approx(0.583, abs=1e-3))


def test_sample_program_follows_its_exact_law():
    # 100,000 draws (about 2 s) detect each of _IF_P 0.06 -> 0.07,
    # _NEGATE_P 0.2 -> 0.25 and _TOKEN_CAP 60 -> 59 with power near 1 on
    # the size test alone; the three tests share a family-wise alpha of 1e-3.
    law = program_law()
    total = sum(law.values())
    rng = random.Random(3)
    counts = [Counter() for _ in range(3)]
    for _ in range(100_000):
        s = program_salients(sample_program(rng))
        for k, name in enumerate(("size", "control_flow_count", "nesting_depth")):
            counts[k][s[name]] += 1
    for k, name in enumerate(("size", "control_flow_count", "nesting_depth")):
        marginal = Counter()
        for key, p in law.items():
            marginal[key[k]] += p / total
        stat, df = chi2_against(marginal, counts[k])
        assert chi2_sf(stat, df) > 1e-3 / 3, (name, stat, df)


def test_action_pruning_predicate():
    assert satisfies_action_pruning(parse_program("def main(): move() ; turnLeft()"))
    assert not satisfies_action_pruning(parse_program("def main(): move()"))
    assert not satisfies_action_pruning(
        parse_program("def main(): turnLeft() ; turnRight()")
    )


# ---------------------------------------------------------------------------
# task assembly


def test_make_task_validates_and_is_deterministic():
    program = parse_program("def main(): turnLeft() ; turnRight()")
    a = make_task(program, sample_uniform_grid, random.Random(66), n_pairs=3)
    b = make_task(program, sample_uniform_grid, random.Random(66), n_pairs=3)
    assert a == b
    assert len(a.pairs) == 3
    for grid, out in a.pairs + (a.held_out,):
        result = execute(program, grid)
        assert result.success
        assert result.output == out


def test_make_task_covers_every_branch_arm():
    program = parse_program(
        "def main(): if(markersPresent()): pickMarker() else: putMarker()"
    )
    task = make_task(program, sample_uniform_grid, random.Random(67))
    covered = frozenset().union(
        *(execute(program, grid).branches_taken for grid, _ in task.pairs)
    )
    assert covered == branch_arms(program)


def test_uncoverable_program_reports_diagnostics(monkeypatch):
    monkeypatch.setattr(gen, "_RETRY_LIMIT", 50)
    # Markers never appear, so the then-arm is unreachable without a crash.
    def marker_free_grid(rng):
        return sample_uniform_grid(rng)._replace(markers={})

    program = parse_program("def main(): if(markersPresent()): move()")
    with pytest.raises(UncoverableProgramError) as excinfo:
        make_task(program, marker_free_grid, random.Random(68))
    message = str(excinfo.value)
    assert "no valid task in 50 grid batches" in message
    assert "uncovered arms: {(0, 'then'): 50}" in message


def test_uncoverable_program_error_survives_pickle_and_deepcopy():
    # A process pool sends a worker's exception back pickled.
    error = UncoverableProgramError("no valid task", {"PickEmpty": 2})
    for copied in (pickle.loads(pickle.dumps(error)), copy.deepcopy(error)):
        assert type(copied) is UncoverableProgramError
        assert (str(copied), copied.crash_counts) == ("no valid task", {"PickEmpty": 2})


def eager_uniform_grid(rng):
    """The uniform sampler as it was when every draw was a validated grid."""
    coin = rng.random
    getrandbits = rng.getrandbits
    while True:
        width = 2 + randbelow(getrandbits, 15)
        height = 2 + randbelow(getrandbits, 15)
        marker_rate = coin()
        wall_rate = coin()
        walls = []
        free = []
        markers = {}
        for cell in grid_cells(width, height):
            wants_marker = coin() < marker_rate
            if coin() < wall_rate:
                walls.append(cell)
                continue
            free.append(cell)
            if wants_marker:
                pile = getrandbits(4)
                while pile >= 9:
                    pile = getrandbits(4)
                markers[cell] = pile + 1
        if not free:
            continue
        pos = free[randbelow(getrandbits, len(free))]
        direction = DIRECTIONS[randbelow(getrandbits, 4)]
        return KarelGrid(
            width=width,
            height=height,
            walls=frozenset(walls),
            markers=markers,
            karel_pos=pos,
            karel_dir=direction,
        )


def eager_make_task(program, grid_sampler, rng, n_pairs, retry_limit,
                    step_limit=DEFAULT_STEP_LIMIT):
    """Task assembly as it was when every successful run built its output."""
    compiled = compile_program(program)
    required = branch_arms(compiled)
    crash_counts = Counter()
    missing_counts = Counter()
    for _ in range(retry_limit):
        grids, outputs, taken = [], [], []
        for _k in range(n_pairs + 1):
            grid = grid_sampler(rng)
            result = execute(compiled, grid, step_limit)
            if not result.success:
                crash_counts[result.crash.value] += 1
                break
            grids.append(grid)
            outputs.append(result.output)
            taken.append(result.branches_taken)
        if len(grids) != n_pairs + 1:
            continue
        covered = frozenset().union(*taken[:n_pairs])
        if not required <= covered:
            missing_counts.update(required - covered)
            continue
        pairs = tuple(zip(grids, outputs))
        return SynthesisTask(program=program, pairs=pairs[:n_pairs], held_out=pairs[-1])
    raise UncoverableProgramError(
        f"no valid task in {retry_limit} grid batches "
        f"(crashes: {dict(crash_counts)}, uncovered arms: {dict(missing_counts)})",
        dict(crash_counts),
    )


def assemble(make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except UncoverableProgramError as exc:
        return exc


def test_task_assembly_matches_the_eager_reference_draw_for_draw(monkeypatch):
    monkeypatch.setattr(gen, "_RETRY_LIMIT", 8)
    programs = random.Random(74)
    outcomes = Counter()
    for index in range(200):
        program = sample_program(programs)
        for n_pairs in range(1, 6):
            fast, slow = random.Random(index * 5 + n_pairs), random.Random(index * 5 + n_pairs)
            got = assemble(make_task, program, sample_uniform_grid, fast, n_pairs=n_pairs)
            expected = assemble(eager_make_task, program, eager_uniform_grid, slow,
                                n_pairs=n_pairs, retry_limit=8)
            assert fast.getstate() == slow.getstate()
            if isinstance(expected, UncoverableProgramError):
                outcomes["uncoverable"] += 1
                assert isinstance(got, UncoverableProgramError)
                assert (got.crash_counts, str(got)) == (expected.crash_counts, str(expected))
                continue
            outcomes["task"] += 1
            assert got == expected
            for got_pair, expected_pair in zip(got.pairs + (got.held_out,),
                                               expected.pairs + (expected.held_out,)):
                for grid, expected_grid in zip(got_pair, expected_pair):
                    assert type(grid) is KarelGrid
                    assert list(grid.markers.items()) == list(expected_grid.markers.items())
    # Both ends of assembly get exercised: at seed 74 the split is 587/413.
    assert outcomes["task"] > 400 and outcomes["uncoverable"] > 300


def test_task_assembly_validates_only_the_grids_it_keeps(monkeypatch):
    # The bench traces these three names; each must keep seeing every call.
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(gen, "sample_uniform_grid", counted("sample", gen.sample_uniform_grid))
    monkeypatch.setattr(gen, "execute", counted("execute", gen.execute))
    monkeypatch.setattr(KarelGrid, "__post_init__", counted("validate", KarelGrid.__post_init__))
    source = task_source(gen.sample_uniform_grid, n_pairs="uniform")
    rng = random.Random(75)
    for _ in range(6):
        before = counts["validate"]
        task = source(rng)
        assert counts["validate"] - before == 2 * (len(task.pairs) + 1)
        for pair in task.pairs + (task.held_out,):
            assert all(type(grid) is KarelGrid for grid in pair)
    assert counts["sample"] == counts["execute"] > 6 * 2
    before = counts["validate"]
    crashed = execute(parse_program(CRASH_TEXT), CRASH_GRID)
    assert crashed.crash is not None and crashed.output is None
    assert counts["validate"] == before


def test_a_kept_draw_derives_its_wall_set_once(monkeypatch):
    # Only a kept input derives a wall set, and its output shares it.
    reads = 0
    derive = GridDraw.walls.fget

    def counted(draw):
        nonlocal reads
        reads += 1
        return derive(draw)

    monkeypatch.setattr(GridDraw, "walls", property(counted))
    source = task_source(sample_uniform_grid, n_pairs="uniform")
    rng = random.Random(76)
    for _ in range(8):
        before = reads
        task = source(rng)
        assert reads - before == len(task.pairs) + 1
        for grid, output in task.pairs + (task.held_out,):
            assert output.walls is grid.walls


def test_task_assembly_action_calls_stay_bounded(monkeypatch):
    # A count, not a clock. Without the jump of a while loop back in a world
    # it has seen, most action calls go to runs that pass through the same
    # world again and again until the step limit: these 300 tasks make
    # 391,670 action calls without the jump and 182,568 with it.
    calls = 0

    def counted(action):
        def wrapper(run):
            nonlocal calls
            calls += 1
            action(run)

        return wrapper

    for name, action in list(interp._ACTIONS.items()):
        monkeypatch.setitem(interp._ACTIONS, name, counted(action))
    for seed in range(1, 6):
        source = task_source(sample_uniform_grid)
        rng = random.Random(seed)
        for _ in range(60):
            source(rng)
    assert calls <= 200_000


# Arguments that neither make_task nor task_source may accept. Counts must be
# exact ints: True, 2.0 and 2.5 compare like numbers but cannot count draws.
_BAD_ASSEMBLY_ARGS = [
    ({"n_pairs": 0}, "n_pairs"), ({"n_pairs": 6}, "n_pairs"),
    ({"n_pairs": True}, "n_pairs"), ({"n_pairs": 2.0}, "n_pairs"),
    ({"step_limit": -1}, "step_limit"), ({"step_limit": 2.5}, "step_limit"),
    ({"step_limit": True}, "step_limit"),
]


def _unusable_grid_sampler(rng):
    raise AssertionError("a rejected argument must stop assembly before any draw")


def test_make_task_argument_validation():
    program = parse_program("def main(): turnLeft()")
    for kwargs, name in _BAD_ASSEMBLY_ARGS:
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_task(program, _unusable_grid_sampler, rng, **kwargs)
        assert rng.getstate() == state  # rejected before any grid is drawn


def test_task_source_argument_validation():
    for kwargs, name in _BAD_ASSEMBLY_ARGS:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            task_source(_unusable_grid_sampler, **kwargs)


# ---------------------------------------------------------------------------
# task salients and JSON


def test_task_salients_fields():
    program = parse_program("def main(): while(markersPresent()): pickMarker()")
    task = make_task(program, sample_uniform_grid, random.Random(70), n_pairs=4)
    s = task_salients(task)
    assert s.keys() == salient_specs().keys()
    assert s["number_of_grids"] == 4
    assert s["size"] == len(emit_tokens(program))
    assert s["control_flow_count"] == 1
    assert s["nesting_depth"] == 1
    assert 0 <= s["marker_ratio_decile"] <= 9
    assert 0 <= s["wall_ratio_decile"] <= 9
    # The deciles bin the mean ratio over shown inputs.
    shown = [grid for grid, _ in task.pairs]
    assert len(shown) == 4
    mean_marker = sum(len(g.markers) / (g.width * g.height) for g in shown) / 4
    assert s["marker_ratio_decile"] == min(int(mean_marker * 10 + 1e-12), 9)


def test_task_salients_clamp_into_their_domains():
    program = parse_program("def main(): " + " ; ".join(["move()"] * 60))
    assert len(emit_tokens(program)) == 244
    grid = KarelGrid(width=4, height=4)
    task = SynthesisTask(program=program, pairs=((grid, grid),), held_out=(grid, grid))
    assert task_salients(task)["size"] == 160
    assert salient_specs()["size"].extract(task) == 160


def test_task_json_round_trip():
    program = parse_program("def main(): if(frontIsClear()): move() else: turnLeft()")
    task = make_task(program, sample_uniform_grid, random.Random(71), n_pairs=2)
    obj = task_to_json(task)
    assert list(obj) == ["program", "pairs", "held_out"]
    assert task_from_json(obj) == task
    with pytest.raises(ValueError):
        task_from_json({"program": ["def"]})


# ---------------------------------------------------------------------------
# The record writer against the reference encoder.


def reference_line(task):
    return cli._json_line(task_to_json(task))


def _narrow(params):
    return lambda rng: sample_narrow_grid(rng, params)


# Case -> (grid sampler, task_source options, tasks drawn): 1,080 tasks over
# every option that shapes a record's bytes.
TASK_LINE_CASES = {
    **{f"uniform-pairs-{n}": (sample_uniform_grid, {"n_pairs": n}, 100)
       for n in (1, 2, 3, 4, 5, "uniform")},
    **{f"narrow-{p.r_wall}-{p.r_marker}-{p.marker_dist.value}": (_narrow(p), {}, 20)
       for p in NARROW_SWEEP_PARAMS},
    "classic-prune": (sample_uniform_grid, {"classic_prune": True}, 80),
    "step-limit-200": (sample_uniform_grid, {"step_limit": 200}, 80),
    "step-limit-1000": (sample_uniform_grid, {"step_limit": 1000, "n_pairs": "uniform"}, 80),
}


@functools.cache
def case_tasks(case):
    grids, options, count = TASK_LINE_CASES[case]
    source = task_source(grids, **options)
    rng = random.Random(40)
    return [source(rng) for _ in range(count)]


@pytest.mark.parametrize("case", TASK_LINE_CASES)
def test_task_line_matches_the_reference_encoder(case):
    for task in case_tasks(case):
        line = task_line(task)
        assert line == reference_line(task)
        assert task_line(task_from_json(json.loads(line))) == line


def _shared_walls(task):
    return [out.walls is inp.walls for inp, out in (*task.pairs, task.held_out)]


@pytest.mark.parametrize("case", TASK_LINE_CASES)
def test_task_from_line_reads_every_generated_line_as_the_json_path_does(case):
    for task in case_tasks(case):
        line = task_line(task)
        for text in (line, line.rstrip("\n")):
            read = task_from_line(text)
            assert read == task_from_json(json.loads(text)) == task
            assert _shared_walls(read) == _shared_walls(task)
            assert all(cell is grid_cells(16, 16)[cell[1] * 16 + cell[0]]
                       for inp, _ in read.pairs for cell in inp.walls)


def test_homogenize_karel_writes_the_reference_encoding(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["homogenize", "karel", "--var", "wall_ratio_decile", "--pairs", "uniform",
            "--count", "40", "--seed", "3", "--out", "h.jsonl"]
    assert cli.main(argv) == 0
    lines = (tmp_path / "h.jsonl").read_text().splitlines(keepends=True)
    assert len(lines) == 40
    for line in lines:
        task = task_from_json(json.loads(line))
        assert reference_line(task) == line == task_line(task)


def test_task_line_writes_an_output_from_its_own_walls():
    # make_task's outputs share their input's wall set; an output with other
    # walls, or equal walls in a set of its own, is written from its own.
    program = parse_program("def main(): move()")
    inp = KarelGrid(4, 3, frozenset({(0, 0), (3, 2)}), {(1, 1): 2, (0, 2): 9}, (2, 0), "E")
    other = KarelGrid(4, 3, frozenset({(1, 0)}), {}, (3, 0), "E")
    equal = KarelGrid(4, 3, frozenset(inp.walls), {(1, 1): 2}, (3, 0), "E")
    empty = KarelGrid(2, 2)
    task = SynthesisTask(program=program,
                         pairs=((inp, other), (inp, equal), (empty, inp)), held_out=(inp, empty))
    assert task_line(task) == reference_line(task)
    record = json.loads(task_line(task))
    assert [pair["out"]["walls"] for pair in record["pairs"]] == [
        [[1, 0]], [[0, 0], [3, 2]], [[0, 0], [3, 2]]]
    assert record["held_out"]["out"]["walls"] == []


def test_task_line_writes_every_cell_and_pile_size():
    cells = grid_cells(16, 16)
    walled = KarelGrid(16, 16, frozenset(cells[1:]), {}, cells[0], "N")
    piled = KarelGrid(16, 16, frozenset(), {c: k % 9 + 1 for k, c in enumerate(cells)},
                      cells[-1], "W")
    task = SynthesisTask(program=parse_program("def main(): turnLeft()"),
                         pairs=((walled, piled), (piled, walled)), held_out=(piled, piled))
    assert task_line(task) == reference_line(task)


def test_task_line_writes_an_int_equal_cell_as_its_int():
    # KarelGrid keeps a cell such as (1.0, 1) when no container is rebuilt;
    # the reference encoder writes it as read, task_line as the int cell.
    grid = KarelGrid(3, 3, frozenset({(1.0, 1)}), {(True, 2): 3}, (0, 0), "S")
    task = SynthesisTask(program=parse_program("def main(): move()"),
                         pairs=((grid, grid),), held_out=(grid, grid))
    assert '"walls":[[1.0,1]],"markers":[[true,2,3]]' in reference_line(task)
    assert json.loads(task_line(task))["held_out"]["in"] == {
        "w": 3, "h": 3, "walls": [[1, 1]], "markers": [[1, 2, 3]],
        "karel": {"pos": [0, 0], "dir": "S"}}


def test_task_from_line_reads_every_cell_and_pile_size():
    cells = grid_cells(16, 16)
    walled = KarelGrid(16, 16, frozenset(cells[1:]), {}, cells[0], "N")
    piled = KarelGrid(16, 16, frozenset(), {c: k % 9 + 1 for k, c in enumerate(cells)},
                      cells[-1], "W")
    task = SynthesisTask(program=parse_program("def main(): turnLeft()"),
                         pairs=((walled, piled), (piled, walled)), held_out=(piled, piled))
    assert task_from_line(task_line(task)) == task


def _as_line(record):
    return json.dumps(record, separators=(",", ":")) + "\n"


def _on_a_wall(grid):
    """A wall cell of the grid, which gets one at (0, 0) if it has none."""
    if not grid["walls"]:
        grid["walls"].append([0, 0])
    return grid["walls"][0]


def _add_piles(grid, *counts):
    # On the first pile's cell, or on the agent's, which holds no wall.
    cell = grid["markers"][0][:2] if grid["markers"] else grid["karel"]["pos"]
    grid["markers"] += [[*cell, count] for count in counts]


# Kind -> a change to one grid of a decoded record.
GRID_CHANGES = {
    "wall-twice": lambda g: g["walls"].extend([_on_a_wall(g)]),
    "pile-twice": lambda g: _add_piles(g, 1, 1),
    "cell-at-16": lambda g: g["walls"].append([16, g["h"] - 1]),
    "side-16": lambda g: g.update(w=16),
    "pile-0": lambda g: _add_piles(g, 0),
    "pile-10": lambda g: _add_piles(g, 10),
    "agent-on-a-wall": lambda g: g["karel"].update(pos=_on_a_wall(g)),
    "pile-on-a-wall": lambda g: g["markers"].append([*_on_a_wall(g), 3]),
}


def _record_mutants(record, rng):
    """Each change of ``GRID_CHANGES`` to a grid drawn at random, and four
    changes to the record's pairs and keys, written in the compact form."""
    yield "no-pairs", _as_line(record | {"pairs": []})
    yield "six-pairs", _as_line(record | {"pairs": (record["pairs"] * 6)[:6]})
    yield "reordered-keys", _as_line(dict(reversed(record.items())))
    yield "extra-key", _as_line(record | {"extra": 1})
    for kind, change in GRID_CHANGES.items():
        mutated = copy.deepcopy(record)
        pair = rng.choice([*mutated["pairs"], mutated["held_out"]])
        change(pair[rng.choice(("in", "out"))])
        yield kind, _as_line(mutated)


def _text_mutants(line, rng):
    """Random text-level changes to a compact line."""
    body = line[:-1]
    for _ in range(8):
        i = rng.randrange(len(body))
        flipped = chr(ord(body[i]) ^ 1 << rng.randrange(7))
        yield "byte-flip", body[:i] + flipped + body[i + 1:] + "\n"
    for _ in range(2):
        i = rng.randrange(len(body) + 1)
        yield "space", body[:i] + rng.choice(" \t") + body[i:] + "\n"
    numbers = [m.start() for m in re.finditer(r"(?<=[\[,:])[0-9]", body)]
    i = rng.choice(numbers)
    yield "leading-zero", body[:i] + "0" + body[i:] + "\n"
    letters = [k for k, ch in enumerate(body) if ch.isalpha()]
    i = rng.choice(letters)
    yield "u-escape", body[:i] + "\\u%04x" % ord(body[i]) + body[i + 1:] + "\n"
    first = body.index('"w":')
    end = body.index(',"walls"', first)
    width, height = body[first:end].split(",")
    yield "swapped-sides", body[:first] + height + "," + width + body[end:] + "\n"
    yield "repeated-key", body.replace('"karel":{', '"karel":{"dir":"N",', 1) + "\n"
    yield "two-newlines", line + "\n"
    yield "carriage-return", body + "\r\n"
    yield "crlf-inside", body.replace(",", ",\r\n", 1) + "\n"


def _general_read(line):
    """What the JSON path makes of a line: the task, or the exception's type."""
    try:
        return task_from_json(json.loads(line))
    except Exception as exc:  # noqa: BLE001 - each failure is compared, not raised
        return type(exc)


def test_task_from_line_agrees_with_the_json_path_on_mutated_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(43)
    source = task_source(sample_uniform_grid, n_pairs="uniform")
    narrow = task_source(_narrow(NARROW_SWEEP_PARAMS[0]), n_pairs="uniform")
    verdicts = Counter()
    for k in range(12):
        line = task_line((narrow if k % 4 == 0 else source)(rng))
        record = json.loads(line)
        for kind, mutant in [*_record_mutants(record, rng), *_text_mutants(line, rng)]:
            read, general = task_from_line(mutant), _general_read(mutant)
            assert read is None or read == general, kind
            verdicts[kind, read is not None, type(general) is SynthesisTask] += 1
            (tmp_path / "k.jsonl").write_text(line + mutant, newline="")
            as_text = cli.main(["stats", "k.jsonl"]), capsys.readouterr()
            with monkeypatch.context() as patched:
                patched.setattr(gen, "task_from_line", lambda line: None)
                as_json = cli.main(["stats", "k.jsonl"]), capsys.readouterr()
            assert as_text == as_json, kind
    assert len({kind for kind, _, _ in verdicts}) == 21
    # Some lines are read as text, some left to the JSON path and some
    # refused by both; the text reader refuses every kind that breaks a rule
    # and reads none that leaves its form.
    assert {(read, valid) for _, read, valid in verdicts} == {
        (True, True), (False, True), (False, False)}
    for kind in (*GRID_CHANGES, "no-pairs", "six-pairs", "leading-zero"):
        if kind != "side-16":
            assert verdicts[kind, False, False] == 12, kind
    for kind in ("reordered-keys", "extra-key", "u-escape", "repeated-key", "space",
                 "crlf-inside", "two-newlines"):
        assert verdicts[kind, True, True] == 0, kind


# The read path before walls were built with map(tuple, ...) and before the
# ratio deciles were measured without a dict of grid features per shown grid.


def reference_grid_from_json(obj):
    try:
        return KarelGrid(
            width=obj["w"],
            height=obj["h"],
            walls=frozenset((i, j) for i, j in obj["walls"]),
            markers={(i, j): n for i, j, n in obj["markers"]},
            karel_pos=tuple(obj["karel"]["pos"]),
            karel_dir=obj["karel"]["dir"],
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed grid object: {exc}") from None


def reference_task_salients(task):
    program = program_salients(task.program)
    shown = [
        {"marker_ratio": len(g.markers) / (g.width * g.height),
         "wall_ratio": len(g.walls) / (g.width * g.height)}
        for g, _ in task.pairs
    ]
    n = len(shown)
    values = {
        "number_of_grids": n,
        "size": program["size"],
        "control_flow_count": program["control_flow_count"],
        "nesting_depth": program["nesting_depth"],
        "marker_ratio_decile": _ratio_decile(sum(g["marker_ratio"] for g in shown) / n),
        "wall_ratio_decile": _ratio_decile(sum(g["wall_ratio"] for g in shown) / n),
    }
    return {
        name: min(max(values[name], domain[0]), domain[-1])
        for name, domain in _SALIENT_DOMAINS.items()
    }


@pytest.mark.parametrize("grids", [
    [], ["--grids", "narrow", "--r-wall", "0.3", "--r-marker", "0.25"],
], ids=["uniform", "narrow"])
@pytest.mark.parametrize("seed", [5, 6])
def test_read_path_matches_the_reference_on_generated_records(
    grids, seed, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "karel", *grids, "--pairs", "uniform", "--count", "30",
            "--seed", str(seed), "--out", "k.jsonl"]
    assert cli.main(argv) == 0
    records = [json.loads(line) for line in (tmp_path / "k.jsonl").read_text().splitlines()]
    assert len(records) == 30
    for record in records:
        task = task_from_json(record)
        grid_objects = [g for pair in (*record["pairs"], record["held_out"]) for g in pair.values()]
        grids_read = [g for pair in (*task.pairs, task.held_out) for g in pair]
        for obj, grid in zip(grid_objects, grids_read, strict=True):
            expected = reference_grid_from_json(obj)
            assert grid == expected == grid_from_json(obj)
            assert all(type(cell) is tuple for cell in grid.walls)
        for inp, out in (*task.pairs, task.held_out):
            assert out.walls is inp.walls
        assert task_salients(task) == reference_task_salients(task)


@pytest.mark.parametrize("changes, same_message", [
    ({"walls": [[1, 2, 3]]}, True),
    ({"walls": [[1]]}, True),
    ({"walls": ["ab"]}, True),
    ({"walls": ["abc"]}, True),
    ({"walls": [5]}, False),
    ({"markers": [[1, 2]]}, True),
], ids=["3-element-wall", "1-element-wall", "string-wall", "long-string-wall",
        "non-iterable-wall", "short-marker-triple"])
def test_grid_from_json_rejects_malformed_cells_like_the_reference(changes, same_message):
    obj = {"w": 4, "h": 4, "walls": [], "markers": [], "karel": {"pos": [1, 1], "dir": "E"}}
    obj |= changes
    with pytest.raises(ValueError) as got:
        grid_from_json(obj)
    with pytest.raises(ValueError) as expected:
        reference_grid_from_json(obj)
    assert type(got.value) is type(expected.value)
    if same_message:
        assert str(got.value) == str(expected.value)
    else:
        assert str(expected.value) == "malformed grid object: cannot unpack non-iterable int object"
        assert str(got.value) == "malformed grid object: 'int' object is not iterable"


def _one_pair_record(out_changes, held_out):
    """A one-pair record whose shown or held-out output is its input with
    ``out_changes`` applied; the other pair's output is its input."""
    inp = {"w": 4, "h": 3, "walls": [[3, 0], [0, 2]], "markers": [[1, 1, 2]],
           "karel": {"pos": [0, 0], "dir": "E"}}
    changed = {"in": inp, "out": copy.deepcopy(inp) | out_changes}
    same = {"in": inp, "out": copy.deepcopy(inp)}
    return {"program": emit_tokens(parse_program("def main(): move()")),
            "pairs": [same if held_out else changed], "held_out": changed if held_out else same}


@pytest.mark.parametrize("held_out", [False, True], ids=["shown", "held-out"])
@pytest.mark.parametrize("out_changes, message", [
    ({"w": 3}, "wall (3, 0) is out of bounds"),
    ({"walls": [[3, 0], [0, 2], [3, 0]]},
     "malformed grid object: a cell is listed twice in 'walls'"),
    ({"walls": 5}, "malformed grid object: 'int' object is not iterable"),
    ({"markers": [[3, 0, 1]]}, "cell (3, 0) holds both a wall and markers"),
], ids=["narrower-with-a-wall-out-of-bounds", "wall-listed-twice", "walls-not-a-list",
        "marker-on-a-shared-wall"])
def test_task_from_json_rejects_a_bad_output_as_a_lone_grid_read(held_out, out_changes, message):
    record = _one_pair_record(out_changes, held_out)
    bad = record["held_out"] if held_out else record["pairs"][0]
    with pytest.raises(ValueError) as alone:
        grid_from_json(bad["out"])
    with pytest.raises(ValueError) as in_task:
        task_from_json(record)
    assert str(in_task.value) == str(alone.value) == message


def test_task_from_json_shares_only_an_equal_wall_list():
    record = _one_pair_record({"walls": [[0, 2], [3, 0]]}, held_out=True)
    task = task_from_json(record)
    (inp, out), (held_in, held_out) = task.pairs[0], task.held_out
    assert out.walls is inp.walls
    assert held_out.walls == held_in.walls and held_out.walls is not held_in.walls
    # JSON lists compare 0.0 and false equal to 0, so an int-equal wall cell
    # is read as the input's int cell; read alone, it keeps its float.
    record = _one_pair_record({"walls": [[3, 0.0], [0, 2]]}, held_out=False)
    inp, out = task_from_json(record).pairs[0]
    assert out.walls is inp.walls
    assert (3, 0.0) in grid_from_json(record["pairs"][0]["out"]).walls


def _mutated_outputs(record, rng):
    """``record`` with one output grid changed in one field, for each output."""
    pairs = [*record["pairs"], record["held_out"]]
    for k, pair in enumerate(pairs):
        out = copy.deepcopy(pair["out"])
        walls = out["walls"]
        choice = rng.randrange(8)
        if choice == 0:
            out["w"] += rng.choice((-1, 1))
        elif choice == 1:
            out["h"] += rng.choice((-1, 1))
        elif choice == 2 and walls:
            walls.append(rng.choice(walls))
        elif choice == 3 and walls:
            walls.pop(rng.randrange(len(walls)))
        elif choice == 4 and walls:
            out["markers"].append([*rng.choice(walls), 1])
        elif choice == 5:
            out["karel"]["pos"] = list(rng.choice(walls or [[0, 0]]))
        elif choice == 6:
            out["walls"] = rng.choice((None, 3, "ab", {}, [walls], walls[::-1]))
        else:
            walls.append([out["w"] - 1, out["h"]])
        mutated = copy.deepcopy(record)
        if k < len(record["pairs"]):
            mutated["pairs"][k]["out"] = out
        else:
            mutated["held_out"]["out"] = out
        yield mutated


def _read_alone(record):
    """The task or the error of a read in which every grid gets its own wall set."""
    try:
        pairs = tuple((grid_from_json(p["in"]), grid_from_json(p["out"]))
                      for p in (*record["pairs"], record["held_out"]))
    except ValueError as exc:
        return type(exc), str(exc)
    return SynthesisTask(parse_program(record["program"]), pairs[:-1], pairs[-1])


def _read_in_task(record):
    try:
        return task_from_json(record)
    except ValueError as exc:
        return type(exc), str(exc)


def test_task_from_json_matches_lone_grid_reads_on_mutated_outputs():
    rng = random.Random(39)
    source = task_source(sample_uniform_grid, n_pairs="uniform")
    verdicts = Counter()
    for _ in range(20):
        record = task_to_json(source(rng))
        for mutated in _mutated_outputs(record, rng):
            got = _read_in_task(mutated)
            assert got == _read_alone(mutated)
            verdicts[type(got) is SynthesisTask] += 1
    assert verdicts[True] > 10 and verdicts[False] > 20


def test_task_salient_specs_stay_in_domain():
    specs = salient_specs()
    src = task_source(sample_uniform_grid, n_pairs="uniform")
    rng = random.Random(72)
    for _ in range(40):
        task = src(rng)
        for spec in specs.values():
            assert spec.extract(task) in spec.domain


def test_task_source_varies_pair_counts():
    src = task_source(sample_uniform_grid, n_pairs="uniform")
    rng = random.Random(73)
    sizes = {len(src(rng).pairs) for _ in range(60)}
    assert sizes == {1, 2, 3, 4, 5}


def test_task_source_rejects_bad_pair_spec():
    with pytest.raises(ValueError):
        task_source(sample_uniform_grid, n_pairs="all")
    with pytest.raises(ValueError):
        task_source(sample_uniform_grid, n_pairs=0)


def test_task_source_rejects_negative_step_limit():
    with pytest.raises(ValueError, match="step_limit"):
        task_source(sample_uniform_grid, step_limit=-1)


def test_task_source_honors_program_filter():
    src = task_source(sample_uniform_grid, classic_prune=True)
    rng = random.Random(74)
    for _ in range(20):
        assert satisfies_action_pruning(src(rng).program)


def test_stall_message_counts_filtered_programs_and_crash_reasons(monkeypatch):
    rejected = 0

    def counting_filter(program):
        nonlocal rejected
        keep = satisfies_action_pruning(program)
        rejected += not keep
        return keep

    # With no step allowed, any run that reaches an action crashes, so
    # every program the filter keeps is uncoverable in one grid batch.
    monkeypatch.setattr(gen, "satisfies_action_pruning", counting_filter)
    monkeypatch.setattr(gen, "_RETRY_LIMIT", 1)
    for seed in range(5):
        rejected = 0
        src = task_source(sample_uniform_grid, step_limit=0, classic_prune=True)
        with pytest.raises(GenerationStallError) as excinfo:
            src(random.Random(seed))
        message = str(excinfo.value)
        assert message.startswith(
            f"100 consecutive programs failed task assembly ({rejected} rejected by the "
            "program filter; crashes of the rest: {'StepLimit': "
        )
        assert 0 < int(re.search(r"'StepLimit': (\d+)", message)[1]) <= 100 - rejected
        assert message.endswith(
            "; the grid distribution likely cannot exercise the sampled programs"
        )


# ---------------------------------------------------------------------------
# homogenization over task streams


def test_homogenizing_task_salients_improves_uniformity():
    cases = (
        ("number_of_grids", "uniform", 300),
        ("marker_ratio_decile", 5, 150),
    )
    for var, pairs, target in cases:
        spec = salient_specs()[var]
        src = task_source(sample_uniform_grid, n_pairs=pairs)
        tasks = list(HomogenizerRun(src, spec, epsilon=0.05, target_size=target, seed=11))
        rng = random.Random(12)
        raw = [spec.extract(src(rng)) for _ in range(target)]
        after = Histogram.from_values(spec.domain, [spec.extract(t) for t in tasks])
        before = Histogram.from_values(spec.domain, raw)
        assert kl_to_uniform(after) < kl_to_uniform(before), var
