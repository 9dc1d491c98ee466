"""End-to-end acceptance checks for the toolkit.

Each numbered test covers one shipped guarantee and prints a single
``ACCEPTANCE <n> <name>: PASS|FAIL (<detail>)`` line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines for passing tests too. Every test also asserts its own
wall-clock budget so the whole suite stays runnable on a laptop.

Check 1 is expected to fail and is kept faithful anyway: with counts taken
over every draw, the accepted share of a value with source probability q
converges to q/(q+eps) (normalized), so at eps=0.01 a q=0.01 value tops out
near 6.1% of the output, below the 8% floor the check demands. The
supplement right after it shows the eps=0 run does reach the band.
"""

import bisect
import itertools
import math
import random
import time
from collections import Counter
from pathlib import Path

from homogen import calc
from homogen.diagnostics import Histogram, acceptance_curve, kl_to_uniform
from homogen.homogenizer import HomogenizerRun, SalientSpec
from homogen.karel.gen import (
    NARROW_SWEEP_PARAMS,
    MarkerCountDist,
    sample_narrow_grid,
    sample_uniform_grid,
    task_source,
)
from homogen.karel.interp import CrashReason, branch_arms, execute
from homogen.karel.lang import parse_program
from homogen.karel.world import KarelGrid
from karel_fixtures import (
    COLLECTOR_A_EXPECTED,
    COLLECTOR_A_STEPS,
    COLLECTOR_B_EXPECTED,
    COLLECTOR_B_STEPS,
    COLLECTOR_GRID_A,
    COLLECTOR_GRID_B,
    COLLECTOR_TEXT,
    CRASH_GRID,
    CRASH_TEXT,
)


def report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {index} {name}: {status}{suffix}")


def categorical_source(probs):
    cum = list(itertools.accumulate(probs))
    return lambda rng: min(bisect.bisect_right(cum, rng.random()), len(probs) - 1)


BIASED_PROBS = (0.30, 0.20, 0.15, 0.10, 0.08, 0.06, 0.05, 0.03, 0.02, 0.01)


# ---------------------------------------------------------------------------
# 1. output uniformity of the homogenizer on a strongly biased source


def test_01_homogenizer_uniformity_band():
    t0 = time.perf_counter()
    source = categorical_source(BIASED_PROBS)
    spec = SalientSpec("value", tuple(range(10)), lambda s: s)
    counts = Counter(HomogenizerRun(source, spec, epsilon=0.01, target_size=20_000, seed=5))
    freqs = [counts[v] / 20_000 for v in range(10)]
    elapsed = time.perf_counter() - t0

    # Steady-state prediction: accepted share of value x is proportional to
    # q_x / (q_x + eps), because the count table tracks the raw draw
    # distribution and the acceptance rule settles at (q_min+eps)/(q_x+eps).
    weights = [q / (q + 0.01) for q in BIASED_PROBS]
    predicted = [w / sum(weights) for w in weights]

    ok = all(0.08 <= f <= 0.12 for f in freqs)
    report(
        1,
        "homogenizer-uniformity-band",
        ok,
        "freqs=" + "/".join(f"{f:.3f}" for f in freqs)
        + f"; steady state predicts rarest bin {min(predicted):.4f}",
    )
    assert elapsed < 30.0
    assert ok, (
        f"bin frequencies {freqs} not all within [0.08, 0.12]; at eps=0.01 the "
        f"accepted share of a probability-0.01 value converges to "
        f"{min(predicted):.4f}, so this band needs a smaller eps"
    )


def test_01_supplement_exact_uniformity_at_eps_zero():
    """Not one of the numbered checks: evidence that the band itself is
    attainable once eps stops dominating the rarest value's probability."""
    t0 = time.perf_counter()
    source = categorical_source(BIASED_PROBS)
    spec = SalientSpec("value", tuple(range(10)), lambda s: s)
    run = HomogenizerRun(source, spec, epsilon=0.0, target_size=20_000, seed=5,
                         max_draws=4_000_000)
    counts = Counter(run)
    freqs = [counts[v] / 20_000 for v in range(10)]
    elapsed = time.perf_counter() - t0
    ok = all(0.08 <= f <= 0.12 for f in freqs)
    print(
        "\nNOTE check-1 supplement (eps=0): "
        + ("in band " if ok else "out of band ")
        + "/".join(f"{f:.3f}" for f in freqs)
    )
    assert elapsed < 30.0
    assert ok


# ---------------------------------------------------------------------------
# 2. draws-per-accept stays under 1 + 1/eps and falls as eps grows


def test_02_sampling_cost_bound_curve():
    t0 = time.perf_counter()
    sampler = calc.Dcfg()
    # Trees are drawn and measured as `homogenize calc` does; their salients
    # equal those of the rendered text.
    source = lambda rng: calc.sample_expr(rng, sampler)  # noqa: E731
    spec = calc.salient_specs()["length"]
    points = acceptance_curve(
        source, spec, (0.025, 0.05, 0.1, 0.2), draws_per_point=4000, rng=random.Random(31)
    )
    elapsed = time.perf_counter() - t0

    under_bound = all(p.draws_per_accept <= p.bound + 3.0 * p.stderr for p in points)
    non_increasing = all(
        b.draws_per_accept
        <= a.draws_per_accept + 3.0 * math.sqrt(a.stderr**2 + b.stderr**2)
        for a, b in zip(points, points[1:])
    )
    ok = under_bound and non_increasing
    report(
        2,
        "sampling-cost-bound",
        ok,
        ", ".join(f"eps={p.epsilon}: {p.draws_per_accept:.2f}<= {p.bound:.0f}" for p in points),
    )
    assert elapsed < 120.0
    assert under_bound
    assert non_increasing


# ---------------------------------------------------------------------------
# 3. KL-to-uniform drops for every salient variable on both calc samplers


def test_03_kl_reduction_for_all_salient_variables():
    t0 = time.perf_counter()
    n = 50_000
    eps = 0.025
    reductions = {}
    for dist_name, sampler in (("dcfg", calc.Dcfg()), ("t2t", calc.T2t())):
        source = lambda rng: calc.sample_expr(rng, sampler)  # noqa: E731
        for var, spec in calc.salient_specs().items():
            accepted = list(HomogenizerRun(source, spec, epsilon=eps, target_size=n, seed=101))
            raw_rng = random.Random(102)
            raw = [spec.extract(source(raw_rng)) for _ in range(n)]
            before = kl_to_uniform(Histogram.from_values(spec.domain, raw))
            after = kl_to_uniform(
                Histogram.from_values(spec.domain, [spec.extract(r) for r in accepted])
            )
            reductions[(dist_name, var)] = 100.0 * (1.0 - after / before)
    elapsed = time.perf_counter() - t0

    all_positive = all(r > 0 for r in reductions.values())
    length_red = reductions[("dcfg", "length")]
    length_in_band = 25.0 <= length_red <= 60.0
    ok = all_positive and length_in_band
    detail = "; ".join(
        f"{d}/{v} {r:.1f}%" for (d, v), r in sorted(reductions.items())
    )
    report(3, "kl-reduction-per-variable", ok, detail)
    assert elapsed < 300.0
    assert all_positive, f"non-positive reductions in {reductions}"
    assert length_in_band, f"dcfg length reduction {length_red:.2f}% outside [25, 60]"


# ---------------------------------------------------------------------------
# 4. calculator evaluation agrees with exact big-integer arithmetic


def exact_value(expr) -> int:
    match expr:
        case int(v):
            return v
        case calc.BinOp(op="+", left=l, right=r):
            return exact_value(l) + exact_value(r)
        case calc.BinOp(op="-", left=l, right=r):
            return exact_value(l) - exact_value(r)
        case calc.BinOp(op="*", left=l, right=r):
            return exact_value(l) * exact_value(r)
    raise AssertionError(expr)


def test_04_calculator_oracle_and_round_trip():
    t0 = time.perf_counter()
    samplers = (calc.Dcfg(), calc.T2t(), calc.Rcfg(), calc.Bal())
    rng = random.Random(17)
    checked = 0
    for i in range(10_000):
        expr = calc.sample_expr(rng, samplers[i % len(samplers)])
        assert calc.eval_mod10(expr) == exact_value(expr) % 10
        assert calc.parse_expr(calc.render(expr)) == expr
        checked += 1
    anchor = calc.eval_mod10(calc.parse_expr("5+4*(2+3)"))
    elapsed = time.perf_counter() - t0
    ok = checked == 10_000 and anchor == 5
    report(4, "calculator-oracle", ok, f"{checked} expressions, '5+4*(2+3)' -> {anchor}")
    assert elapsed < 10.0
    assert ok


# ---------------------------------------------------------------------------
# 5. interpreter laws and the hand-simulated walkthrough fixtures


def test_05_interpreter_laws_and_walkthrough():
    t0 = time.perf_counter()
    base = KarelGrid(width=4, height=3, markers={(2, 1): 3}, karel_pos=(1, 1), karel_dir="N")

    four_lefts = parse_program(
        "def main(): turnLeft() ; turnLeft() ; turnLeft() ; turnLeft()"
    )
    res = execute(four_lefts, base)
    laws = res.success and res.output == base

    put_pick = parse_program("def main(): putMarker() ; pickMarker()")
    res = execute(put_pick, base)
    laws = laws and res.success and res.output == base

    wall_res = execute(parse_program(CRASH_TEXT), CRASH_GRID)
    laws = laws and wall_res.crash is CrashReason.MOVE_INTO_WALL

    empty = KarelGrid(width=2, height=2, karel_pos=(0, 0), karel_dir="E")
    pick_res = execute(parse_program("def main(): pickMarker()"), empty)
    laws = laws and pick_res.crash is CrashReason.PICK_EMPTY

    collector = parse_program(COLLECTOR_TEXT)
    res_a = execute(collector, COLLECTOR_GRID_A)
    res_b = execute(collector, COLLECTOR_GRID_B)
    fixture_ok = (
        res_a.success
        and res_a.output == COLLECTOR_A_EXPECTED
        and res_a.steps == COLLECTOR_A_STEPS
        and res_b.success
        and res_b.output == COLLECTOR_B_EXPECTED
        and res_b.steps == COLLECTOR_B_STEPS
    )
    elapsed = time.perf_counter() - t0
    ok = laws and fixture_ok
    report(
        5,
        "interpreter-laws",
        ok,
        f"laws={'ok' if laws else 'BROKEN'}, walkthrough={'ok' if fixture_ok else 'BROKEN'}",
    )
    assert elapsed < 5.0
    assert laws
    assert fixture_ok


# ---------------------------------------------------------------------------
# 6. every generated task re-validates: no crashes, full branch coverage


def test_06_generated_tasks_revalidate():
    t0 = time.perf_counter()
    rng = random.Random(59)
    source = task_source(sample_uniform_grid, n_pairs=5)
    crash_free = True
    covered = True
    outputs_match = True
    for _ in range(1000):
        task = source(rng)
        arms = branch_arms(task.program)
        taken = set()
        for grid_in, grid_out in task.pairs:
            res = execute(task.program, grid_in)
            crash_free = crash_free and res.success
            outputs_match = outputs_match and res.output == grid_out
            taken |= res.branches_taken
        held_res = execute(task.program, task.held_out[0])
        crash_free = crash_free and held_res.success
        outputs_match = outputs_match and held_res.output == task.held_out[1]
        covered = covered and taken >= arms
    elapsed = time.perf_counter() - t0
    ok = crash_free and covered and outputs_match
    report(
        6,
        "task-revalidation",
        ok,
        f"1000 tasks, crash_free={crash_free}, coverage={covered}, outputs={outputs_match}",
    )
    assert elapsed < 120.0
    assert ok


# ---------------------------------------------------------------------------
# 7. narrow grid sampler: exact cell counts and pile-size distributions


def geom_pmf():
    pmf = {k: 2.0**-k for k in range(1, 9)}
    pmf[9] = 2.0**-8
    return pmf


def anti_pmf():
    geom = geom_pmf()
    pmf = {10 - k: p for k, p in geom.items() if k <= 8}
    pmf[1] = geom[9]
    return pmf


def test_07_narrow_sampler_exact_counts_and_pile_laws():
    t0 = time.perf_counter()
    rng = random.Random(73)

    counts_exact = True
    for params in NARROW_SWEEP_PARAMS:
        for _ in range(25):
            grid = sample_narrow_grid(rng, params)
            cells = grid.width * grid.height
            counts_exact = counts_exact and len(grid.walls) == int(cells * params.r_wall)
            counts_exact = counts_exact and len(grid.markers) == int(cells * params.r_marker)

    expected = {
        MarkerCountDist.GEOM: geom_pmf(),
        MarkerCountDist.UNIFORM: {k: 1.0 / 9.0 for k in range(1, 10)},
        MarkerCountDist.ANTIGEOM: anti_pmf(),
    }
    tv_by_dist = {}
    for dist, pmf in expected.items():
        param_cycle = itertools.cycle([p for p in NARROW_SWEEP_PARAMS if p.marker_dist is dist])
        piles = Counter()
        drawn = 0
        while drawn < 100_000:
            grid = sample_narrow_grid(rng, next(param_cycle))
            piles.update(grid.markers.values())
            drawn = sum(piles.values())
        tv = 0.5 * sum(abs(piles[k] / drawn - pmf.get(k, 0.0)) for k in range(1, 10))
        tv_by_dist[dist.value] = tv
    tv_ok = all(tv <= 0.01 for tv in tv_by_dist.values())

    elapsed = time.perf_counter() - t0
    ok = counts_exact and tv_ok
    report(
        7,
        "narrow-sampler-exactness",
        ok,
        f"floor counts {'exact' if counts_exact else 'WRONG'}, TV="
        + ", ".join(f"{d}:{tv:.4f}" for d, tv in tv_by_dist.items()),
    )
    assert elapsed < 120.0
    assert counts_exact
    assert tv_ok


# ---------------------------------------------------------------------------
# 8. scope: data generation and measurement only; no model training here


def test_08_model_training_scope_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").lower()
    documented = "out of scope" in text and ("neural" in text or "training" in text)
    report(
        8,
        "scope-documented",
        documented,
        "README states that model training and its accuracy numbers are excluded",
    )
    assert documented
