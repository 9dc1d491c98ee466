import random
from collections import Counter

import pytest

from homogen.karel import interp
from homogen.karel.gen import (
    NARROW_SWEEP_PARAMS,
    sample_narrow_grid,
    sample_program,
    sample_uniform_grid,
)
from homogen.karel.interp import (
    DEFAULT_STEP_LIMIT,
    CrashReason,
    ExecResult,
    branch_arms,
    compile_program,
    execute,
)
from homogen.karel.lang import (
    Action,
    If,
    IfElse,
    KarelProgram,
    Not,
    Pred,
    Repeat,
    While,
    parse_program,
)
from homogen.karel.world import (
    DIR_DELTA,
    DIRECTIONS,
    LEFT_OF,
    RIGHT_OF,
    GridDraw,
    KarelGrid,
    grid_cells,
)

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


def open_grid(**kwargs):
    defaults = dict(width=8, height=8, karel_pos=(4, 4), karel_dir="E")
    defaults.update(kwargs)
    return KarelGrid(**defaults)


def run_text(text, grid, **kwargs):
    return execute(parse_program(text), grid, **kwargs)


# ---------------------------------------------------------------------------
# hand-simulated walkthroughs


def test_collector_walkthrough_a():
    result = run_text(COLLECTOR_TEXT, COLLECTOR_GRID_A)
    assert result.success
    assert result.output == COLLECTOR_A_EXPECTED
    assert result.steps == COLLECTOR_A_STEPS
    assert result.branches_taken == frozenset({(0, "enter"), (0, "skip")})


def test_collector_walkthrough_b():
    result = run_text(COLLECTOR_TEXT, COLLECTOR_GRID_B)
    assert result.success
    assert result.output == COLLECTOR_B_EXPECTED
    assert result.steps == COLLECTOR_B_STEPS


# ---------------------------------------------------------------------------
# movement and rotation laws


def test_four_left_turns_are_identity():
    grid = open_grid()
    result = run_text("def main(): turnLeft() ; turnLeft() ; turnLeft() ; turnLeft()", grid)
    assert result.success
    assert result.output == grid


def test_left_then_right_is_identity():
    grid = open_grid(karel_dir="N")
    result = run_text("def main(): turnLeft() ; turnRight()", grid)
    assert result.output == grid


def test_turn_left_cycle():
    directions = ["E"]
    grid = open_grid(karel_dir="E")
    for _ in range(3):
        result = run_text("def main(): turnLeft()", grid)
        grid = result.output
        directions.append(grid.karel_dir)
    assert directions == ["E", "N", "W", "S"]


def test_move_follows_the_facing():
    for direction, target in (("N", (4, 3)), ("S", (4, 5)), ("E", (5, 4)), ("W", (3, 4))):
        result = run_text("def main(): move()", open_grid(karel_dir=direction))
        assert result.output.karel_pos == target


def test_put_then_pick_restores_the_grid():
    grid = open_grid(markers={(4, 4): 5})
    result = run_text("def main(): putMarker() ; pickMarker()", grid)
    assert result.success
    assert result.output == grid


# ---------------------------------------------------------------------------
# crashes


def test_move_into_wall_crashes():
    result = run_text(CRASH_TEXT, CRASH_GRID)
    assert not result.success
    assert result.crash is CrashReason.MOVE_INTO_WALL
    assert result.output is None


def test_move_off_the_grid_crashes():
    result = run_text("def main(): move()", open_grid(karel_pos=(0, 4), karel_dir="W"))
    assert result.crash is CrashReason.MOVE_INTO_WALL


def test_pick_from_empty_cell_crashes():
    result = run_text("def main(): pickMarker()", open_grid())
    assert result.crash is CrashReason.PICK_EMPTY


def test_put_on_full_pile_crashes():
    result = run_text("def main(): putMarker()", open_grid(markers={(4, 4): 9}))
    assert result.crash is CrashReason.PUT_OVERFLOW


def test_step_limit_crashes():
    result = run_text(
        "def main(): while(frontIsClear()): { turnLeft() }", open_grid(), step_limit=50
    )
    assert result.crash is CrashReason.STEP_LIMIT
    assert result.steps == 50


def test_actionless_while_iteration_is_a_step_limit_crash():
    # The body runs no actions, so the world can never change; this must
    # terminate with a crash rather than hang, whatever the step limit.
    text = "def main(): while(frontIsClear()): { if(markersPresent()): move() }"
    result = run_text(text, open_grid(), step_limit=10**9)
    assert result.crash is CrashReason.STEP_LIMIT


def test_steps_count_actions_not_condition_checks():
    result = run_text(COLLECTOR_TEXT, COLLECTOR_GRID_A, step_limit=6)
    assert result.success
    assert result.steps == 6
    result = run_text(COLLECTOR_TEXT, COLLECTOR_GRID_A, step_limit=5)
    assert result.crash is CrashReason.STEP_LIMIT


def test_repeat_runs_exactly_n_times():
    result = run_text("def main(): repeat(7): putMarker()", open_grid())
    assert result.output.markers == {(4, 4): 7}
    result = run_text("def main(): repeat(0): putMarker()", open_grid())
    assert result.output.markers == {}


# ---------------------------------------------------------------------------
# conditions


def test_sensor_predicates():
    grid = KarelGrid(
        width=4,
        height=4,
        walls=frozenset({(2, 1)}),
        markers={(1, 1): 2},
        karel_pos=(1, 1),
        karel_dir="E",
    )
    # Facing E at (1,1): front is the wall, left is (1,0), right is (1,2).
    checks = {
        "frontIsClear": False,
        "leftIsClear": True,
        "rightIsClear": True,
        "markersPresent": True,
    }
    for pred, expected in checks.items():
        text = f"def main(): if({pred}()): putMarker() else: pickMarker()"
        result = run_text(text, grid)
        arm = "then" if expected else "else"
        assert (0, arm) in result.branches_taken


def test_not_inverts_a_condition():
    grid = open_grid()
    result = run_text("def main(): if(not(markersPresent())): putMarker()", grid)
    assert result.output.markers == {(4, 4): 1}


def test_boundary_counts_as_blocked():
    result = run_text(
        "def main(): if(frontIsClear()): move() else: turnLeft()",
        open_grid(karel_pos=(7, 4), karel_dir="E"),
    )
    assert result.output.karel_dir == "N"
    assert result.output.karel_pos == (7, 4)


# ---------------------------------------------------------------------------
# branch coverage records


def test_branch_arms_enumerates_every_arm():
    program = parse_program(
        "def main(): if(frontIsClear()): move() ; while(markersPresent()): pickMarker()"
    )
    assert branch_arms(program) == frozenset(
        {(0, "then"), (0, "else"), (1, "enter"), (1, "skip")}
    )


def test_branch_numbering_is_preorder():
    program = KarelProgram((
        IfElse(
            Pred("frontIsClear"),
            (If(Pred("markersPresent"), (Action("pickMarker"),)),),
            (While(Pred("leftIsClear"), (Action("turnLeft"),)),),
        ),
    ))
    # Outer ifElse is 0, the then-side if is 1, the else-side while is 2.
    result = execute(program, open_grid(markers={(4, 4): 1}))
    assert (0, "then") in result.branches_taken
    assert (1, "then") in result.branches_taken
    assert not any(branch == 2 for branch, _ in result.branches_taken)


def test_repeat_has_no_branch_id():
    program = parse_program("def main(): repeat(3): if(frontIsClear()): move()")
    assert branch_arms(program) == frozenset({(0, "then"), (0, "else")})


def test_if_without_else_records_the_else_arm():
    result = run_text("def main(): if(markersPresent()): pickMarker()", open_grid())
    assert result.branches_taken == frozenset({(0, "else")})


def test_while_records_enter_and_skip():
    result = run_text(COLLECTOR_TEXT, COLLECTOR_GRID_B)
    assert result.branches_taken == frozenset({(0, "enter"), (0, "skip")})


def test_taken_arms_are_always_a_subset_of_branch_arms():
    rng = random.Random(41)
    for _ in range(300):
        program = sample_program(rng)
        grid = sample_uniform_grid(rng)
        result = execute(program, grid)
        assert result.branches_taken <= branch_arms(program)


# ---------------------------------------------------------------------------
# whole-run invariants on fuzzed programs


def test_successful_outputs_are_valid_grids_and_stable_under_higher_limits():
    rng = random.Random(42)
    checked = 0
    for _ in range(600):
        program = sample_program(rng)
        grid = sample_uniform_grid(rng)
        result = execute(program, grid, step_limit=100)
        if not result.success:
            continue
        checked += 1
        out = result.output
        # Construction re-runs the full grid validation.
        assert KarelGrid(
            width=out.width,
            height=out.height,
            walls=out.walls,
            markers=out.markers,
            karel_pos=out.karel_pos,
            karel_dir=out.karel_dir,
        ) == out
        assert out.width == grid.width and out.height == grid.height
        assert out.walls == grid.walls
        again = execute(program, grid, step_limit=10_000)
        assert again.success
        assert again.output == out
        assert again.steps == result.steps
        assert again.branches_taken == result.branches_taken
    assert checked > 100


def test_execution_is_deterministic():
    rng = random.Random(43)
    program = sample_program(rng)
    grid = sample_uniform_grid(rng)
    first, second = [(run.crash, run.taken, run.steps, run.pos, run.direction, run.markers)
                     for run in (execute(program, grid), execute(program, grid))]
    assert first == second


def test_step_limit_validation():
    # The limit counts steps, so it is an exact int: 2.5 and True are refused.
    for step_limit in (-1, 2.5, True):
        with pytest.raises(ValueError, match="^step_limit must be"):
            execute(KarelProgram((Action("move"),)), open_grid(), step_limit=step_limit)


# ---------------------------------------------------------------------------
# wall checks: one free-cell lookup in place of "in bounds and not a wall"


def wall_check_grids():
    rng = random.Random(47)
    draws = [sample_uniform_grid(rng) for _ in range(60)]
    draws += [sample_narrow_grid(rng, params) for params in NARROW_SWEEP_PARAMS]
    grids = [KarelGrid(d.width, d.height, d.walls, d.markers, d.karel_pos, d.karel_dir)
             for d in draws[::4]]
    # A wall cell that equals an int cell without being one.
    grids.append(KarelGrid(3, 3, frozenset({(1.0, 1)}), {}, (0, 0), "E"))
    return draws + grids


WALL_CHECK_GRIDS = wall_check_grids()


@pytest.mark.parametrize("grid", WALL_CHECK_GRIDS, ids=[
    f"{type(g).__name__}-{k}-{g.width}x{g.height}" for k, g in enumerate(WALL_CHECK_GRIDS)])
def test_wall_checks_follow_the_in_bounds_and_not_a_wall_rule(grid):
    walls = grid.walls
    run = ExecResult(grid, DEFAULT_STEP_LIMIT)
    for cell in grid_cells(grid.width, grid.height):
        for direction in DIRECTIONS:
            di, dj = DIR_DELTA[direction]
            i, j = cell[0] + di, cell[1] + dj
            clear = 0 <= i < grid.width and 0 <= j < grid.height and (i, j) not in walls
            run.pos, run.direction, run.steps = cell, direction, 0
            assert interp._clear_toward(run, direction) is clear
            if clear:
                interp._move(run)
                assert (run.pos, run.steps) == ((i, j), 1)
            else:
                with pytest.raises(interp._Crash) as crash:
                    interp._move(run)
                assert crash.value.args[0] is CrashReason.MOVE_INTO_WALL
                assert (run.pos, run.steps) == (cell, 0)


def test_a_run_freezes_the_free_cells_at_its_first_wall_check():
    grid = open_grid(walls=frozenset({(5, 4)}))
    assert run_text("def main(): turnLeft() ; putMarker()", grid).free is None
    result = run_text("def main(): turnLeft() ; move()", grid)
    assert result.free == grid.free == frozenset(grid_cells(8, 8)) - {(5, 4)}
    assert result.output.walls is grid.walls


# ---------------------------------------------------------------------------
# the AST-walking interpreter the closure compiler replaces, as a reference


class ReferenceRun:
    def __init__(self, program, grid, step_limit):
        self.grid = grid
        self.walls = grid.walls
        self.markers = dict(grid.markers)
        self.pos = grid.karel_pos
        self.direction = grid.karel_dir
        self.step_limit = step_limit
        self.steps = 0
        self.taken = set()
        self.numbering = {}
        self.number(program.body, ())

    def number(self, stmt, path):
        match stmt:
            case tuple():
                for i, part in enumerate(stmt):
                    self.number(part, path + (i,))
            case If(body=body) | While(body=body):
                self.numbering[path] = len(self.numbering)
                self.number(body, path + (0,))
            case IfElse(then_body=then_body, else_body=else_body):
                self.numbering[path] = len(self.numbering)
                self.number(then_body, path + (0,))
                self.number(else_body, path + (1,))
            case Repeat(body=body):
                self.number(body, path + (0,))

    def exec(self, stmt, path):
        match stmt:
            case Action(name=name):
                if self.steps >= self.step_limit:
                    raise ReferenceCrash(CrashReason.STEP_LIMIT)
                self.act(name)
                self.steps += 1
            case tuple():
                for i, part in enumerate(stmt):
                    self.exec(part, path + (i,))
            case If(cond=cond, body=body):
                arm = "then" if self.holds(cond) else "else"
                self.taken.add((self.numbering[path], arm))
                if arm == "then":
                    self.exec(body, path + (0,))
            case IfElse(cond=cond, then_body=then_body, else_body=else_body):
                if self.holds(cond):
                    self.taken.add((self.numbering[path], "then"))
                    self.exec(then_body, path + (0,))
                else:
                    self.taken.add((self.numbering[path], "else"))
                    self.exec(else_body, path + (1,))
            case While(cond=cond, body=body):
                while self.holds(cond):
                    self.taken.add((self.numbering[path], "enter"))
                    before = self.steps
                    self.exec(body, path + (0,))
                    if self.steps == before:
                        raise ReferenceCrash(CrashReason.STEP_LIMIT)
                self.taken.add((self.numbering[path], "skip"))
            case Repeat(times=times, body=body):
                for _ in range(times):
                    self.exec(body, path + (0,))

    def act(self, name):
        have = self.markers.get(self.pos, 0)
        if name == "move":
            target = self.ahead(self.direction)
            if target is None:
                raise ReferenceCrash(CrashReason.MOVE_INTO_WALL)
            self.pos = target
        elif name in ("turnLeft", "turnRight"):
            turns = {"turnLeft": LEFT_OF, "turnRight": RIGHT_OF}[name]
            self.direction = turns[self.direction]
        elif name == "pickMarker":
            if have == 0:
                raise ReferenceCrash(CrashReason.PICK_EMPTY)
            if have == 1:
                del self.markers[self.pos]
            else:
                self.markers[self.pos] = have - 1
        else:
            if have >= 9:
                raise ReferenceCrash(CrashReason.PUT_OVERFLOW)
            self.markers[self.pos] = have + 1

    def ahead(self, direction):
        di, dj = DIR_DELTA[direction]
        i, j = self.pos[0] + di, self.pos[1] + dj
        inside = 0 <= i < self.grid.width and 0 <= j < self.grid.height
        return (i, j) if inside and (i, j) not in self.walls else None

    def holds(self, cond):
        match cond:
            case Not(cond=inner):
                return not self.holds(inner)
            case Pred(name="markersPresent"):
                return self.markers.get(self.pos, 0) > 0
            case Pred(name=name):
                turn = {"frontIsClear": None, "leftIsClear": LEFT_OF,
                        "rightIsClear": RIGHT_OF}[name]
                return self.ahead(turn[self.direction] if turn else self.direction) is not None


class ReferenceCrash(Exception):
    def __init__(self, reason):
        self.reason = reason


def reference_run(program, grid, step_limit):
    """The finished reference run and its crash reason, ``None`` on success."""
    run = ReferenceRun(program, grid, step_limit)
    try:
        run.exec(program.body, ())
    except ReferenceCrash as crash:
        return run, crash.reason
    return run, None


def reference_execute(program, grid, step_limit):
    run, crash = reference_run(program, grid, step_limit)
    if crash is not None:
        return None, crash, frozenset(run.taken), run.steps
    output = KarelGrid(width=grid.width, height=grid.height, walls=run.walls,
                       markers=run.markers, karel_pos=run.pos, karel_dir=run.direction)
    return output, None, frozenset(run.taken), run.steps


def assert_matches_the_reference(program, grid, step_limit, compiled=None):
    """Compare everything a run ends with, crashed or not: its crash, arms
    and steps, and its final world, which a crashed result does not hand
    out as ``output``."""
    result = execute(compiled or program, grid, step_limit)
    run, crash = reference_run(program, grid, step_limit)
    assert (result.crash, result.taken, result.steps) == (crash, run.taken, run.steps)
    assert (result.pos, result.direction, result.markers) == (run.pos, run.direction, run.markers)
    return result


def test_compiled_programs_match_the_reference_interpreter():
    rng = random.Random(44)
    crashes = set()
    for _ in range(400):
        program = sample_program(rng)
        compiled = compile_program(program)
        assert branch_arms(compiled) == branch_arms(program)
        for _ in range(5):
            grid = sample_uniform_grid(rng)
            step_limit = rng.choice((0, 5, 200))
            result = execute(compiled, grid, step_limit)
            expected = reference_execute(program, grid, step_limit)
            assert (result.output, result.crash, result.branches_taken, result.steps) == expected
            crashes.add(result.crash)
    assert crashes == {None, *CrashReason}


# ---------------------------------------------------------------------------
# a while loop back in a world it has seen jumps to the step limit


JUMP_LIMITS = [*range(41), 199, 200, 201, 1000]

# A right-hand wall follower: it circles the 2x2 block of walls forever.
FOLLOWER_TEXT = (
    "def main(): while(not(markersPresent())): { if(rightIsClear()): { turnRight() ; move() }"
    " else: { if(frontIsClear()): move() else: turnLeft() } }"
)
BLOCK_GRID = open_grid(walls=frozenset({(3, 3), (4, 3), (3, 4), (4, 4)}), karel_pos=(3, 2))

# Loops that go idle, so the reference crashes at the first iteration that
# runs no action whatever the step limit; the cycle check stops them later.
IDLE_CASES = {
    "act-then-idle": (
        "def main(): while(frontIsClear()): { if(not(markersPresent())): putMarker() }",
        open_grid(),
    ),
    # Nine picks, then idle iterations until the check saved at iteration 15
    # matches at 16: the longest delay of these cases.
    "pile-emptied-then-idle": (
        "def main(): while(frontIsClear()): { if(markersPresent()): pickMarker() }",
        open_grid(markers={(4, 4): 9}),
    ),
    "idle-inner-while-in-repeat": (
        "def main(): repeat(3): "
        "{ move() ; while(markersPresent()): { if(not(frontIsClear())): pickMarker() } }",
        open_grid(markers={(6, 4): 1}),
    ),
}

LOOP_CASES = {
    "four-turns": ("def main(): while(frontIsClear()): { turnLeft() }", open_grid()),
    "four-turns-per-iteration": (
        "def main(): while(not(markersPresent())): "
        "{ turnLeft() ; turnLeft() ; turnLeft() ; turnLeft() }",
        open_grid(),
    ),
    "walled-block-walk": (FOLLOWER_TEXT, BLOCK_GRID),
    "inner-while-cycles": (
        "def main(): while(markersPresent()): "
        "{ pickMarker() ; while(not(markersPresent())): { turnLeft() } }",
        open_grid(markers={(4, 4): 3}),
    ),
    "outer-while-cycles-around-inner": (
        "def main(): while(frontIsClear()): "
        "{ move() ; while(frontIsClear()): { move() } ; turnLeft() }",
        open_grid(),
    ),
    "repeat-in-body": (
        "def main(): while(frontIsClear()): { repeat(3): { turnLeft() } ; move() }",
        open_grid(),
    ),
    # Every cycle changes a marker and changes it back, so ``marks`` keeps
    # growing and the loop is left to run to the limit.
    "put-pick": ("def main(): while(frontIsClear()): { putMarker() ; pickMarker() }",
                 open_grid()),
    **IDLE_CASES,
}


@pytest.mark.parametrize("case", LOOP_CASES)
def test_looping_programs_end_where_the_reference_does(case):
    text, grid = LOOP_CASES[case]
    program = parse_program(text)
    crashes = set()
    for step_limit in JUMP_LIMITS + ([10**9] if case in IDLE_CASES else []):
        crashes.add(assert_matches_the_reference(program, grid, step_limit).crash)
    assert CrashReason.STEP_LIMIT in crashes


@pytest.mark.parametrize("step_limit", JUMP_LIMITS)
def test_sampled_programs_end_where_the_reference_does(step_limit):
    rng = random.Random(48 + step_limit)
    for _ in range(40):
        program = sample_program(rng)
        compiled = compile_program(program)
        for _ in range(3):
            assert_matches_the_reference(program, sample_uniform_grid(rng), step_limit, compiled)


def count_actions(monkeypatch, name):
    """Count calls of one action in programs compiled from here on."""
    calls = Counter()
    action = interp._ACTIONS[name]

    def counted(run):
        calls[name] += 1
        action(run)

    monkeypatch.setitem(interp._ACTIONS, name, counted)
    return calls


def test_a_cycling_while_jumps_to_the_step_limit(monkeypatch):
    calls = count_actions(monkeypatch, "turnLeft")
    result = run_text("def main(): while(frontIsClear()): { turnLeft() }", open_grid(),
                      step_limit=10**6)
    assert result.crash is CrashReason.STEP_LIMIT
    assert result.steps == 10**6
    assert calls["turnLeft"] <= 30


def test_a_while_that_changes_markers_never_jumps(monkeypatch):
    calls = count_actions(monkeypatch, "putMarker")
    result = run_text(LOOP_CASES["put-pick"][0], open_grid(), step_limit=1001)
    assert result.crash is CrashReason.STEP_LIMIT
    assert (result.steps, calls["putMarker"]) == (1001, 501)
    assert result.marks == 1001


# ---------------------------------------------------------------------------
# the ExecResult contract: a run's own state, read-only once returned


MARKER_TEXT = "def main(): putMarker() ; move() ; pickMarker() ; pickMarker() ; putMarker()"


@pytest.mark.parametrize("as_draw", [False, True], ids=["grid", "draw"])
def test_a_run_leaves_its_input_markers_alone(as_draw):
    grid = open_grid(markers={(4, 4): 3, (5, 4): 2})
    markers = dict(grid.markers)
    source = GridDraw(*(getattr(grid, name) for name in GridDraw._fields)) if as_draw else grid
    result = run_text(MARKER_TEXT, source)
    assert result.success
    assert source.markers == markers
    assert grid.markers == markers
    assert result.output.markers == {(4, 4): 4, (5, 4): 1}


def test_exec_result_matches_the_reference():
    rng = random.Random(45)
    crashed = succeeded = 0
    for _ in range(300):
        program = sample_program(rng)
        grid = sample_uniform_grid(rng)
        result = execute(program, grid)
        assert type(result) is ExecResult
        assert type(result.branches_taken) is frozenset
        output, crash, taken, steps = reference_execute(program, grid, DEFAULT_STEP_LIMIT)
        assert result.output == output
        assert result.branches_taken == taken
        if crash is None:
            succeeded += 1
            assert type(result.output) is KarelGrid
            assert result.output is not result.output  # built on each read
        else:
            crashed += 1
            assert result.output is None
    assert crashed > 50 and succeeded > 50
