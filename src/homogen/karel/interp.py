"""Karel program execution with crash-as-value semantics.

A run either succeeds with the final grid or reports a crash: moving into a
wall or off the grid, picking from an empty cell, stacking a tenth marker,
or exceeding the step limit. Steps count completed actions only; condition
checks are free. A ``while`` whose body completes an iteration without
executing a single action cannot ever change the world, so a still-true
condition at that point is reported as a step-limit crash instead of
spinning forever.

A ``while`` that ends an iteration in a world it has already ended one in
skips its remaining whole cycles in one step. After each iteration it
compares the state ``(pos, direction, marks)`` with one saved state, which
it replaces at doubling intervals (Brent, "An improved Monte Carlo
factorization algorithm", 1980), so a loop keeps O(1) memory whatever the
step limit. ``marks`` counts the run's marker changes, so two equal states
mean no marker changed in between and the whole world is the same. The
condition and the body depend only on the world, and on ``steps`` only
through the step-limit check, so every cycle of ``L`` steps would repeat
the same actions and arms and end in the same world again: the loop adds
``(step_limit - steps) // L * L`` to ``steps`` and runs on, and crashes at
the same action, with the same arms and final world, as a run without the
jump. A loop that changes markers on every cycle never matches and runs to
the limit as before.

Each run also records which conditional arms it exercised. Conditionals
(``if``, ``if/else``, ``while``) are numbered in pre-order; ``if`` arms are
``then``/``else`` (an ``if`` without an else records ``else`` when the
condition fails), ``while`` arms are ``enter``/``skip``. ``repeat`` has no
branch. The pairs a program could ever produce come from
:func:`branch_arms`.

:func:`compile_program` turns a program into closures once; callers that
run one program on many grids pass its result to :func:`execute` and
:func:`branch_arms` in place of the program.

:func:`execute` runs on a :class:`KarelGrid` or an unvalidated
:class:`GridDraw` alike, and returns the run's own state as its result: an
:class:`ExecResult` builds its ``frozenset`` of arms and its validated
output grid only when they are read, so a run whose output nobody reads
never builds either. A wall check asks whether the cell ahead is among the
grid's free cells, which also rules out cells off the grid; the run
freezes the free cells on its first wall check, so a run that makes none
builds no set.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from .._frozen import Frozen
from .lang import Action, Body, Cond, If, IfElse, KarelProgram, Not, Pred, Repeat, Stmt, While
from .world import DIR_DELTA, LEFT_OF, MAX_MARKERS, RIGHT_OF, Cell, GridDraw, KarelGrid

DEFAULT_STEP_LIMIT = 200

BranchArm = tuple[int, str]


class CrashReason(enum.Enum):
    MOVE_INTO_WALL = "MoveIntoWall"
    PICK_EMPTY = "PickEmpty"
    PUT_OVERFLOW = "PutOverflow"
    STEP_LIMIT = "StepLimit"


class _Crash(Exception):
    """A run stopped; ``args[0]`` is its :class:`CrashReason`."""


class ExecResult:
    """One run: the mutable world while it executes, read-only once
    :func:`execute` returns it.

    ``crash`` is ``None`` on success; ``steps`` counts completed actions and
    ``taken`` holds the arms the run recorded. ``branches_taken`` and
    ``output`` (the final world as a validated grid, ``None`` after a crash)
    are built anew on every read; ``output`` takes its sides and its wall
    set from the input ``grid``, so it keeps the input's own wall cells.
    ``free`` is ``None`` until the run's first wall check freezes the
    input's free cells. ``marks`` counts the markers the run put or picked;
    a ``while`` compares it to tell that no marker changed.
    """

    __slots__ = ("grid", "free", "markers", "marks", "pos", "direction",
                 "step_limit", "steps", "taken", "crash")

    def __init__(self, grid: GridDraw | KarelGrid, step_limit: int):
        self.grid = grid
        self.free: frozenset[Cell] | None = None
        self.markers = dict(grid.markers)
        self.marks = 0
        self.pos = grid.karel_pos
        self.direction = grid.karel_dir
        self.step_limit = step_limit
        self.steps = 0
        self.taken: set[BranchArm] = set()
        self.crash: CrashReason | None = None

    @property
    def success(self) -> bool:
        return self.crash is None

    @property
    def branches_taken(self) -> frozenset[BranchArm]:
        return frozenset(self.taken)

    @property
    def output(self) -> KarelGrid | None:
        if self.crash is not None:
            return None
        grid = self.grid
        return KarelGrid(grid.width, grid.height, grid.walls, self.markers, self.pos,
                         self.direction)


Code = Callable[[ExecResult], None]
CondCode = Callable[[ExecResult], bool]


class CompiledProgram(Frozen):
    """A program translated once into nested closures.

    Each statement becomes a function of the run state (closure compilation,
    Feeley & Lapalme, "Using Closures for Code Generation", 1987), so a run
    walks no AST. Conditionals get their branch ids in pre-order while
    compiling; ``arms`` holds every (branch id, arm) pair the code records.
    """

    __slots__ = ("code", "arms")


def compile_program(program: KarelProgram) -> CompiledProgram:
    arms: list[BranchArm] = []
    code = _compile(program.body, arms)
    return CompiledProgram(code=code, arms=frozenset(arms))


def _compiled(program: KarelProgram | CompiledProgram) -> CompiledProgram:
    if isinstance(program, CompiledProgram):
        return program
    return compile_program(program)


def branch_arms(program: KarelProgram | CompiledProgram) -> frozenset[BranchArm]:
    """All (branch id, arm) pairs the program can record."""
    return _compiled(program).arms


def _compile(stmt: Body | Stmt, arms: list[BranchArm]) -> Code:
    match stmt:
        case (single,):
            return _compile(single, arms)
        case tuple():
            return _seq(tuple([_compile(part, arms) for part in stmt]))
        case Action(name=name):
            return _ACTIONS[name]
        case If(cond=cond, body=body):
            then_arm, else_arm = _new_branch(arms, "then", "else")
            return _if_else(_compile_cond(cond), _compile(body, arms), _skip, then_arm, else_arm)
        case IfElse(cond=cond, then_body=then_body, else_body=else_body):
            then_arm, else_arm = _new_branch(arms, "then", "else")
            return _if_else(
                _compile_cond(cond),
                _compile(then_body, arms),
                _compile(else_body, arms),
                then_arm,
                else_arm,
            )
        case While(cond=cond, body=body):
            enter_arm, skip_arm = _new_branch(arms, "enter", "skip")
            return _while(_compile_cond(cond), _compile(body, arms), enter_arm, skip_arm)
        case Repeat(times=times, body=body):
            return _repeat(times, _compile(body, arms))
    raise TypeError(f"not a statement: {stmt!r}")


def _new_branch(arms: list[BranchArm], yes: str, no: str) -> tuple[BranchArm, BranchArm]:
    branch = len(arms) // 2
    pair = ((branch, yes), (branch, no))
    arms.extend(pair)
    return pair


def _seq(parts: tuple[Code, ...]) -> Code:
    def seq(run: ExecResult) -> None:
        for part in parts:
            part(run)

    return seq


def _skip(run: ExecResult) -> None:
    pass


def _if_else(
    cond: CondCode, then_body: Code, else_body: Code, then_arm: BranchArm, else_arm: BranchArm
) -> Code:
    def if_else(run: ExecResult) -> None:
        if cond(run):
            run.taken.add(then_arm)
            then_body(run)
        else:
            run.taken.add(else_arm)
            else_body(run)

    return if_else


def _while(cond: CondCode, body: Code, enter_arm: BranchArm, skip_arm: BranchArm) -> Code:
    def while_(run: ExecResult) -> None:
        taken = run.taken
        # Brent's cycle detection: ``seen`` is the state saved at
        # ``seen_steps``, replaced once ``lap`` iterations reach ``power``;
        # ``power`` is 0 once the loop has jumped.
        seen = None
        seen_steps = 0
        power = lap = 1
        while cond(run):
            taken.add(enter_arm)
            steps_before = run.steps
            body(run)
            steps = run.steps
            if steps == steps_before:
                # No action ran, so nothing observable changed and the
                # condition will stay true forever.
                raise _Crash(CrashReason.STEP_LIMIT)
            if power:
                state = (run.pos, run.direction, run.marks)
                if state == seen:
                    # The world is back where it was ``cycle`` steps ago.
                    cycle = steps - seen_steps
                    run.steps = steps + (run.step_limit - steps) // cycle * cycle
                    power = 0
                elif lap == power:
                    seen, seen_steps = state, steps
                    power *= 2
                    lap = 1
                else:
                    lap += 1
        taken.add(skip_arm)

    return while_


def _repeat(times: int, body: Code) -> Code:
    def repeat(run: ExecResult) -> None:
        for _ in range(times):
            body(run)

    return repeat


def _move(run: ExecResult) -> None:
    if run.steps >= run.step_limit:
        raise _Crash(CrashReason.STEP_LIMIT)
    di, dj = DIR_DELTA[run.direction]
    ahead = (run.pos[0] + di, run.pos[1] + dj)
    free = run.free
    if free is None:
        free = run.free = frozenset(run.grid.free)
    if ahead not in free:
        raise _Crash(CrashReason.MOVE_INTO_WALL)
    run.pos = ahead
    run.steps += 1


def _turn(table: dict[str, str]) -> Code:
    def turn(run: ExecResult) -> None:
        if run.steps >= run.step_limit:
            raise _Crash(CrashReason.STEP_LIMIT)
        run.direction = table[run.direction]
        run.steps += 1

    return turn


def _pick_marker(run: ExecResult) -> None:
    if run.steps >= run.step_limit:
        raise _Crash(CrashReason.STEP_LIMIT)
    markers, pos = run.markers, run.pos
    have = markers.get(pos, 0)
    if have == 0:
        raise _Crash(CrashReason.PICK_EMPTY)
    if have == 1:
        del markers[pos]
    else:
        markers[pos] = have - 1
    run.marks += 1
    run.steps += 1


def _put_marker(run: ExecResult) -> None:
    if run.steps >= run.step_limit:
        raise _Crash(CrashReason.STEP_LIMIT)
    markers, pos = run.markers, run.pos
    have = markers.get(pos, 0)
    if have >= MAX_MARKERS:
        raise _Crash(CrashReason.PUT_OVERFLOW)
    markers[pos] = have + 1
    run.marks += 1
    run.steps += 1


_ACTIONS: dict[str, Code] = {
    "move": _move,
    "turnLeft": _turn(LEFT_OF),
    "turnRight": _turn(RIGHT_OF),
    "pickMarker": _pick_marker,
    "putMarker": _put_marker,
}


def _clear_toward(run: ExecResult, direction: str) -> bool:
    di, dj = DIR_DELTA[direction]
    free = run.free
    if free is None:
        free = run.free = frozenset(run.grid.free)
    return (run.pos[0] + di, run.pos[1] + dj) in free


_PREDICATES: dict[str, CondCode] = {
    "markersPresent": lambda run: run.markers.get(run.pos, 0) > 0,
    "frontIsClear": lambda run: _clear_toward(run, run.direction),
    "leftIsClear": lambda run: _clear_toward(run, LEFT_OF[run.direction]),
    "rightIsClear": lambda run: _clear_toward(run, RIGHT_OF[run.direction]),
}


def _compile_cond(cond: Cond) -> CondCode:
    match cond:
        case Pred(name=name):
            return _PREDICATES[name]
        case Not(cond=inner):
            code = _compile_cond(inner)
            return lambda run: not code(run)
    raise TypeError(f"not a condition: {cond!r}")


def execute(
    program: KarelProgram | CompiledProgram,
    grid: GridDraw | KarelGrid,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecResult:
    """Run the program on the grid. Never raises for in-world failures.

    A caller running one program on many grids passes the
    :func:`compile_program` result to compile it only once.
    """
    if not (type(step_limit) is int and step_limit >= 0):
        raise ValueError("step_limit must be >= 0")
    code = _compiled(program).code
    run = ExecResult(grid, step_limit)
    try:
        code(run)
    except _Crash as crash:
        run.crash = crash.args[0]
    return run
