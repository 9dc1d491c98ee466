"""Samplers and dataset assembly for the Karel domain.

Two grid distributions: a broad one covering every legal grid shape and a
narrow one concentrated on large grids with exact wall/marker cell counts.
Programs come from one fixed weighted grammar walk with a 60-token cap.
A :class:`SynthesisTask` bundles a program with input/output grid pairs plus
one held-out pair; task assembly resamples grids until every shown execution
succeeds and the shown runs jointly cover every conditional arm of the
program.

The grid samplers return unvalidated :class:`GridDraw` tuples that hold
the free-cell list each sampler collects, and task assembly runs programs
on them directly. Most draws are thrown away, so a draw's wall set and a
validated :class:`KarelGrid` are built only for the inputs and outputs of
the tasks :func:`make_task` returns.
"""

from __future__ import annotations

import enum
import functools
import random
import re
from collections import Counter
from collections.abc import Callable
from typing import Any

from .._frozen import Frozen
from ..homogenizer import BudgetExhaustedError, SalientSpec
from ..rng import randbelow
from .interp import (DEFAULT_STEP_LIMIT, CrashReason, ExecResult, branch_arms,
                     compile_program, execute)
from .lang import (
    ACTIONS,
    MAX_REPEAT,
    PREDICATES,
    Action,
    Body,
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
from .world import (
    DIRECTIONS,
    MAX_MARKERS,
    MAX_SIDE,
    MIN_SIDE,
    Cell,
    GridDraw,
    KarelGrid,
    grid_cells,
    grid_from_json,
    grid_to_json,
)

GridSampler = Callable[[random.Random], GridDraw]

#: Most shown input/output pairs a task holds.
MAX_PAIRS = 5


class MarkerCountDist(enum.Enum):
    """Pile-size distribution for cells that receive markers.

    GEOM counts fair-coin flips until the first head, clamped to at most 9;
    UNIFORM is uniform over 1..9; ANTIGEOM mirrors GEOM as 10 - k, clamped
    to at least 1, so big piles become the common case.
    """

    GEOM = "geom"
    UNIFORM = "uniform"
    ANTIGEOM = "antigeom"


def sample_marker_count(rng: random.Random, dist: MarkerCountDist) -> int:
    if dist is MarkerCountDist.UNIFORM:
        return rng.randint(1, 9)
    count = 1
    while rng.random() >= 0.5:
        count += 1
    if dist is MarkerCountDist.GEOM:
        return min(count, 9)
    return max(10 - count, 1)


def sample_uniform_grid(rng: random.Random) -> GridDraw:
    """Broad grid distribution, as an unvalidated draw.

    Draw order: width, height uniform over 2..16; marker and wall cell rates
    uniform over [0,1); per cell in row-major order a marker coin then a
    wall coin (a wall wins the collision) then, for marker cells, a pile
    size uniform over 1..9; finally the agent cell uniform over non-wall
    cells and a uniform facing. All-wall grids are redrawn from scratch.

    The draws consume the generator exactly as ``rng.randint`` and
    ``rng.randrange`` would, in the order above. The draw keeps the
    non-wall cells in row-major order as its ``free`` list.
    """
    coin = rng.random
    getrandbits = rng.getrandbits
    side_span = MAX_SIDE - MIN_SIDE + 1
    while True:
        width = MIN_SIDE + randbelow(getrandbits, side_span)
        height = MIN_SIDE + randbelow(getrandbits, side_span)
        marker_rate = coin()
        wall_rate = coin()
        free = []
        markers = {}
        for cell in grid_cells(width, height):
            if coin() < marker_rate:
                if coin() >= wall_rate:
                    free.append(cell)
                    # randint(1, 9): four bits per try, redrawn above 8.
                    pile = getrandbits(4)
                    while pile >= 9:
                        pile = getrandbits(4)
                    markers[cell] = pile + 1
            elif coin() >= wall_rate:
                free.append(cell)
        if not free:
            continue
        pos = free[randbelow(getrandbits, len(free))]
        direction = DIRECTIONS[randbelow(getrandbits, 4)]
        return GridDraw(width, height, free, markers, pos, direction)


class NarrowGridParams(Frozen):
    """Exact-count parameters for the narrow grid distribution."""

    __slots__ = ("r_wall", "r_marker", "marker_dist")

    def __init__(self, r_wall: float, r_marker: float,
                 marker_dist: MarkerCountDist = MarkerCountDist.GEOM) -> None:
        # A grid has at least 100 cells, so any r_wall below 1 leaves the
        # agent a free cell.
        if not (0.0 <= r_wall < 1.0 and 0.0 <= r_marker <= 1.0):
            raise ValueError("r_wall must be in [0, 1) and r_marker in [0, 1]")
        if r_wall + r_marker > 1.0:
            raise ValueError("r_wall + r_marker must not exceed 1")
        super().__init__(r_wall, r_marker, marker_dist)


#: The narrow-distribution parameter grid used for stress evaluation:
#: four (r_wall, r_marker) columns crossed with the three pile-size shapes.
NARROW_SWEEP_PARAMS = tuple(
    NarrowGridParams(r_wall=rw, r_marker=rm, marker_dist=dist)
    for (rw, rm) in ((0.05, 0.85), (0.25, 0.65), (0.65, 0.25), (0.85, 0.05))
    for dist in MarkerCountDist
)


def sample_narrow_grid(rng: random.Random, params: NarrowGridParams) -> GridDraw:
    """Narrow grid distribution, as an unvalidated draw.

    Draw order: width, height uniform over 10..16; exactly
    floor(cells * r_wall) wall cells sampled without replacement, then
    exactly floor(cells * r_marker) marker cells from the remainder, then a
    pile size per marker cell in sampled order, then the agent cell uniform
    over non-wall cells and a uniform facing. The draw keeps the non-wall
    cells in row-major order as its ``free`` list.
    """
    width = rng.randint(10, MAX_SIDE)
    height = rng.randint(10, MAX_SIDE)
    cells = grid_cells(width, height)
    n_walls = int(len(cells) * params.r_wall)
    n_markers = int(len(cells) * params.r_marker)
    wall_set = set(rng.sample(cells, n_walls))
    remaining = [c for c in cells if c not in wall_set]
    marker_cells = rng.sample(remaining, n_markers)
    markers = {cell: sample_marker_count(rng, params.marker_dist) for cell in marker_cells}
    pos = remaining[rng.randrange(len(remaining))]
    direction = DIRECTIONS[rng.randrange(4)]
    return GridDraw(width, height, remaining, markers, pos, direction)


# ---------------------------------------------------------------------------
# Program sampling.


# Statement weights of the grammar walk; repeat takes the remaining 0.04.
# A statement has 0.74 children on average, below 1, so the walk ends.
_ACTION_P = 0.55
_SEQ_P = 0.25
_IF_P = 0.06
_IF_ELSE_P = 0.04
_WHILE_P = 0.06
_NEGATE_P = 0.2  # chance a condition gets wrapped in not()
_TOKEN_CAP = 60

_MAX_PROGRAM_ATTEMPTS = 100
# Grid batches per program before make_task gives up on it; a stream then
# replaces a hard-to-exercise program instead of spending more on it.
_RETRY_LIMIT = 400


class _Oversize(Exception):
    pass


def sample_program(rng: random.Random) -> KarelProgram:
    """Draw a program from the grammar walk, redrawing any over 60 tokens.

    A statement is an action (probability 0.55), a seq of two statements
    (0.25), an if (0.06), an if-else (0.04), a while (0.06) or a repeat
    (0.04, count uniform over 0..19); a condition is a uniform predicate,
    negated with probability 0.2. About 5% of draws run over the cap. A seq
    joins the statement tuples of its halves, so every body is one flat
    tuple, as the parser builds it, and emitted programs parse back to
    equal ASTs.
    """
    while True:
        budget = [_TOKEN_CAP]  # loose node bound; exact token check below
        try:
            body = _sample_body(rng, budget)
        except _Oversize:
            continue
        program = KarelProgram(body)
        if len(emit_tokens(program)) <= _TOKEN_CAP:
            return program


def _sample_body(rng: random.Random, budget: list[int]) -> Body:
    budget[0] -= 1
    if budget[0] < 0:
        raise _Oversize
    roll = rng.random()
    edge = _ACTION_P
    if roll < edge:
        return (Action(ACTIONS[rng.randrange(len(ACTIONS))]),)
    edge += _SEQ_P
    if roll < edge:
        first = _sample_body(rng, budget)
        return first + _sample_body(rng, budget)
    edge += _IF_P
    if roll < edge:
        return (If(_sample_cond(rng), _sample_body(rng, budget)),)
    edge += _IF_ELSE_P
    if roll < edge:
        cond = _sample_cond(rng)
        then_body = _sample_body(rng, budget)
        else_body = _sample_body(rng, budget)
        return (IfElse(cond, then_body, else_body),)
    edge += _WHILE_P
    if roll < edge:
        return (While(_sample_cond(rng), _sample_body(rng, budget)),)
    return (Repeat(rng.randrange(MAX_REPEAT + 1), _sample_body(rng, budget)),)


def _sample_cond(rng: random.Random) -> Pred | Not:
    pred = Pred(PREDICATES[rng.randrange(len(PREDICATES))])
    if rng.random() < _NEGATE_P:
        return Not(pred)
    return pred


def satisfies_action_pruning(program: KarelProgram) -> bool:
    """Legacy curriculum filter: at least two actions, one of them a move."""
    tokens = emit_tokens(program)
    total = sum(tokens.count(name) for name in ACTIONS)
    return total >= 2 and tokens.count("move") >= 1


# ---------------------------------------------------------------------------
# Tasks.


class SynthesisTask(Frozen):
    """A program with shown input/output pairs and one held-out pair.

    Every shown and held-out input executes the program without crashing,
    and the shown runs together cover every conditional arm.
    """

    __slots__ = ("program", "pairs", "held_out")


class UncoverableProgramError(RuntimeError):
    """Grid resampling could not produce a valid task for the program."""

    def __init__(self, message: str, crash_counts: dict[str, int]):
        super().__init__(message)
        self.crash_counts = crash_counts

    def __reduce__(self) -> tuple[type, tuple[str, dict[str, int]]]:
        return type(self), (self.args[0], self.crash_counts)


def make_task(
    program: KarelProgram,
    grid_sampler: GridSampler,
    rng: random.Random,
    n_pairs: int = MAX_PAIRS,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> SynthesisTask:
    """Assemble a task by resampling grid batches until one validates.

    Each attempt draws ``n_pairs`` shown inputs plus one held-out input. A
    crash on any of them, or a conditional arm no shown run reaches, discards
    the whole batch. After ``_RETRY_LIMIT`` failed batches the program is
    reported uncoverable, with counts of what kept failing.

    Programs run on the sampler's draws as they are; only the returned
    task's ``n_pairs + 1`` inputs and their outputs are built, as validated
    ``KarelGrid`` objects. Only those inputs derive a wall set, once each,
    and each output shares its input's.
    """
    if not (type(n_pairs) is int and 1 <= n_pairs <= MAX_PAIRS):
        raise ValueError(f"n_pairs must be an int in 1..{MAX_PAIRS}")
    if not (type(step_limit) is int and step_limit >= 0):
        raise ValueError("step_limit must be >= 0")
    compiled = compile_program(program)
    required = branch_arms(compiled)
    crash_counts: Counter[CrashReason] = Counter()
    missing_counts: Counter[tuple[int, str]] = Counter()
    retry_limit = _RETRY_LIMIT
    for _ in range(retry_limit):
        # Sample and run one grid at a time; the whole batch is discarded on
        # the first crash, so later grids need not be drawn at all.
        runs = []
        for _k in range(n_pairs + 1):
            draw = grid_sampler(rng)
            result = execute(compiled, draw, step_limit)
            if result.crash is not None:
                crash_counts[result.crash] += 1
                break
            runs.append((draw, result))
        else:
            covered = set().union(*(result.taken for _, result in runs[:n_pairs]))
            if required <= covered:
                pairs = tuple(_kept_pair(draw, result) for draw, result in runs)
                return SynthesisTask(program=program, pairs=pairs[:n_pairs], held_out=pairs[-1])
            missing_counts.update(required - covered)
    crashes = {reason.value: count for reason, count in crash_counts.items()}
    raise UncoverableProgramError(
        f"no valid task in {retry_limit} grid batches "
        f"(crashes: {crashes}, uncovered arms: {dict(missing_counts)})",
        crashes,
    )


def _kept_pair(draw: GridDraw, result: ExecResult) -> tuple[KarelGrid, KarelGrid]:
    """A kept run's input and output grid, sharing the one wall set the
    draw derives."""
    grid = KarelGrid(draw.width, draw.height, draw.walls, draw.markers,
                     draw.karel_pos, draw.karel_dir)
    return grid, KarelGrid(grid.width, grid.height, grid.walls, result.markers,
                           result.pos, result.direction)


# ---------------------------------------------------------------------------
# Task-level salient features and JSON.


def _ratio_decile(ratio: float) -> int:
    # Floor into ten bins with a nudge so exact boundary fractions such as
    # 3/10 do not fall a bin short through float rounding.
    return min(int(ratio * 10.0 + 1e-12), 9)


# Salient variable name -> domain; each is a contiguous run of ints.
_SALIENT_DOMAINS = {
    "number_of_grids": tuple(range(1, MAX_PAIRS + 1)),
    "size": tuple(range(8, 161)),
    "control_flow_count": tuple(range(0, 13)),
    "nesting_depth": tuple(range(0, 9)),
    "marker_ratio_decile": tuple(range(10)),
    "wall_ratio_decile": tuple(range(10)),
}


def task_salients(task: SynthesisTask) -> dict[str, int]:
    """Every salient variable of the task, clamped into its domain, in one pass.

    The marker and wall ratios (a grid's marker or wall cells over all its
    cells) average over the shown inputs only, then fall into deciles 0..9.
    """
    program = program_salients(task.program)
    shown = [grid for grid, _ in task.pairs]
    n = len(shown)
    values = {
        "number_of_grids": n,
        "size": program["size"],
        "control_flow_count": program["control_flow_count"],
        "nesting_depth": program["nesting_depth"],
        "marker_ratio_decile": _ratio_decile(
            sum(len(g.markers) / (g.width * g.height) for g in shown) / n
        ),
        "wall_ratio_decile": _ratio_decile(
            sum(len(g.walls) / (g.width * g.height) for g in shown) / n
        ),
    }
    return {
        name: min(max(values[name], domain[0]), domain[-1])
        for name, domain in _SALIENT_DOMAINS.items()
    }


def salient_specs() -> dict[str, SalientSpec]:
    """Named salient variables over synthesis tasks."""
    return {
        name: SalientSpec(name, domain, lambda task, name=name: task_salients(task)[name])
        for name, domain in _SALIENT_DOMAINS.items()
    }


def task_to_json(task: SynthesisTask) -> dict[str, Any]:
    """The task as a JSON-ready dict: the program's tokens, then each pair's
    input and output grid as :func:`grid_to_json` writes them.

    The CLI writes records through :func:`task_line`, which formats this
    object's text directly; this dict is the reference it is tested against.
    """
    return {
        "program": emit_tokens(task.program),
        "pairs": [
            {"in": grid_to_json(inp), "out": grid_to_json(out)} for inp, out in task.pairs
        ],
        "held_out": {
            "in": grid_to_json(task.held_out[0]),
            "out": grid_to_json(task.held_out[1]),
        },
    }


# Each cell's JSON text "[i,j]", and the "[i,j," that opens a marker pile on
# it, which the pile's "n]" closes.
_CELL_TEXT = {(i, j): f"[{i},{j}]" for i in range(MAX_SIDE) for j in range(MAX_SIDE)}
_PILE_OPEN = {cell: text[:-1] + "," for cell, text in _CELL_TEXT.items()}
_PILE_CLOSE = tuple(f"{n}]" for n in range(MAX_MARKERS + 1))
_GRID_TEXT = '{"w":%d,"h":%d,"walls":[%s],"markers":[%s],"karel":{"pos":%s,"dir":"%s"}}'


def task_line(task: SynthesisTask) -> str:
    """The task's JSON Lines record, as the CLI writes it.

    For every task that :func:`make_task` builds, this is
    ``_json_line(task_to_json(task))`` (``homogen.cli``) byte for byte, but
    formatted directly rather than built as nested lists and then encoded:
    each cell's text comes from a table of the 256 cells of the largest
    grid, built once at import; each marker pile joins its cell's opening
    text to its count's closing text, one pile at a time, rather than
    through a table of every cell and count, which every start-up, ``stats``
    included, would build; and a pair's
    sorted wall text is built once, for its input, and reused by the output
    when the two share one wall set (``out.walls is inp.walls``), as every
    pair of ``make_task`` and ``task_from_line`` does.
    Program tokens need no JSON escape. :func:`task_from_line` reads this
    text back, and only this text.

    :func:`task_to_json`, :func:`grid_to_json` and ``_json_line`` stay: the
    tests compare this function against them, the benchmark's tracer
    (``bench/layers.py``) patches them, and ``karel-run`` prints its output
    grid through them, so a wall read as ``[1.0, 1]`` is printed as read.
    Here such an int-equal cell (the hole in ``KarelGrid`` validation, see
    ``homogen.karel.world``) is written as the int cell it equals.
    """
    return '{"program":["%s"],"pairs":[%s],"held_out":%s}\n' % (
        '","'.join(emit_tokens(task.program)),
        ",".join(map(_pair_text, task.pairs)),
        _pair_text(task.held_out),
    )


def _pair_text(pair: tuple[KarelGrid, KarelGrid]) -> str:
    inp, out = pair
    walls = _walls_text(inp.walls)
    out_walls = walls if out.walls is inp.walls else _walls_text(out.walls)
    return f'{{"in":{_grid_text(inp, walls)},"out":{_grid_text(out, out_walls)}}}'


def _walls_text(walls: frozenset[Cell]) -> str:
    return ",".join(map(_CELL_TEXT.__getitem__, sorted(walls)))


def _grid_text(grid: KarelGrid, walls: str) -> str:
    markers = grid.markers
    piles = ",".join([_PILE_OPEN[cell] + _PILE_CLOSE[markers[cell]] for cell in sorted(markers)])
    return _GRID_TEXT % (grid.width, grid.height, walls, piles,
                         _CELL_TEXT[grid.karel_pos], grid.karel_dir)


def _pair_from_json(obj: dict[str, Any]) -> tuple[KarelGrid, KarelGrid]:
    return grid_from_json(obj["in"]), grid_from_json(obj["out"])


def task_from_json(obj: dict[str, Any]) -> SynthesisTask:
    """The :class:`SynthesisTask` that a :func:`task_to_json` object describes.

    Every grid, held-out pair included, is read on its own by
    :func:`grid_from_json` and validated in full. Any malformed part raises
    ``ValueError``, which names the first missing key or the rule broken;
    the program is read first, then the pairs in order, each input before
    its output.
    """
    try:
        program = parse_program(obj["program"])
        pairs = tuple(map(_pair_from_json, obj["pairs"]))
        held = _pair_from_json(obj["held_out"])
    except KeyError as exc:
        raise ValueError(f"malformed task object: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed task object: {exc}") from None
    if not 1 <= len(pairs) <= MAX_PAIRS:
        raise ValueError(
            f"malformed task object: {len(pairs)} shown pairs, not 1..{MAX_PAIRS}")
    return SynthesisTask(program=program, pairs=pairs, held_out=held)


@functools.cache
def _line_reader() -> tuple[Any, ...]:
    """The patterns and tables of :func:`task_from_line`, built on its first
    call, so that a command that reads no Karel record pays nothing for them.

    The tables map the text of a side, of a cell ``i,j`` (the shared tuple
    :func:`grid_cells` gives it) and of a pile ``i,j,n`` (its cell and
    count) to its value.
    """
    token = r'"[^"\\\x00-\x1f]*"'
    grid = (r'\{"w":([0-9]+),"h":([0-9]+),"walls":\[([0-9,\[\]]*)\],'
            r'"markers":\[([0-9,\[\]]*)\],"karel":\{"pos":\[([0-9]+,[0-9]+)\],"dir":"([NESW])"\}\}')
    pair = r'\{"in":%s,"out":%s\}' % (grid, grid)
    cells = grid_cells(MAX_SIDE, MAX_SIDE)
    return (
        re.compile(r'\{"program":\[(%s(?:,%s)*)\],"pairs":\[' % (token, token)),
        re.compile(pair + r'(?:,|\],"held_out":)'),
        re.compile(pair + r'\}\n?'),
        {str(side): side for side in range(MIN_SIDE, MAX_SIDE + 1)},
        {"%d,%d" % cell: cell for cell in cells},
        {"%d,%d,%d" % (*cell, n): (cell, n) for cell in cells for n in range(1, MAX_MARKERS + 1)},
    )


def task_from_line(line: str) -> SynthesisTask | None:
    """The task of a record in the exact text :func:`task_line` writes, or
    ``None`` for any other line: the inverse of :func:`task_line`, read
    without building the record's JSON lists and dicts.

    A line is read only when its keys come in ``task_line``'s order with no
    whitespace, its sides are plain decimals, each cell ``[i,j]`` and pile
    ``[i,j,n]`` is one of the texts of a 16 x 16 grid with ``n`` in 1..9,
    each ``dir`` is ``N``, ``E``, ``S`` or ``W``, its program tokens hold no
    backslash, quote or control character, and it ends in at most one
    ``\\n``. Such a line means the same to ``json.loads``, and the task is
    then equal to :func:`task_from_json` of it, held to the same rules:
    every grid is built by the validating ``KarelGrid`` constructor, a cell
    listed twice in ``walls`` or ``markers`` is refused, and there are 1..5
    shown pairs. An output whose ``w``, ``h`` and wall text equal its
    input's shares the input's wall set. An output whose pile text equals
    its input's is built on the input's parsed piles, which its
    ``KarelGrid`` copies and validates in full against the output's own
    shape, as it does any other piles. A line outside that form, or one
    that breaks a rule, gives ``None``, so that ``task_from_json`` reads it
    and names what is wrong.
    """
    head, shown, held_out, sides, cells, piles = _line_reader()
    found = head.match(line)
    if found is None:
        return None
    try:
        program = parse_program(found[1][1:-1].split('","'))
        pairs = []
        end = found.end()
        while len(pairs) < MAX_PAIRS:
            found = shown.match(line, end)
            if found is None:
                return None
            pairs.append(_text_pair(found, sides, cells, piles))
            end = found.end()
            if line[end - 1] != ",":
                found = held_out.fullmatch(line, end)
                if found is None:
                    return None
                return SynthesisTask(program=program, pairs=tuple(pairs),
                                     held_out=_text_pair(found, sides, cells, piles))
    except (KeyError, ValueError, RecursionError):
        pass
    return None


def _text_pair(found: Any, sides: dict[str, int], cells: dict[str, Cell],
               piles: dict[str, tuple[Cell, int]]) -> tuple[KarelGrid, KarelGrid]:
    """The input and output grids of a pair's 12 captured fields.

    The output is read against its input: when its ``w``, ``h`` and wall
    text equal the input's, it is built on the input's wall set, and when
    its pile text equals the input's, on the input's parsed piles. Either
    way ``KarelGrid`` validates the output in full against its own shape,
    and copies the piles.
    """
    (width, height, wall_text, pile_text, pos, facing,
     out_width, out_height, out_wall_text, out_pile_text, out_pos, out_facing) = found.groups()
    walls = _text_items(wall_text, cells, frozenset)
    markers = _text_items(pile_text, piles, dict)
    inp = KarelGrid(sides[width], sides[height], walls, markers, cells[pos], facing)
    if out_wall_text != wall_text or out_width != width or out_height != height:
        walls = _text_items(out_wall_text, cells, frozenset)
    if out_pile_text != pile_text:
        markers = _text_items(out_pile_text, piles, dict)
    return inp, KarelGrid(sides[out_width], sides[out_height], walls, markers,
                          cells[out_pos], out_facing)


def _text_items(text: str, table: dict[str, Any], kind: Callable[..., Any]) -> Any:
    """``kind`` (``frozenset`` or ``dict``) of the table's values for the
    items of a list's text ``[a],[b],...``; ``KeyError`` when an item is not
    a key, ``ValueError`` when one is listed twice."""
    if not text:
        return kind()
    if text[0] != "[" or text[-1] != "]":
        raise KeyError(text)
    items = text[1:-1].split("],[")
    built = kind(map(table.__getitem__, items))
    if len(built) != len(items):
        raise ValueError("a cell is listed twice")
    return built


# ---------------------------------------------------------------------------
# Task streams for generation and homogenization.


def task_source(
    grid_sampler: GridSampler,
    n_pairs: int | str = MAX_PAIRS,
    step_limit: int = DEFAULT_STEP_LIMIT,
    classic_prune: bool = False,
) -> Callable[[random.Random], SynthesisTask]:
    """A task-per-call sampler suitable for generation and homogenization.

    Each call samples a program (redrawing any that fails
    :func:`satisfies_action_pruning` when ``classic_prune`` is set), picks
    the pair count (uniform over 1..MAX_PAIRS when ``n_pairs`` is the
    string ``"uniform"``), and assembles a task with ``_RETRY_LIMIT`` grid
    batches; programs that turn out uncoverable are dropped and redrawn.
    After ``_MAX_PROGRAM_ATTEMPTS`` consecutive failures the stream raises
    :class:`BudgetExhaustedError` instead of spinning, with how many of those
    programs the filter rejected and the crash reasons summed over the
    uncoverable ones.
    """
    if n_pairs != "uniform" and not (type(n_pairs) is int and 1 <= n_pairs <= MAX_PAIRS):
        raise ValueError(f"n_pairs must be an int in 1..{MAX_PAIRS} or the string 'uniform'")
    if not (type(step_limit) is int and step_limit >= 0):
        raise ValueError("step_limit must be >= 0")

    def draw(rng: random.Random) -> SynthesisTask:
        filtered = 0
        crash_counts: Counter[str] = Counter()
        for _ in range(_MAX_PROGRAM_ATTEMPTS):
            program = sample_program(rng)
            if classic_prune and not satisfies_action_pruning(program):
                filtered += 1
                continue
            pairs = rng.randint(1, MAX_PAIRS) if n_pairs == "uniform" else n_pairs
            try:
                return make_task(program, grid_sampler, rng, n_pairs=pairs,
                                 step_limit=step_limit)
            except UncoverableProgramError as exc:
                crash_counts.update(exc.crash_counts)
        raise BudgetExhaustedError(
            f"{_MAX_PROGRAM_ATTEMPTS} consecutive programs failed task assembly "
            f"({filtered} rejected by the program filter; crashes of the rest: "
            f"{dict(crash_counts)}); "
            "the grid distribution likely cannot exercise the sampled programs"
        )

    return draw
