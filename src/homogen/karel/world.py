"""Karel grid worlds: bounded rectangular grids holding walls, marker piles
and the agent's pose, plus JSON round-tripping.

Cells are (i, j) with i the column (0..width-1, growing east) and j the row
(0..height-1, growing south). Marker piles hold 1..9 markers; a cell never
holds both a wall and markers.

Every :class:`KarelGrid` is validated on construction, whoever builds it;
there is no trusted constructor. The grid samplers return an unvalidated
:class:`GridDraw` instead, because task assembly throws most draws away:
it runs programs on draws and builds a ``KarelGrid`` only for the inputs
and outputs of the tasks it keeps. A draw holds its free (non-wall) cells,
the list its sampler collects anyway, and derives its wall set only when
``walls`` is read, so a discarded draw never builds one. The interpreter
reads ``free`` from a draw and a grid alike. JSON input and user code
build ``KarelGrid`` directly.

A :class:`KarelGrid` checks each rule once, in this order, by a set
operation against its shape's cell set, and walks a container only when
its rule fails, to name the first cell that breaks it: (1) the sides are
ints in 2..16; (2) walls, markers and position that are not a frozenset, a
dict and a tuple are rebuilt as such, each cell a tuple of two exact ints;
(3) walls, then marker piles, lie in bounds; (4) each pile holds an int
count in 1..9; (5) no cell holds both a wall and markers; (6) the agent
stands in bounds and off the walls, facing N, E, S or W. The grid keeps
its own copy of the markers. A cell such as ``(1.0, 1)`` or ``(True, 1)``
equals an int cell and a set lookup cannot tell them apart, so it passes
when no container is rebuilt. Checking every coordinate's type would close
that hole, but it raised :func:`grid_from_json` from 17.5 to 26.2 us per
grid (CPython 3.11.7, 2-core VM, the 1,200 grids of a 100-task file), and
``stats`` validates 12 grids per five-pair Karel record, so the hole stays.

An output grid read from JSON with its pair's input holds the input's wall
cells whenever its ``w``, ``h`` and ``walls`` equal the input's, as the
outputs ``make_task`` builds do. That shows only through the hole above: an
output wall ``[0, true]`` equals an input wall ``[0, 1]``, so the output is
read with the int cell ``(0, 1)``, where a grid read alone keeps
``(0, True)``.
"""

from __future__ import annotations

import functools
from typing import Any, NamedTuple

from .._frozen import Frozen

MIN_SIDE = 2
MAX_SIDE = 16
MAX_MARKERS = 9

DIRECTIONS = ("N", "E", "S", "W")
DIR_DELTA = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}
LEFT_OF = {"N": "W", "W": "S", "S": "E", "E": "N"}
RIGHT_OF = {"N": "E", "E": "S", "S": "W", "W": "N"}

Cell = tuple[int, int]

_PILE_SIZES = frozenset(range(1, MAX_MARKERS + 1))
_INT_ONLY = frozenset({int})
_CELLS = tuple(tuple((i, j) for j in range(MAX_SIDE)) for i in range(MAX_SIDE))
_SHAPES = (MAX_SIDE - MIN_SIDE + 1) ** 2


@functools.lru_cache(maxsize=_SHAPES)
def grid_cells(width: int, height: int) -> tuple[Cell, ...]:
    """Every cell of a width x height grid in row-major order.

    Each cell is one tuple from ``_CELLS``, shared by every shape. That saves
    memory, not time: the cached tuples of all 225 shapes take about 0.16 MB
    where one tuple per cell per shape would take 1.18 MB (tracemalloc,
    CPython 3.11).
    """
    return tuple(_CELLS[i][j] for j in range(height) for i in range(width))


@functools.lru_cache(maxsize=_SHAPES)
def _cell_set(width: int, height: int) -> frozenset[Cell]:
    return frozenset(grid_cells(width, height))


class GridDraw(NamedTuple):
    """A sampled grid before validation.

    ``free`` lists the grid's non-wall cells; ``walls`` derives the wall set
    from it on each read. ``KarelGrid(draw.width, draw.height, draw.walls,
    draw.markers, draw.karel_pos, draw.karel_dir)`` validates a draw into a
    grid.
    """

    width: int
    height: int
    free: list[Cell]
    markers: dict[Cell, int]
    karel_pos: Cell
    karel_dir: str

    @property
    def walls(self) -> frozenset[Cell]:
        return _cell_set(self.width, self.height).difference(self.free)


_NO_MARKERS: dict[Cell, int] = {}  # never shared: ``__post_init__`` copies it


def _cell(cell: Any) -> Cell:
    """``cell`` as a tuple of two exact ints, or the error that names it."""
    i, j = cell
    if not (type(i) is type(j) is int):
        raise ValueError(f"cell {(i, j)} must have int coordinates")
    return i, j


def _rebuilt(walls: Any, markers: Any, pos: Any) -> tuple[Any, ...]:
    """Walls, markers and position rebuilt from any iterables through :func:`_cell`."""
    return (frozenset(map(_cell, walls)),
            {_cell(c): n for c, n in dict(markers).items()}, _cell(pos))


class KarelGrid(Frozen):
    __slots__ = ("width", "height", "walls", "markers", "karel_pos", "karel_dir")

    def __init__(self, width: int, height: int, walls: frozenset[Cell] = frozenset(),
                 markers: dict[Cell, int] = _NO_MARKERS, karel_pos: Cell = (0, 0),
                 karel_dir: str = "E") -> None:
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "markers", markers)
        object.__setattr__(self, "karel_pos", karel_pos)
        object.__setattr__(self, "karel_dir", karel_dir)
        self.__post_init__()  # a method of its own, so a profiler can time it alone

    def __post_init__(self) -> None:
        width, height = self.width, self.height
        if not (type(width) is type(height) is int
                and MIN_SIDE <= width <= MAX_SIDE and MIN_SIDE <= height <= MAX_SIDE):
            raise ValueError(f"grid sides must be ints in {MIN_SIDE}..{MAX_SIDE}")
        walls, markers, pos = self.walls, self.markers, self.karel_pos
        if type(walls) is frozenset and type(markers) is dict and type(pos) is tuple:
            markers = dict(markers)
        else:
            walls, markers, pos = _rebuilt(walls, markers, pos)
        cells = _cell_set(width, height)
        if not walls <= cells:
            for cell in map(_cell, walls):
                if cell not in cells:
                    raise ValueError(f"wall {cell} is out of bounds")
            # Every wall fits once rebuilt, so one was another iterable, such as
            # range(1, 3): rebuild all three, so that every cell's ints are checked.
            walls, markers, pos = _rebuilt(walls, markers, pos)
        if not markers.keys() <= cells:
            for cell in map(_cell, markers):
                if cell not in cells:
                    raise ValueError(f"markers at {cell} are out of bounds")
            walls, markers, pos = _rebuilt(walls, markers, pos)  # as for the walls
        counts = markers.values()  # types first: an int count is hashable
        if not (_INT_ONLY.issuperset(map(type, counts)) and _PILE_SIZES.issuperset(counts)):
            for cell, count in markers.items():
                if not (type(count) is int and 1 <= count <= MAX_MARKERS):
                    raise ValueError(f"marker count at {_cell(cell)} must be in 1..{MAX_MARKERS}")
        if not markers.keys().isdisjoint(walls):
            for cell in map(_cell, markers):
                if cell in walls:
                    raise ValueError(f"cell {cell} holds both a wall and markers")
        try:
            placed = pos in cells
        except TypeError:  # an unhashable position part
            placed = False
        if not placed:
            raise ValueError(f"agent position {_cell(pos)} is out of bounds")
        if pos in walls:
            raise ValueError(f"agent stands on a wall at {_cell(pos)}")
        if self.karel_dir not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.karel_dir!r}")
        object.__setattr__(self, "walls", walls)
        object.__setattr__(self, "markers", markers)
        object.__setattr__(self, "karel_pos", pos)

    @property
    def free(self) -> frozenset[Cell]:
        """The cells that hold no wall, built anew on each read."""
        return _cell_set(self.width, self.height).difference(self.walls)


def grid_to_json(grid: KarelGrid) -> dict[str, Any]:
    """JSON-ready dict with a fixed key order and sorted cell lists."""
    return {
        "w": grid.width,
        "h": grid.height,
        "walls": [list(c) for c in sorted(grid.walls)],
        "markers": [[i, j, n] for (i, j), n in sorted(grid.markers.items())],
        "karel": {"pos": list(grid.karel_pos), "dir": grid.karel_dir},
    }


def grid_from_json(obj: dict[str, Any],
                   pair_input: tuple[dict[str, Any], KarelGrid] | None = None) -> KarelGrid:
    """The :class:`KarelGrid` that a :func:`grid_to_json` object describes.

    The keys are read in the order ``w``, ``h``, ``walls``, ``markers`` and
    ``karel``, so a malformed object names its first missing key, and every
    grid is validated in full. ``pair_input`` is a pair's input, as its JSON
    object and as the grid already read from it: when ``obj`` lists the same
    ``w``, ``h`` and ``walls``, the grid is built on that input's validated
    wall set, as ``make_task`` builds a kept output, instead of a set of its
    own. A cell listed twice is refused either way.
    """
    try:
        width, height, wall_list = obj["w"], obj["h"], obj["walls"]
        if (pair_input is not None and width == pair_input[1].width
                and height == pair_input[1].height and wall_list == pair_input[0]["walls"]):
            walls = pair_input[1].walls
        else:
            walls = frozenset(map(tuple, wall_list))
        grid = KarelGrid(
            width=width,
            height=height,
            walls=walls,
            markers={(i, j): n for i, j, n in obj["markers"]},
            karel_pos=tuple(obj["karel"]["pos"]),
            karel_dir=obj["karel"]["dir"],
        )
        if len(grid.walls) != len(wall_list):
            raise ValueError("malformed grid object: a cell is listed twice in 'walls'")
        if len(grid.markers) != len(obj["markers"]):
            raise ValueError("malformed grid object: a cell is listed twice in 'markers'")
        return grid
    except KeyError as exc:
        raise ValueError(f"malformed grid object: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed grid object: {exc}") from None

