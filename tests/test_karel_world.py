import json
import random
import re

import pytest

from homogen.karel.gen import sample_uniform_grid
from homogen.karel.world import (
    _INT_ONLY,
    _PILE_SIZES,
    DIRECTIONS,
    MAX_MARKERS,
    MAX_SIDE,
    MIN_SIDE,
    KarelGrid,
    _cell_set,
    grid_from_json,
    grid_to_json,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        KarelGrid(width=1, height=4)
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=17)
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, walls=frozenset({(4, 0)}))
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, markers={(0, 0): 0})
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, markers={(0, 0): 10})
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, walls=frozenset({(1, 1)}), markers={(1, 1): 3})
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, walls=frozenset({(2, 2)}), karel_pos=(2, 2))
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, karel_pos=(4, 4))
    with pytest.raises(ValueError):
        KarelGrid(width=4, height=4, karel_dir="U")

    # Inputs a set-based check could wrongly accept keep the per-cell message.
    rejected = [
        (dict(walls=frozenset({(-1, 0)})), "wall (-1, 0) is out of bounds"),
        (dict(markers={(0, -1): 2}), "markers at (0, -1) are out of bounds"),
        (dict(karel_pos=(-1, 0)), "agent position (-1, 0) is out of bounds"),
        (dict(walls=frozenset({(1, 2, 3)})), "too many values to unpack (expected 2)"),
        (dict(markers={(1, 2, 3): 1}), "too many values to unpack (expected 2)"),
        (dict(karel_pos=(1, 2, 3)), "too many values to unpack (expected 2)"),
        (dict(markers={(0, 0): 1.0}), "marker count at (0, 0) must be in 1..9"),
        (dict(markers={(0, 0): 0}), "marker count at (0, 0) must be in 1..9"),
        (dict(markers={(0, 0): 10}), "marker count at (0, 0) must be in 1..9"),
        (dict(markers={(0, 0): [1]}), "marker count at (0, 0) must be in 1..9"),
        (dict(markers={(4, 0): 1}), "markers at (4, 0) are out of bounds"),
        (
            dict(walls=frozenset({(1, 1)}), markers={(1, 1): 3}),
            "cell (1, 1) holds both a wall and markers",
        ),
        # Sides, coordinates and pile sizes are exact ints.
        (dict(width=2.5), "grid sides must be ints in 2..16"),
        (dict(markers={(0, 0): True}), "marker count at (0, 0) must be in 1..9"),
        (dict(karel_pos=(0.0, 1.5)), "cell (0.0, 1.5) must have int coordinates"),
        # A wall list is rebuilt cell by cell; a frozenset holding (1.0, 1) is
        # not, and passes (the hole in the world module's docstring).
        (dict(walls=[(1.0, 1)]), "cell (1.0, 1) must have int coordinates"),
        (dict(markers={(1, 2.5): 1}), "cell (1, 2.5) must have int coordinates"),
    ]
    for fields, message in rejected:
        with pytest.raises(ValueError, match=re.escape(message)):
            KarelGrid(**(dict(width=4, height=4) | fields))
    for obj in (
        {"w": 2.5, "h": 4, "walls": [], "markers": [], "karel": {"pos": [0, 0], "dir": "E"}},
        {"w": 4, "h": 4, "walls": [], "markers": [[0, 0, True]],
         "karel": {"pos": [1, 1], "dir": "E"}},
        {"w": 4, "h": 4, "walls": [], "markers": [], "karel": {"pos": [0.0, 1.5], "dir": "E"}},
    ):
        with pytest.raises(ValueError):
            grid_from_json(obj)

    # List cells normalise to tuple cells.
    grid = KarelGrid(
        width=4, height=4, walls=[[1, 2]], markers=[((0, 1), 3)], karel_pos=[0, 0]
    )
    assert grid.walls == frozenset({(1, 2)})
    assert all(type(cell) is tuple for cell in grid.walls)
    assert grid.markers == {(0, 1): 3} and type(grid.markers) is dict
    assert grid.karel_pos == (0, 0) and type(grid.karel_pos) is tuple


def test_grid_json_round_trip():
    grid = KarelGrid(
        width=5,
        height=3,
        walls=frozenset({(4, 0), (2, 2)}),
        markers={(0, 1): 1, (2, 1): 9},
        karel_pos=(1, 1),
        karel_dir="N",
    )
    obj = grid_to_json(grid)
    assert list(obj) == ["w", "h", "walls", "markers", "karel"]
    assert obj["walls"] == [[2, 2], [4, 0]]
    assert obj["markers"] == [[0, 1, 1], [2, 1, 9]]
    assert grid_from_json(json.loads(json.dumps(obj))) == grid


def test_grid_json_rejects_malformed_objects():
    with pytest.raises(ValueError):
        grid_from_json({"w": 4, "h": 4})
    with pytest.raises(ValueError):
        grid_from_json({"w": 4, "h": 4, "walls": [], "markers": [], "karel": {"pos": [0, 0]}})


@pytest.mark.parametrize("key, cells", [
    ("walls", [[1, 1], [1, 1]]),
    ("markers", [[0, 0, 1], [0, 0, 7]]),
])
def test_grid_json_rejects_a_cell_listed_twice(key, cells):
    obj = {"w": 4, "h": 4, "walls": [], "markers": [], "karel": {"pos": [3, 3], "dir": "E"}}
    obj[key] = cells
    with pytest.raises(ValueError, match=f"a cell is listed twice in '{key}'"):
        grid_from_json(obj)


class _TwoPathGrid:
    """The grid validator before its rules were checked once each: set checks
    for the common case, else per-cell checks. Its three methods are kept
    verbatim as the reference that ``KarelGrid`` must agree with."""

    def __init__(self, width, height, walls, markers, karel_pos, karel_dir):
        self.width, self.height, self.walls = width, height, walls
        self.markers, self.karel_pos, self.karel_dir = markers, karel_pos, karel_dir
        self.__post_init__()

    def __post_init__(self) -> None:
        if self._passes_set_checks():
            object.__setattr__(self, "markers", dict(self.markers))
        else:
            self._check_cell_by_cell()

    def _passes_set_checks(self) -> bool:
        width, height = self.width, self.height
        walls, markers, pos = self.walls, self.markers, self.karel_pos
        if not (
            type(walls) is frozenset
            and type(markers) is dict
            and type(pos) is tuple
            and type(width) is int
            and type(height) is int
            and MIN_SIDE <= width <= MAX_SIDE
            and MIN_SIDE <= height <= MAX_SIDE
        ):
            return False
        cells = _cell_set(width, height)
        counts = markers.values()
        try:
            return (
                walls <= cells
                and markers.keys() <= cells
                and markers.keys().isdisjoint(walls)
                and _PILE_SIZES.issuperset(counts)
                and _INT_ONLY.issuperset(map(type, counts))
                and pos in cells
                and pos not in walls
                and self.karel_dir in DIRECTIONS
            )
        except TypeError:  # an unhashable count or position part
            return False

    def _check_cell_by_cell(self) -> None:
        object.__setattr__(self, "walls", frozenset(tuple(c) for c in self.walls))
        object.__setattr__(
            self, "markers", {tuple(c): n for c, n in dict(self.markers).items()}
        )
        object.__setattr__(self, "karel_pos", tuple(self.karel_pos))
        width, height = self.width, self.height
        if not (type(width) is type(height) is int
                and MIN_SIDE <= width <= MAX_SIDE and MIN_SIDE <= height <= MAX_SIDE):
            raise ValueError(f"grid sides must be ints in {MIN_SIDE}..{MAX_SIDE}")
        for i, j in (*self.walls, *self.markers, self.karel_pos):
            if not (type(i) is type(j) is int):
                raise ValueError(f"cell {(i, j)} must have int coordinates")
        cells = _cell_set(width, height)
        for cell in self.walls:
            if cell not in cells:
                raise ValueError(f"wall {cell} is out of bounds")
        for cell, count in self.markers.items():
            if cell not in cells:
                raise ValueError(f"markers at {cell} are out of bounds")
            if not (type(count) is int and 1 <= count <= MAX_MARKERS):
                raise ValueError(f"marker count at {cell} must be in 1..{MAX_MARKERS}")
            if cell in self.walls:
                raise ValueError(f"cell {cell} holds both a wall and markers")
        if self.karel_pos not in cells:
            raise ValueError(f"agent position {self.karel_pos} is out of bounds")
        if self.karel_pos in self.walls:
            raise ValueError(f"agent stands on a wall at {self.karel_pos}")
        if self.karel_dir not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.karel_dir!r}")


def _odd(cell, rng):
    """``cell`` as a 3-tuple or with a float or bool coordinate; all but the
    ``+ 0.5`` form still equal ``cell``."""
    i, j = cell[:2]
    equal = (i, bool(j)) if j in (0, 1) else (i, float(j))
    return rng.choice(((float(i), j), equal, (i + 0.5, j), (i, j, 0)))


def _perturbed_fields(rng, perturbations):
    """A sampled grid's fields after ``perturbations`` random edits, and
    whether its sides are still the drawn ones."""
    base = sample_uniform_grid(rng)
    walls, markers, pos = set(base.walls), dict(base.markers), base.karel_pos
    odd_counts = (-1, 0, 1, 9, 10, 1.0, True, 3, [1])
    as_lists = False
    for _ in range(perturbations):
        i, j = rng.randrange(-1, 17), rng.randrange(-1, 17)
        match rng.randrange(8):
            case 0:
                walls.add((i, j))
            case 1:
                markers[(i, j)] = odd_counts[rng.randrange(len(odd_counts))]
            case 2:
                pos = (i, j)
            case 3:
                walls.discard(pos)
            case 4 if walls:
                wall = rng.choice(sorted(walls, key=repr))
                walls.discard(wall)
                walls.add(_odd(wall, rng))
            case 5 if markers:
                cell = rng.choice(sorted(markers, key=repr))
                markers[_odd(cell, rng)] = markers.pop(cell)
            case 6:
                pos = _odd(pos, rng)
            case 7:
                as_lists = True
    dw = rng.choice((0, 0, 0, 1, -1))
    fields = dict(width=base.width + dw, height=base.height, walls=frozenset(walls),
                  markers=markers, karel_pos=pos, karel_dir=base.karel_dir)
    if as_lists:
        fields |= dict(walls=[list(c) for c in walls], markers=list(markers.items()),
                       karel_pos=list(pos))
    return fields, dw == 0


def _built(cls, fields):
    try:
        return cls(**fields)
    except (ValueError, TypeError) as exc:
        return exc


def _oracle_cases():
    """(fields, whether one edit breaks one rule) for the oracle test."""
    rng = random.Random(5)
    for _ in range(2000):
        perturbations = rng.randrange(3)
        fields, sides_kept = _perturbed_fields(rng, perturbations)
        yield fields, perturbations == 1 and sides_kept
    # Cells that are other iterables of two ints, which the reference's
    # per-cell checks turned into tuples.
    empty = dict(width=4, height=4, walls=frozenset(), markers={}, karel_pos=(0, 0),
                 karel_dir="E")
    for fields in (
        dict(walls=frozenset({range(1, 3)})),
        dict(markers={range(1, 3): 2}),
        dict(walls=frozenset({range(1, 3)}), karel_pos=(1.0, 0)),
        dict(walls=frozenset({(1.0, 0)}), markers={range(1, 3): 2}),
    ):
        yield empty | fields, True


def test_one_validation_path_agrees_with_the_two_path_reference():
    # Perturbed grid fields, also in lists and with odd cells: KarelGrid
    # accepts exactly what the reference accepts and keeps the same fields,
    # and where one edit breaks a rule it raises the reference's error.
    accepted = compared = 0
    for fields, one_fault in _oracle_cases():
        want, got = _built(_TwoPathGrid, fields), _built(KarelGrid, fields)
        assert isinstance(got, KarelGrid) == isinstance(want, _TwoPathGrid), (fields, want)
        if isinstance(got, KarelGrid):
            accepted += 1
            assert [repr(getattr(got, name)) for name in ("walls", "markers", "karel_pos")] \
                == [repr(getattr(want, name)) for name in ("walls", "markers", "karel_pos")]
            assert all(type(c) is tuple for c in (*got.walls, *got.markers, got.karel_pos))
            assert type(got.markers) is dict and got.markers is not fields["markers"]
        elif one_fault:
            compared += 1
            assert (type(got), str(got)) == (type(want), str(want)), fields
    assert 200 < accepted < 1900 and compared > 100, (accepted, compared)


@pytest.mark.parametrize("fields, message", [
    # The reference checked every cell's coordinates first, then each
    # marker's bounds, count and overlap in turn; KarelGrid goes rule by rule.
    (dict(walls=frozenset({(9, 9)}), karel_pos=(0.5, 0)), "wall (9, 9) is out of bounds"),
    (dict(markers={(0, 0): 0, (9, 9): 1}), "markers at (9, 9) are out of bounds"),
])
def test_grid_with_several_faults_names_the_first_rule_broken(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KarelGrid(width=4, height=4, **fields)


@pytest.mark.parametrize("markers", [{(0, 1): 3}, [[(0, 1), 3]]], ids=["dict", "pairs"])
def test_grid_never_shares_the_callers_markers(markers):
    grid = KarelGrid(width=4, height=4, markers=markers)
    if type(markers) is dict:
        markers[(0, 1)] = 9
        markers[(2, 2)] = 5
    else:
        markers[0][1] = 9
        markers.append([(2, 2), 5])
    assert grid.markers == {(0, 1): 3}
