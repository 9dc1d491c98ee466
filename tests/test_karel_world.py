import json
import random
import re

import pytest

from homogen.karel import KarelGrid, grid_from_json, grid_salients, grid_to_json


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
        # A wall list takes the per-cell path; a frozenset holding (1.0, 1)
        # passes the set checks (the exception in the world module's docstring).
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


def test_grid_salients_empty_grid():
    s = grid_salients(KarelGrid(width=4, height=4))
    assert s["marker_ratio"] == 0.0
    assert s["wall_ratio"] == 0.0
    assert s["marker_count_histogram"] == {}


def test_grid_salients_worked_example():
    grid = KarelGrid(
        width=2, height=2, walls=frozenset({(0, 1)}), markers={(1, 0): 3}, karel_pos=(0, 0)
    )
    s = grid_salients(grid)
    assert s == {
        "width": 2,
        "height": 2,
        "marker_ratio": 0.25,
        "wall_ratio": 0.25,
        "marker_count_histogram": {3: 1},
    }


def test_grid_salients_are_axis_symmetric():
    # Transposing the grid swaps width/height and leaves ratios alone.
    grid = KarelGrid(
        width=6,
        height=3,
        walls=frozenset({(0, 0), (5, 2)}),
        markers={(3, 1): 4, (2, 2): 4, (1, 0): 7},
        karel_pos=(4, 1),
        karel_dir="E",
    )
    transposed = KarelGrid(
        width=3,
        height=6,
        walls=frozenset({(j, i) for i, j in grid.walls}),
        markers={(j, i): n for (i, j), n in grid.markers.items()},
        karel_pos=(grid.karel_pos[1], grid.karel_pos[0]),
        karel_dir="S",
    )
    a, b = grid_salients(grid), grid_salients(transposed)
    assert a["marker_ratio"] == b["marker_ratio"]
    assert a["wall_ratio"] == b["wall_ratio"]
    assert a["marker_count_histogram"] == b["marker_count_histogram"]
    assert (a["width"], a["height"]) == (b["height"], b["width"])


def test_set_checks_accept_only_what_the_cell_checks_accept():
    # Perturbed grid fields: whenever the set-based checks pass, the per-cell
    # checks must pass too and leave the same fields.
    from homogen.karel import sample_uniform_grid

    rng = random.Random(5)
    odd_counts = (-1, 0, 1, 9, 10, 1.0, True, 3)
    accepted = 0
    for _ in range(2000):
        base = sample_uniform_grid(rng)
        walls = set(base.walls)
        markers = dict(base.markers)
        pos = base.karel_pos
        for _ in range(rng.randrange(3)):
            i, j = rng.randrange(-1, 17), rng.randrange(-1, 17)
            match rng.randrange(4):
                case 0:
                    walls.add((i, j))
                case 1:
                    markers[(i, j)] = odd_counts[rng.randrange(len(odd_counts))]
                case 2:
                    pos = (i, j)
                case 3:
                    walls.discard(pos)
        fields = dict(
            width=base.width + rng.choice((0, 0, 0, 1, -1)),
            height=base.height,
            walls=frozenset(walls),
            markers=markers,
            karel_pos=pos,
            karel_dir=base.karel_dir,
        )
        fast = object.__new__(KarelGrid)
        slow = object.__new__(KarelGrid)
        for name, value in fields.items():
            object.__setattr__(fast, name, value)
            object.__setattr__(slow, name, value)
        if fast._passes_set_checks():
            accepted += 1
            slow._check_cell_by_cell()
            assert (slow.walls, slow.markers, slow.karel_pos) == (walls, markers, pos)
    assert 200 < accepted < 1900
