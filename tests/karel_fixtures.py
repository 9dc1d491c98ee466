"""Hand-simulated Karel fixtures shared by the interpreter, CLI and
acceptance tests. Expected outputs were worked out by hand, cell by cell,
before the interpreter existed."""

from homogen.karel.world import KarelGrid

# Walk east picking one marker per cell until an empty cell is reached.
COLLECTOR_TEXT = "def main(): while(markersPresent()): { pickMarker() ; move() }"

# Karel at (0,1) facing E; piles 1,1,2 along the row; wall far away.
# Hand simulation: pick@(0,1) move, pick@(1,1) move, pick@(2,1) (one of two
# markers) move, then (3,1) is empty so the loop exits. Six actions total.
COLLECTOR_GRID_A = KarelGrid(
    width=5,
    height=3,
    walls=frozenset({(4, 0)}),
    markers={(0, 1): 1, (1, 1): 1, (2, 1): 2},
    karel_pos=(0, 1),
    karel_dir="E",
)
COLLECTOR_A_EXPECTED = KarelGrid(
    width=5,
    height=3,
    walls=frozenset({(4, 0)}),
    markers={(2, 1): 1},
    karel_pos=(3, 1),
    karel_dir="E",
)
COLLECTOR_A_STEPS = 6

# Karel at (1,0) facing S on a pile of 2: one pick, one move, loop exits
# at the empty cell (1,1). Two actions total.
COLLECTOR_GRID_B = KarelGrid(
    width=4,
    height=4,
    markers={(1, 0): 2},
    karel_pos=(1, 0),
    karel_dir="S",
)
COLLECTOR_B_EXPECTED = KarelGrid(
    width=4,
    height=4,
    markers={(1, 0): 1},
    karel_pos=(1, 1),
    karel_dir="S",
)
COLLECTOR_B_STEPS = 2

# A single move straight into an adjacent wall.
CRASH_TEXT = "def main(): move()"
CRASH_GRID = KarelGrid(
    width=2,
    height=2,
    walls=frozenset({(1, 0)}),
    karel_pos=(0, 0),
    karel_dir="E",
)
