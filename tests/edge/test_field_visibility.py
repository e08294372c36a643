"""``FieldWorld.visible_people`` against a brute-force footprint scan.

The world answers people queries from a position snapshot that only
``advance`` and ``place_people`` invalidate. These properties interleave
moves, placements and queries and compare every answer with the scalar
scan over the live ``Person`` objects, walkers on the footprint edge
included.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import FieldWorld

SIDE_M = 20.0


def brute_force(world, center, width_m, depth_m):
    cx, cy = center
    return [p.person_id for p in world.people.values()
            if abs(p.position[0] - cx) <= width_m / 2 and
            abs(p.position[1] - cy) <= depth_m / 2]


class GridRng:
    """Stands in for the world's generator: every ``uniform`` draw comes
    from a fixed list of half-metre grid values, so walkers start on, and
    keep landing on, points that sit exactly on footprint edges."""

    def __init__(self, values):
        self._values = values
        self._next = 0

    def uniform(self, low, high):
        value = self._values[self._next % len(self._values)]
        self._next += 1
        return min(max(value, low), high)


half_metres = st.integers(0, int(2 * SIDE_M)).map(lambda k: k / 2)
operations = st.lists(st.one_of(
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 10.0])),
    st.tuples(st.just("place"), st.integers(0, 4)),
    st.tuples(st.just("query"), half_metres, half_metres,
              st.sampled_from([1.0, 2.0, 3.0, 6.5]),
              st.sampled_from([1.0, 2.0, 4.0, 8.75])),
), max_size=40)


class TestVisiblePeople:
    def test_empty_world_sees_nobody(self):
        world = FieldWorld(SIDE_M, SIDE_M, np.random.default_rng(0))
        world.place_items(5)
        assert world.visible_people((10.0, 10.0), SIDE_M, SIDE_M) == []
        world.advance(5.0)
        assert world.visible_people((10.0, 10.0), SIDE_M, SIDE_M) == []

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(grid=st.lists(half_metres, min_size=1, max_size=30),
           people=st.integers(0, 8), ops=operations)
    def test_grid_walkers_match_brute_force(self, grid, people, ops):
        world = FieldWorld(SIDE_M, SIDE_M, GridRng(grid))
        world.place_people(people, speed_mps=1.5)
        clock = 0.0
        for op in ops:
            if op[0] == "advance":
                clock += op[1]
                world.advance(clock)
            elif op[0] == "place":
                world.place_people(op[1], speed_mps=1.5)
            else:
                _, cx, cy, width, depth = op
                assert world.visible_people((cx, cy), width, depth) == \
                    brute_force(world, (cx, cy), width, depth)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), people=st.integers(1, 12),
           steps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8),
           width=st.floats(0.5, 8.0), depth=st.floats(0.5, 8.0))
    def test_footprint_edges_at_walker_positions(self, seed, people, steps,
                                                 width, depth):
        """Centres put a walker on the ±width/2 and ±depth/2 edges, to
        within the rounding of the centre itself."""
        world = FieldWorld(SIDE_M, SIDE_M, np.random.default_rng(seed))
        world.place_people(people)
        clock = 0.0
        for step in steps:
            clock += step
            world.advance(clock)
            for person in list(world.people.values()):
                x, y = person.position
                for center in ((x + width / 2, y), (x - width / 2, y),
                               (x, y + depth / 2), (x, y - depth / 2),
                               (x + width / 2, y - depth / 2)):
                    assert world.visible_people(center, width, depth) == \
                        brute_force(world, center, width, depth)

