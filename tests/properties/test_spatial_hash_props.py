"""Property-based tests: the legalizer's array-backed cell grid.

The grid is a *superset screen*: for any query point and per-axis
radius, every tracked instance whose centre lies within that radius on
both axes must be returned (extras sharing the covered cells are fine —
callers re-check exact distances).  These properties pin that contract,
and the add/remove/move bookkeeping, against a brute-force oracle over
random operation sequences.  The grid's bounds cover only part of the
coordinate range, so the properties also hold for points that clamp to
the border cells; small capacities force slot-depth growth.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.legalizer import _CellGrid

CELL = 0.35
#: Grid bounds: coordinates beyond them clamp to the border cells.
LO, HI = (-5.0, -3.0), (4.0, 6.0)
COORD = st.floats(min_value=-20.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def op_sequences(draw):
    """Random add/remove/move sequences over a small index space."""
    capacity = draw(st.integers(min_value=1, max_value=12))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        idx = draw(st.integers(min_value=0, max_value=capacity - 1))
        kind = draw(st.sampled_from(("add", "remove", "move")))
        ops.append((kind, idx, draw(COORD), draw(COORD)))
    return capacity, ops


def _apply(capacity, ops):
    """Run the ops through the hash and a dict oracle in lockstep.

    ``add`` on an already-present index and ``remove`` on an absent one
    are normalised to the legalizer's actual usage (move / no-op).
    """
    hash_ = _CellGrid(CELL, capacity, LO, HI)
    oracle = {}
    for kind, idx, x, y in ops:
        if kind == "add":
            if idx in oracle:
                hash_.move(idx, x, y)
            else:
                hash_.add(idx, x, y)
            oracle[idx] = (x, y)
        elif kind == "remove":
            hash_.remove(idx)
            oracle.pop(idx, None)
        else:
            hash_.move(idx, x, y)
            oracle[idx] = (x, y)
    return hash_, oracle


class TestSupersetScreen:
    @given(op_sequences(), COORD, COORD,
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_near_array_superset(self, seq, qx, qy, radius):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        got = set(hash_.near_array(qx, qy, radius).tolist())
        for idx, (x, y) in oracle.items():
            if abs(x - qx) <= radius and abs(y - qy) <= radius:
                assert idx in got, (idx, (x, y), (qx, qy), radius)
        # Everything returned is actually tracked.
        assert got <= set(oracle)

    @given(op_sequences(),
           st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_near_many_superset(self, seq, points, radius):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        result = hash_.near_many(xs, ys, radius)
        got = set(result.tolist())
        for idx, (x, y) in oracle.items():
            if any(abs(x - qx) <= radius and abs(y - qy) <= radius
                   for qx, qy in points):
                assert idx in got, (idx, (x, y), radius)
        assert got <= set(oracle)
        # Each tracked instance occupies exactly one cell: no duplicates.
        assert len(got) == result.size

    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_membership_matches_oracle(self, seq):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        # A huge radius around the origin must return exactly the
        # tracked set (coords are bounded by the strategy).
        got = set(hash_.near_array(0.0, 0.0, 100.0).tolist())
        assert got == set(oracle)

    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_near_generator_matches_array(self, seq):
        """A one-point batched query equals the single-point query."""
        capacity, ops = seq
        hash_, _ = _apply(capacity, ops)
        assert set(hash_.near_many(np.array([1.0]), np.array([-1.0]),
                                   2.0).tolist()) == \
            set(hash_.near_array(1.0, -1.0, 2.0).tolist())

    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_remove_is_idempotent(self, seq):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        for idx in range(capacity):
            hash_.remove(idx)
            hash_.remove(idx)  # second remove must be a no-op
        assert hash_.near_array(0.0, 0.0, 100.0).size == 0
