"""Unit + property tests for the 1D index maps and segment overlap."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.distributed import BlockCyclicMap1D, BlockMap1D, overlap_pairs
from repro.distributed.hermitian import global_indices


class TestBlockMap:
    def test_balanced_sizes(self):
        m = BlockMap1D(10, 3)
        assert [m.size(k) for k in range(3)] == [4, 3, 3]
        assert [m.offset(k) for k in range(3)] == [0, 4, 7]

    def test_ranges_cover(self):
        m = BlockMap1D(11, 4)
        covered = []
        for k in range(4):
            lo, hi = m.range_of(k)
            covered.extend(range(lo, hi))
        assert covered == list(range(11))

    def test_owner_of(self):
        m = BlockMap1D(10, 3)
        assert m.owner_of(0) == 0
        assert m.owner_of(4) == 1
        assert m.owner_of(9) == 2
        with pytest.raises(IndexError):
            m.owner_of(10)

    def test_single_segment(self):
        m = BlockMap1D(10, 3)
        segs = m.segments(1)
        assert len(segs) == 1
        assert (segs[0].global_start, segs[0].global_stop, segs[0].local_start) == (4, 7, 0)

    def test_empty_part(self):
        m = BlockMap1D(2, 4)
        assert m.segments(3) == []
        assert m.local_size(3) == 0

    def test_equality_hash(self):
        assert BlockMap1D(10, 2) == BlockMap1D(10, 2)
        assert BlockMap1D(10, 2) != BlockMap1D(10, 3)
        assert hash(BlockMap1D(10, 2)) == hash(BlockMap1D(10, 2))

    @given(N=st.integers(0, 200), parts=st.integers(1, 16))
    def test_partition_property(self, N, parts):
        m = BlockMap1D(N, parts)
        sizes = [m.size(k) for k in range(parts)]
        assert sum(sizes) == N
        assert max(sizes) - min(sizes) <= 1


class TestBlockCyclicMap:
    def test_round_robin_ownership(self):
        m = BlockCyclicMap1D(10, 2, nb=2)
        # blocks [0,1],[2,3],[4,5],[6,7],[8,9] -> owners 0,1,0,1,0
        assert m.owner_of(0) == 0
        assert m.owner_of(2) == 1
        assert m.owner_of(4) == 0
        assert m.owner_of(9) == 0

    def test_segments_local_order(self):
        m = BlockCyclicMap1D(10, 2, nb=2)
        segs = m.segments(0)
        assert [(s.global_start, s.global_stop, s.local_start) for s in segs] == [
            (0, 2, 0),
            (4, 6, 2),
            (8, 10, 4),
        ]

    def test_ragged_tail(self):
        m = BlockCyclicMap1D(7, 2, nb=3)
        # blocks: [0..3)->0, [3..6)->1, [6..7)->0
        assert m.local_size(0) == 4
        assert m.local_size(1) == 3

    @given(
        N=st.integers(0, 150),
        parts=st.integers(1, 5),
        nb=st.integers(1, 7),
    )
    def test_partition_property(self, N, parts, nb):
        m = BlockCyclicMap1D(N, parts, nb)
        assert sum(m.local_size(k) for k in range(parts)) == N
        if N:
            owners = [m.owner_of(g) for g in range(N)]
            assert all(0 <= o < parts for o in owners)

    @given(
        N=st.integers(1, 100),
        parts=st.integers(1, 5),
        nb=st.integers(1, 7),
    )
    def test_global_indices_consistent_with_owner(self, N, parts, nb):
        m = BlockCyclicMap1D(N, parts, nb)
        for k in range(parts):
            for g in global_indices(m, k):
                assert m.owner_of(int(g)) == k


class TestOverlapPairs:
    def test_square_block_maps_diagonal_only(self):
        rm = BlockMap1D(12, 3)
        cm = BlockMap1D(12, 3)
        for i in range(3):
            for j in range(3):
                pairs = overlap_pairs(rm, i, cm, j)
                assert bool(pairs) == (i == j)

    def test_one_memoised_table_per_map_pair(self):
        """Equal maps are one key: the HEMM, its charge classes and the
        redistributions all read the same immutable table."""
        from repro.distributed.block import overlap_table

        table = overlap_table(BlockMap1D(12, 3), BlockCyclicMap1D(12, 4, 2))
        assert table is overlap_table(BlockMap1D(12, 3),
                                      BlockCyclicMap1D(12, 4, 2))
        assert table is not overlap_table(BlockMap1D(12, 3),
                                          BlockCyclicMap1D(12, 4, 3))
        assert len(table) == 3 and all(len(row) == 4 for row in table)
        assert overlap_pairs(BlockMap1D(12, 3), 2,
                             BlockCyclicMap1D(12, 4, 2), 1) is table[2][1]
        assert isinstance(table[2][1], tuple)

    def test_mismatched_maps(self):
        rm = BlockMap1D(12, 3)  # rows: [0,4) [4,8) [8,12)
        cm = BlockMap1D(12, 4)  # cols: [0,3) [3,6) [6,9) [9,12)
        pairs = overlap_pairs(rm, 1, cm, 1)  # [4,8) & [3,6) -> [4,6)
        assert len(pairs) == 1
        rsl, csl = pairs[0]
        assert (rsl.start, rsl.stop) == (0, 2)
        assert (csl.start, csl.stop) == (1, 3)

    @given(
        N=st.integers(1, 60),
        p=st.integers(1, 4),
        q=st.integers(1, 4),
        nb=st.integers(1, 5),
    )
    def test_every_diagonal_index_covered_once(self, N, p, q, nb):
        """The gamma-shift correctness invariant: each global index is in
        exactly one (i, j) overlap across the whole grid."""
        rm = BlockMap1D(N, p)
        cm = BlockCyclicMap1D(N, q, nb)
        hits = np.zeros(N, dtype=int)
        for i in range(p):
            gi = global_indices(rm, i)
            for j in range(q):
                for rsl, csl in overlap_pairs(rm, i, cm, j):
                    assert rsl.stop - rsl.start == csl.stop - csl.start
                    hits[gi[rsl]] += 1
        np.testing.assert_array_equal(hits, 1)
