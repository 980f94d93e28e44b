"""Unit + property tests for the 1D block maps and their overlap table."""

import numpy as np
from hypothesis import given, strategies as st

from repro.distributed import BlockMap1D
from repro.distributed.block import overlap_table
from repro.distributed.hermitian import global_indices


class TestBlockMap:
    def test_balanced_sizes(self):
        m = BlockMap1D(10, 3)
        assert [m.local_size(k) for k in range(3)] == [4, 3, 3]
        assert [m.range_of(k)[0] for k in range(3)] == [0, 4, 7]

    def test_ranges_cover(self):
        m = BlockMap1D(11, 4)
        covered = []
        for k in range(4):
            lo, hi = m.range_of(k)
            covered.extend(range(lo, hi))
        assert covered == list(range(11))

    def test_empty_part(self):
        m = BlockMap1D(2, 4)
        assert m.range_of(3) == (2, 2)
        assert m.local_size(3) == 0
        assert global_indices(m, 3).size == 0

    def test_equality_hash(self):
        assert BlockMap1D(10, 2) == BlockMap1D(10, 2)
        assert BlockMap1D(10, 2) != BlockMap1D(10, 3)
        assert hash(BlockMap1D(10, 2)) == hash(BlockMap1D(10, 2))

    @given(N=st.integers(0, 200), parts=st.integers(1, 16))
    def test_partition_property(self, N, parts):
        m = BlockMap1D(N, parts)
        sizes = [m.local_size(k) for k in range(parts)]
        assert sum(sizes) == N
        assert max(sizes) - min(sizes) <= 1

    @given(N=st.integers(0, 200), parts=st.integers(1, 16))
    def test_global_indices_are_the_range(self, N, parts):
        """Each part's local indices are one run of consecutive global
        indices, and consecutive parts abut."""
        m = BlockMap1D(N, parts)
        stop = 0
        for k in range(parts):
            lo, hi = m.range_of(k)
            assert lo == stop and hi - lo == m.local_size(k)
            np.testing.assert_array_equal(global_indices(m, k),
                                          np.arange(lo, hi))
            stop = hi
        assert stop == N


class TestOverlapPairs:
    def test_square_block_maps_diagonal_only(self):
        table = overlap_table(BlockMap1D(12, 3), BlockMap1D(12, 3))
        for i in range(3):
            for j in range(3):
                assert bool(table[i][j]) == (i == j)

    def test_one_memoised_table_per_map_pair(self):
        """Equal maps are one key: the HEMM, its charge classes and the
        redistributions all read the same immutable table."""
        table = overlap_table(BlockMap1D(12, 3), BlockMap1D(12, 4))
        assert table is overlap_table(BlockMap1D(12, 3), BlockMap1D(12, 4))
        assert table is not overlap_table(BlockMap1D(12, 3),
                                          BlockMap1D(12, 3))
        assert len(table) == 3 and all(len(row) == 4 for row in table)
        assert isinstance(table[2][1], tuple)

    def test_mismatched_maps(self):
        rm = BlockMap1D(12, 3)  # rows: [0,4) [4,8) [8,12)
        cm = BlockMap1D(12, 4)  # cols: [0,3) [3,6) [6,9) [9,12)
        pairs = overlap_table(rm, cm)[1][1]  # [4,8) & [3,6) -> [4,6)
        assert len(pairs) == 1
        rsl, csl = pairs[0]
        assert (rsl.start, rsl.stop) == (0, 2)
        assert (csl.start, csl.stop) == (1, 3)

    @given(
        N=st.integers(0, 60),
        p=st.integers(1, 5),
        q=st.integers(1, 5),
    )
    def test_table_is_the_range_intersection(self, N, p, q):
        """An entry is empty exactly when the two ranges are disjoint,
        and otherwise selects their intersection from both parts."""
        rm, cm = BlockMap1D(N, p), BlockMap1D(N, q)
        table = overlap_table(rm, cm)
        for i in range(p):
            gi = set(global_indices(rm, i).tolist())
            for j in range(q):
                common = sorted(gi & set(global_indices(cm, j).tolist()))
                if not common:
                    assert table[i][j] == ()
                    continue
                ((rsl, csl),) = table[i][j]
                assert global_indices(rm, i)[rsl].tolist() == common
                assert global_indices(cm, j)[csl].tolist() == common

    @given(
        N=st.integers(1, 60),
        p=st.integers(1, 4),
        q=st.integers(1, 4),
    )
    def test_every_diagonal_index_covered_once(self, N, p, q):
        """The gamma-shift correctness invariant: each global index is in
        exactly one (i, j) overlap across the whole grid."""
        rm = BlockMap1D(N, p)
        cm = BlockMap1D(N, q)
        table = overlap_table(rm, cm)
        hits = np.zeros(N, dtype=int)
        for i in range(p):
            gi = global_indices(rm, i)
            for j in range(q):
                gj = global_indices(cm, j)
                for rsl, csl in table[i][j]:
                    assert rsl.stop - rsl.start == csl.stop - csl.start
                    np.testing.assert_array_equal(gi[rsl], gj[csl])
                    hits[gi[rsl]] += 1
        np.testing.assert_array_equal(hits, 1)
