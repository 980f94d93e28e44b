"""Tests for DistributedHermitian and DistributedMultiVector."""

import numpy as np
import pytest

from repro.distributed import DistributedHermitian, DistributedMultiVector
from tests.conftest import assert_one_array


class TestDistributedHermitian:
    def test_roundtrip_block(self, grid23, small_sym):
        Hd = DistributedHermitian.from_dense(grid23, small_sym)
        np.testing.assert_allclose(Hd.data, small_sym)

    def test_roundtrip_complex(self, grid23, rng):
        A = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        H = (A + A.conj().T) / 2
        Hd = DistributedHermitian.from_dense(grid23, H)
        np.testing.assert_array_equal(Hd.data, H)

    def test_ragged_local_block_shapes(self, grid23, rng):
        """31 rows over 2 parts and 31 columns over 3: the leading parts
        own one more index."""
        A = rng.standard_normal((31, 31))
        H = A + A.T
        Hd = DistributedHermitian.from_dense(grid23, H)
        shapes = {ij: block.shape for ij, block in Hd.blocks.items()}
        assert shapes == {(i, j): ((16, 15)[i], (11, 10, 10)[j])
                          for i in range(2) for j in range(3)}
        np.testing.assert_array_equal(Hd.data, H)

    def test_roundtrip_with_empty_part(self, grid23):
        """Two columns over three parts: the third part owns none."""
        H = np.array([[2.0, 1.0], [1.0, 3.0]])
        Hd = DistributedHermitian.from_dense(grid23, H)
        assert Hd.blocks[(0, 2)].shape == (1, 0)
        np.testing.assert_array_equal(Hd.data, H)

    def test_local_block_shapes(self, grid23, small_sym):
        Hd = DistributedHermitian.from_dense(grid23, small_sym)
        for i in range(2):
            for j in range(3):
                assert Hd.blocks[(i, j)].shape == (Hd.rowmap.local_size(i),
                                                Hd.colmap.local_size(j))

    def test_non_square_rejected(self, grid22):
        with pytest.raises(ValueError):
            DistributedHermitian.from_dense(grid22, np.zeros((3, 4)))

    def test_non_hermitian_rejected(self, grid22, rng):
        A = rng.standard_normal((8, 8))
        with pytest.raises(ValueError):
            DistributedHermitian.from_dense(grid22, A)

    def test_slight_asymmetry_rejected(self, grid22):
        """The bound is absolute — ``1e-10 max(1, max|H|)`` — with no
        relative slack: 5e-6 off Hermitian on an O(1) matrix fails."""
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        A[0, 3] = 5e-6
        with pytest.raises(ValueError, match="Hermitian"):
            DistributedHermitian.from_dense(grid22, A)
        A[3, 0] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DistributedHermitian.from_dense(grid22, A)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_hermitian_inputs_pass_panel_by_panel(self, grid23, rng, dtype,
                                                  monkeypatch):
        from repro.distributed import hermitian

        A = rng.standard_normal((30, 30)).astype(dtype)
        if np.dtype(dtype).kind == "c":
            A = A + 1j * rng.standard_normal((30, 30))
        H = 1e3 * (A + A.conj().T)
        Hd = DistributedHermitian.from_dense(grid23, H)
        np.testing.assert_array_equal(Hd.data, H)
        monkeypatch.setattr(hermitian, "_PANEL_ELEMS", 70)  # two-row panels
        hermitian._check_hermitian(H)
        H[29, 0] += 1e-8  # within 1e-10 max|H|, about 5e-7 here
        hermitian._check_hermitian(H)
        H[29, 0] += 1e-5  # found in the last panel
        with pytest.raises(ValueError):
            hermitian._check_hermitian(H)

    def test_phantom_blocks(self, grid22):
        """A phantom H is its block layout without blocks."""
        Hd = DistributedHermitian.phantom(grid22, 100, np.complex128)
        assert Hd.blocks == {}
        assert (Hd.rowmap.local_size(0), Hd.colmap.local_size(1),
                Hd.dtype) == (50, 50, np.complex128)


class TestDistributedMultiVector:
    def test_from_global_gather_roundtrip(self, grid23, rng):
        g = grid23
        V = rng.standard_normal((40, 7))
        rowmap = DistributedHermitian.from_dense(g, np.eye(40)).rowmap
        for layout, imap in [("C", rowmap), ("B", DistributedHermitian.from_dense(g, np.eye(40)).colmap)]:
            mv = DistributedMultiVector.from_global(g, V, imap, layout)
            np.testing.assert_allclose(mv.gather(), V)
            assert_one_array(mv)

    @pytest.mark.parametrize("N", [41, 2], ids=["ragged", "empty_part"])
    def test_uneven_maps_roundtrip(self, grid23, rng, N):
        """Gather undoes ``from_global`` when parts own unequal counts,
        none included, in both layouts."""
        from repro.distributed import BlockMap1D

        V = rng.standard_normal((N, 3))
        for layout, parts in (("C", 2), ("B", 3)):
            m = BlockMap1D(N, parts)
            mv = DistributedMultiVector.from_global(grid23, V, m, layout)
            np.testing.assert_array_equal(mv.gather(), V)
            assert_one_array(mv)

    def test_zeros_shapes(self, grid23):
        from repro.distributed import BlockMap1D

        mv = DistributedMultiVector.zeros(grid23, BlockMap1D(40, 2), "C", 5, np.float64)
        assert mv.local(0, 0).shape == (20, 5)
        assert mv.local(1, 2).shape == (20, 5)

    def test_view_cols_is_view(self, grid22, rng):
        from repro.distributed import BlockMap1D

        mv = DistributedMultiVector.zeros(grid22, BlockMap1D(10, 2), "C", 6, np.float64)
        v = mv.view_cols(2, 4)
        v.local(0, 0)[...] = 7.0
        assert np.all(mv.local(0, 0)[:, 2:4] == 7.0)
        assert np.all(mv.local(0, 0)[:, :2] == 0.0)

    def test_view_cols_bad_range(self, grid22):
        from repro.distributed import BlockMap1D

        mv = DistributedMultiVector.zeros(grid22, BlockMap1D(10, 2), "C", 6, np.float64)
        with pytest.raises(ValueError):
            mv.view_cols(4, 2)

    def test_write_into(self, grid22, rng):
        from repro.distributed import BlockMap1D

        m = BlockMap1D(10, 2)
        big = DistributedMultiVector.zeros(grid22, m, "C", 6, np.float64)
        V = rng.standard_normal((10, 2))
        small = DistributedMultiVector.from_global(grid22, V, m, "C")
        small.write_into(big, 3)
        np.testing.assert_allclose(big.gather()[:, 3:5], V)

    def test_permute_columns(self, grid22, rng):
        from repro.distributed import BlockMap1D

        m = BlockMap1D(10, 2)
        V = rng.standard_normal((10, 4))
        mv = DistributedMultiVector.from_global(grid22, V, m, "C")
        perm = np.array([2, 0, 3, 1])
        mv.permute_columns(perm)
        np.testing.assert_allclose(mv.gather(), V[:, perm])

    def test_permute_wrong_length(self, grid22):
        from repro.distributed import BlockMap1D

        mv = DistributedMultiVector.zeros(grid22, BlockMap1D(10, 2), "C", 4, np.float64)
        with pytest.raises(ValueError):
            mv.permute_columns(np.array([0, 1]))

    def test_copy_cols_from(self, grid22, rng):
        from repro.distributed import BlockMap1D

        m = BlockMap1D(10, 2)
        a = DistributedMultiVector.from_global(grid22, rng.standard_normal((10, 4)), m, "C")
        b = DistributedMultiVector.from_global(grid22, rng.standard_normal((10, 4)), m, "C")
        ref = a.gather().copy()
        ref[:, 1:3] = b.gather()[:, 1:3]
        a.copy_cols_from(b, 1, 3)
        np.testing.assert_allclose(a.gather(), ref)

    def test_phantom_noops(self, grid22):
        """A phantom replay's buffers are operands: a multivector's
        signature, no blocks; every multivector holds data."""
        from repro.distributed import BlockMap1D, Operand

        m = BlockMap1D(10, 2)
        mv = DistributedMultiVector.zeros(grid22, m, "C", 4, np.float64)
        op = Operand.of(mv)
        assert op == ("C", 4, np.dtype(np.float64), m)
        assert Operand.of(mv, 3).ne == 3
        assert [op.rows(key) for key in ((0, 1), (1, 0))] == [5, 5]
        assert not hasattr(mv, "is_phantom")

    def test_bad_layout_rejected(self, grid22):
        from repro.distributed import BlockMap1D

        with pytest.raises(ValueError):
            DistributedMultiVector.zeros(grid22, BlockMap1D(10, 2), "X", 4, np.float64)
