"""Tests for the C <-> B layout redistribution (Algorithm 2 lines 14/20)."""

import numpy as np
import pytest

from repro.distributed import (
    BlockMap1D,
    DistributedMultiVector,
    Operand,
    redistribute_b_to_c,
    redistribute_c_to_b,
)
from tests.conftest import assert_one_array, make_grid


def build(grid, V, layout):
    parts = grid.p if layout == "C" else grid.q
    return DistributedMultiVector.from_global(
        grid, V, BlockMap1D(V.shape[0], parts), layout
    )


class TestCtoB:
    @pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (2, 3), (3, 2), (1, 4)])
    def test_values(self, rng, p, q):
        g = make_grid(p * q, p=p, q=q)
        V = rng.standard_normal((30, 5))
        C = build(g, V, "C")
        B = DistributedMultiVector.zeros(g, BlockMap1D(30, q), "B", 5, np.float64)
        redistribute_c_to_b(g, C, B)
        np.testing.assert_allclose(B.gather(), V)
        assert_one_array(B)

    def test_square_grid_single_bcast_per_column(self, rng):
        """Paper Sec. 3.1: on a square grid one broadcast per column
        communicator suffices."""
        g = make_grid(9, p=3, q=3)
        V = rng.standard_normal((30, 4))
        C = build(g, V, "C")
        B = DistributedMultiVector.zeros(g, BlockMap1D(30, 3), "B", 4, np.float64)
        assert redistribute_c_to_b(g, C, B) == 3  # q communicators x 1

    def test_non_square_needs_more_bcasts(self, rng):
        g = make_grid(6, p=2, q=3)
        V = rng.standard_normal((30, 4))
        C = build(g, V, "C")
        B = DistributedMultiVector.zeros(g, BlockMap1D(30, 3), "B", 4, np.float64)
        assert redistribute_c_to_b(g, C, B) > 3

    def test_column_subrange(self, rng):
        g = make_grid(4)
        V = rng.standard_normal((20, 6))
        C = build(g, V, "C")
        B = DistributedMultiVector.zeros(g, BlockMap1D(20, 2), "B", 6, np.float64)
        redistribute_c_to_b(g, C, B, cols=slice(2, 5))
        out = B.gather()
        np.testing.assert_allclose(out[:, 2:5], V[:, 2:5])
        np.testing.assert_allclose(out[:, :2], 0.0)

    def test_empty_range_is_noop(self, rng):
        g = make_grid(4)
        V = rng.standard_normal((20, 6))
        C = build(g, V, "C")
        B = DistributedMultiVector.zeros(g, BlockMap1D(20, 2), "B", 6, np.float64)
        assert redistribute_c_to_b(g, C, B, cols=slice(3, 3)) == 0

    def test_layout_validation(self, rng):
        g = make_grid(4)
        V = rng.standard_normal((20, 2))
        C = build(g, V, "C")
        with pytest.raises(ValueError):
            redistribute_c_to_b(g, C, C)

    def test_phantom_charges_cost(self):
        g = make_grid(4)
        C = Operand("C", 8, np.dtype(np.float64), BlockMap1D(1000, 2))
        B = Operand("B", 8, np.dtype(np.float64), BlockMap1D(1000, 2))
        n = redistribute_c_to_b(g, C, B)
        assert n == 2
        assert g.cluster.makespan() > 0


class TestBtoC:
    @pytest.mark.parametrize("p,q", [(2, 2), (2, 3), (3, 2)])
    def test_values(self, rng, p, q):
        g = make_grid(p * q, p=p, q=q)
        V = rng.standard_normal((30, 5))
        B = build(g, V, "B")
        C = DistributedMultiVector.zeros(g, BlockMap1D(30, p), "C", 5, np.float64)
        redistribute_b_to_c(g, B, C)
        np.testing.assert_allclose(C.gather(), V)
        assert_one_array(C)

    def test_roundtrip(self, rng):
        g = make_grid(6, p=2, q=3)
        V = rng.standard_normal((25, 3))
        C = build(g, V, "C")
        B = DistributedMultiVector.zeros(g, BlockMap1D(25, 3), "B", 3, np.float64)
        C2 = DistributedMultiVector.zeros(g, BlockMap1D(25, 2), "C", 3, np.float64)
        redistribute_c_to_b(g, C, B)
        redistribute_b_to_c(g, B, C2)
        np.testing.assert_allclose(C2.gather(), V)
