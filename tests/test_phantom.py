"""Unit tests for the shape proxy the charge halves hand the kernels."""

import numpy as np
import pytest

from repro.arrays import PhantomArray


class TestPhantomArray:
    def test_basic_metadata(self):
        a = PhantomArray((3, 5), np.float64)
        assert a.shape == (3, 5)
        assert a.size == 15
        assert a.itemsize == 8

    def test_complex_dtype(self):
        a = PhantomArray((4,), np.complex128)
        assert a.size * a.itemsize == 64

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            PhantomArray((-1, 3), np.float64)

    def test_canonical_record(self):
        """Shapes are tuples of ``int`` and dtypes canonical, so two
        records of one shape are equal and hash alike whatever spelled
        them."""
        a = PhantomArray([np.int64(4), 6], "c16")
        assert a.shape == (4, 6) and all(type(d) is int for d in a.shape)
        assert a.dtype is np.dtype(np.complex128)
        b = PhantomArray((4, 6), np.complex128)
        assert a == b and hash(a) == hash(b)
