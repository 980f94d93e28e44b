"""Unit tests for the metadata-only array layer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.arrays import (
    PhantomArray,
    column_slice,
    empty_any,
    is_phantom,
    nbytes_of,
    zeros_any,
)


class TestPhantomArray:
    def test_basic_metadata(self):
        a = PhantomArray((3, 5), np.float64)
        assert a.shape == (3, 5)
        assert a.ndim == 2
        assert a.size == 15
        assert a.itemsize == 8
        assert a.nbytes == 120

    def test_complex_dtype(self):
        a = PhantomArray((4,), np.complex128)
        assert a.nbytes == 64

    def test_transpose(self):
        assert PhantomArray((2, 7), np.float32).T.shape == (7, 2)

    def test_copy_and_conj_preserve_shape(self):
        a = PhantomArray((2, 3), np.complex128)
        assert a.copy().shape == (2, 3)
        assert a.conj().dtype == np.complex128

    def test_negative_dim_rejected(self):
        with pytest.raises(ValueError):
            PhantomArray((-1, 3), np.float64)

    def test_reshape(self):
        a = PhantomArray((4, 6), np.float64)
        assert a.reshape(8, 3).shape == (8, 3)
        assert a.reshape(-1, 12).shape == (2, 12)

    def test_reshape_bad_size(self):
        with pytest.raises(ValueError):
            PhantomArray((4, 6), np.float64).reshape(5, 5)

    def test_cols_slicing(self):
        a = PhantomArray((10, 8), np.float64)
        assert a.cols(2, 5).shape == (10, 3)
        assert a.cols(3).shape == (10, 5)
        assert a.cols(6, 100).shape == (10, 2)  # clamped

    def test_derived_instances_equal_public_ones(self):
        """The structural operations build their result without
        re-validating; it must be indistinguishable from one built by
        the (validating, dtype-canonicalising) public constructor."""
        a = PhantomArray([np.int64(4), 6], "c16")
        assert a.shape == (4, 6) and type(a.shape[0]) is int
        assert a.dtype is np.dtype(np.complex128)
        derived = {
            a.T: PhantomArray((6, 4), np.complex128),
            a.copy(): a,
            a.conj(): a,
            a.reshape(8, 3): PhantomArray((8, 3), np.complex128),
            a.reshape((-1, 12)): PhantomArray((2, 12), np.complex128),
            a.cols(np.int64(1), np.int64(4)): PhantomArray((4, 3), "c16"),
        }
        for fast, public in derived.items():
            assert fast == public and hash(fast) == hash(public)
            assert all(type(d) is int for d in fast.shape)
            assert fast.dtype is public.dtype
        with pytest.raises(ValueError):
            a.reshape(-2, -12)

    def test_cols_requires_2d(self):
        with pytest.raises(ValueError):
            PhantomArray((10,), np.float64).cols(0, 1)

    def test_len(self):
        assert len(PhantomArray((7, 2), np.float64)) == 7

    @pytest.mark.parametrize("op", ["__add__", "__mul__", "__matmul__", "__sub__"])
    def test_arithmetic_forbidden(self, op):
        a = PhantomArray((2, 2), np.float64)
        with pytest.raises(TypeError):
            getattr(a, op)(a)

    def test_numpy_coercion_forbidden(self):
        with pytest.raises(TypeError):
            np.asarray(PhantomArray((2, 2), np.float64))

    @given(
        m=st.integers(0, 50),
        n=st.integers(0, 50),
        start=st.integers(0, 60),
        stop=st.integers(0, 60),
    )
    def test_cols_matches_numpy_semantics(self, m, n, start, stop):
        """Phantom column slicing mirrors ndarray slicing shapes."""
        a = PhantomArray((m, n), np.float64)
        real = np.empty((m, n))
        assert a.cols(start, stop).shape == real[:, start:stop].shape


class TestDispatch:
    def test_is_phantom(self):
        assert is_phantom(PhantomArray((1,), np.float64))
        assert not is_phantom(np.zeros(1))

    def test_empty_any(self):
        assert is_phantom(empty_any((2, 2), np.float64, True))
        r = empty_any((2, 2), np.float64, False)
        assert isinstance(r, np.ndarray) and r.shape == (2, 2)

    def test_zeros_any_real_is_zero(self):
        assert np.all(zeros_any((3,), np.float64, False) == 0)

    def test_column_slice_real_is_view(self):
        x = np.arange(12.0).reshape(3, 4)
        v = column_slice(x, 1, 3)
        v[...] = 0
        assert np.all(x[:, 1:3] == 0)

    def test_column_slice_phantom(self):
        x = PhantomArray((3, 4), np.float64)
        assert column_slice(x, 1, 3).shape == (3, 2)

    def test_nbytes_of(self):
        assert nbytes_of(np.zeros((2, 2))) == 32
        assert nbytes_of(PhantomArray((2, 2), np.float64)) == 32
