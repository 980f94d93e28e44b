"""Metadata-only stand-in for :class:`numpy.ndarray`.

A :class:`PhantomArray` carries shape and dtype but no data.  It supports
exactly the structural operations the ChASE code path needs — column
slicing, transposition metadata, copies — so that the distributed solver
can run unmodified at scales where allocating the real buffers would be
impossible (the paper's weak-scaling experiments reach ``N = 900k``,
i.e. a 13 TB dense matrix).

Arithmetic is intentionally *not* implemented: any attempt to compute
with a phantom buffer outside a cost-model-aware kernel is a bug and
raises immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PhantomArray", "is_phantom", "anyshape", "anydtype"]


@dataclass(frozen=True)
class PhantomArray:
    """Shape/dtype record standing in for a dense array.

    Parameters
    ----------
    shape:
        Tuple of dimensions, as for a NumPy array.
    dtype:
        NumPy dtype (stored canonically via ``np.dtype``).
    """

    shape: tuple[int, ...]
    dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if any(d < 0 for d in self.shape):
            raise ValueError(f"negative dimension in shape {self.shape}")

    @classmethod
    def _derived(cls, shape: tuple[int, ...], dtype: np.dtype) -> "PhantomArray":
        """An instance from an already-normalised ``shape`` (a tuple of
        non-negative ints) and canonical ``dtype`` — what the structural
        operations below derive from ``self`` — without re-validating."""
        new = object.__new__(cls)
        object.__setattr__(new, "shape", shape)
        object.__setattr__(new, "dtype", dtype)
        return new

    # -- structural metadata -------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    @property
    def T(self) -> "PhantomArray":
        return self._derived(self.shape[::-1], self.dtype)

    # -- structural operations used by the solver ----------------------------
    def copy(self) -> "PhantomArray":
        return self._derived(self.shape, self.dtype)

    def conj(self) -> "PhantomArray":
        return self._derived(self.shape, self.dtype)

    def reshape(self, *shape: int) -> "PhantomArray":
        if len(shape) == 1 and isinstance(shape[0], tuple):
            shape = shape[0]
        prod = math.prod(d for d in shape if d != -1)
        if -1 in shape:
            if prod == 0 or self.size % prod:
                raise ValueError(f"cannot reshape {self.shape} into {shape}")
            shape = tuple(self.size // prod if d == -1 else d for d in shape)
        shape = tuple(int(d) for d in shape)
        if any(d < 0 for d in shape) or math.prod(shape) != self.size:
            raise ValueError(f"cannot reshape {self.shape} into {shape}")
        return self._derived(shape, self.dtype)

    def cols(self, start: int, stop: int | None = None) -> "PhantomArray":
        """Column-slice ``self[:, start:stop]`` for a 2-D phantom."""
        if self.ndim != 2:
            raise ValueError("cols() requires a 2-D phantom array")
        stop = self.shape[1] if stop is None else stop
        stop = min(stop, self.shape[1])
        start = max(start, 0)
        return self._derived(
            (self.shape[0], int(max(stop - start, 0))), self.dtype)

    # -- guard rails ----------------------------------------------------------
    def _no_math(self, *_a, **_k):
        raise TypeError(
            "PhantomArray does not support arithmetic; route the operation "
            "through a repro.runtime.device kernel so it is cost-modeled"
        )

    __add__ = __sub__ = __mul__ = __matmul__ = __truediv__ = _no_math
    __radd__ = __rsub__ = __rmul__ = __rmatmul__ = __rtruediv__ = _no_math
    __neg__ = _no_math

    def __array__(self, *_a, **_k):  # pragma: no cover - defensive
        raise TypeError("PhantomArray cannot be materialized as a numpy array")

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of 0-d phantom array")
        return self.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhantomArray(shape={self.shape}, dtype={self.dtype})"


def is_phantom(x: object) -> bool:
    """True when *x* is a :class:`PhantomArray` (performance-only buffer)."""
    return isinstance(x, PhantomArray)


def anyshape(x) -> tuple[int, ...]:
    """Shape of a real or phantom array."""
    return tuple(x.shape)


def anydtype(x) -> np.dtype:
    """Dtype of a real or phantom array."""
    return np.dtype(x.dtype)
