"""The shape proxy a charge recorder hands the kernels.

A :class:`PhantomArray` is a ``(shape, dtype)`` record and nothing else:
:class:`~repro.runtime.device.LocalKernels` reads what it charges off
it (the paper's weak-scaling experiments reach ``N = 900k``, a 13 TB
dense matrix, so a charge may never need the data).  There is no
arithmetic to guard against: the kernels compute nothing, and the
numeric halves call the ``*_numeric`` functions on ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PhantomArray"]


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
        shape = tuple(map(int, self.shape))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if shape and min(shape) < 0:
            raise ValueError(f"negative dimension in shape {shape}")

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize
