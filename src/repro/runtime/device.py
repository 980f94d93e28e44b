"""Rank-local linear algebra: charged kernels and numeric functions.

A step splits into its two halves (DESIGN.md §5j), and so does this
module:

* :class:`LocalKernels` only **charges**.  Each method reads the shapes
  and dtypes of its shape proxies (the ``(shape, dtype)`` records of
  :mod:`repro.arrays`, or anything else with both), charges the
  modeled kernel time (``repro.perfmodel.kernels``) to its sink — the
  owning ranks' clocks and tracer rows under
  :data:`CostCategory.COMPUTE` — and returns ``None``.
* The ``*_numeric`` functions only **compute**, on ndarrays — NumPy,
  and the primary BLAS pool's CBLAS for CholeskyQR's SYRK / TRSM
  (:mod:`repro.runtime.blas`), so every kernel runs on one pool.

The charge is issued once per *shape class* — a kernel set whose sink
reaches every rank holding equally shaped blocks — and the arithmetic
once per part of a layout, or once on its whole array for an
elementwise kernel, so the cost model sees the identical per-rank
charge sequence whatever the numerics share.

The mapping to the paper's GPU port (Sec. 3.3): GEMM/HEMM -> cuBLAS,
SYRK/TRSM -> cuBLAS, POTRF/HEEVD -> cuSOLVER, batched BLAS-1 residual
kernels -> custom CUDA kernel (NCCL build) or host BLAS (STD).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.perfmodel.kernels import (
    KernelTimeModel,
    gemm_flops,
    heevd_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)
from repro.runtime import blas

__all__ = [
    "LocalKernels",
    "gemm_numeric",
    "syrk_numeric",
    "trsm_numeric",
    "potrf_numeric",
    "eigh_numeric",
    "cast_numeric",
    "axpby_numeric",
    "axpy_into_numeric",
    "scale_columns_numeric",
    "sub_scaled_columns_numeric",
    "colnorms_sq_numeric",
    "dot_columns_numeric",
    "frob_norm_sq_numeric",
    "add_diag_numeric",
]


# -- the numeric functions ---------------------------------------------------------
# The arithmetic of every compute half: no charging, ndarrays only.  The
# optional ``out`` writes into preallocated storage; ``np.matmul`` with
# ``out=`` produces the same bits as ``@`` (same BLAS call, caller
# supplies the result buffer).

def gemm_numeric(A, B, *, op_a: str = "N", alpha: float = 1.0, out=None):
    """``alpha * op(A) @ B`` with ``op in {"N", "T", "C"}``."""
    Aop = A if op_a == "N" else (A.T if op_a == "T" else A.conj().T)
    if out is None:
        out = Aop @ B
    else:
        np.matmul(Aop, B, out=out)
    if alpha != 1.0:
        out *= alpha
    return out


#: ``X^H X`` (the Gram matrix) and ``X R^{-1}`` (``R`` upper triangular):
#: ``?syrk`` / ``?herk`` and ``?trsm`` on the primary BLAS pool
syrk_numeric, trsm_numeric = blas.syrk, blas.trsm


def potrf_numeric(G):
    """Cholesky ``G = R^H R``: ``(R, info)`` with the upper factor ``R``;
    ``info != 0`` signals breakdown (``G`` not positive definite, ``R``
    then ``G`` itself), mirroring LAPACK xPOTRF semantics."""
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return G, 1
    return L.conj().T, 0


def eigh_numeric(A):
    """Full Hermitian eigendecomposition ``(w, V)``, ``w`` ascending."""
    w, V = np.linalg.eigh(A)
    return w, V


def cast_numeric(X, dtype):
    """Precision conversion ``X.astype(dtype)``."""
    return X.astype(dtype)


def axpby_numeric(alpha, X, beta, Y, out=None):
    """``alpha*X + beta*Y`` elementwise (same shapes).

    With ``out`` the combination lands in preallocated storage (``out``
    may alias ``X`` but must not alias ``Y``; ``out is X`` with ``alpha
    == 1`` skips the exact ``x 1.0`` pass); the intermediate roundings
    match the expression form, so the bits are unchanged.
    """
    if out is None:
        return alpha * X + beta * Y
    if out is not X or alpha != 1.0:
        np.multiply(X, alpha, out=out)
    out += beta * Y
    return out


def axpy_into_numeric(W, wrows: slice, X, xrows: slice, alpha: float):
    """``W[wrows, :] += alpha * X[xrows, :]`` (row-sliced AXPY), in place."""
    W[wrows, :] += alpha * X[xrows, :]
    return W


def scale_columns_numeric(X, v):
    """``X * v[None, :]`` — per-column scaling."""
    return X * np.asarray(v)[None, :]


def sub_scaled_columns_numeric(B, B2, v):
    """``B - B2 * v[None, :]`` — the residual numerator (Algorithm 2,
    line 22), batched as one device kernel."""
    return B - B2 * np.asarray(v)[None, :]


def colnorms_sq_numeric(X):
    """Squared Euclidean norm of each column (batched DOT kernels)."""
    return np.einsum("ij,ij->j", X.conj(), X).real.copy()


def dot_columns_numeric(X, Y):
    """Per-column inner products ``diag(X^H Y)`` (batched DOT)."""
    return np.einsum("ij,ij->j", X.conj(), Y).copy()


def frob_norm_sq_numeric(X) -> float:
    """Squared Frobenius norm (single fused reduction)."""
    return float(np.vdot(X, X).real)


def add_diag_numeric(G, s: float):
    """``G + s*I`` as a new matrix (the shift before s-CholeskyQR's POTRF)."""
    out = G.copy()
    out[np.diag_indices(G.shape[0])] += s
    return out


class LocalKernels:
    """The charges of the BLAS/LAPACK kernels on one device, into one sink.

    Every method takes the kernel's operands as shape proxies, charges
    its modeled time and returns ``None``; the arithmetic is the
    matching ``*_numeric`` function's.

    Parameters
    ----------
    model:
        Time model for the executing device.
    charge:
        Callable ``charge(seconds)`` that advances the owning ranks'
        clocks and books the time as COMPUTE (or records it).
    """

    def __init__(self, model: KernelTimeModel,
                 charge: Callable[[float], None]):
        self.model = model
        self._charge = charge

    def _charge_flops(self, kind: str, flops: float, dtype) -> None:
        self._charge(self.model.time(kind, flops, dtype=dtype))

    # -- level 3 ---------------------------------------------------------------
    def gemm(self, A, B, *, op_a: str = "N", kind: str = "gemm") -> None:
        """``op(A) @ B`` with ``op in {"N", "T", "C"}``; ``kind="hemm"``
        for the Hermitian product (cuBLAS ZHEMM/DSYMM)."""
        if op_a not in ("N", "T", "C"):
            raise ValueError(f"bad op_a {op_a!r}")
        am, ak = (A.shape if op_a == "N" else A.shape[::-1])
        bk, bn = B.shape
        if ak != bk:
            raise ValueError(f"gemm shape mismatch: op(A)={am}x{ak}, B={bk}x{bn}")
        dtype = np.result_type(A.dtype, B.dtype)
        self._charge_flops(kind, gemm_flops(am, bn, ak, dtype), dtype)

    def syrk(self, X) -> None:
        """Gram matrix ``X^H X`` (ZHERK/DSYRK)."""
        m, n = X.shape
        self._charge_flops("syrk", syrk_flops(n, m, X.dtype), X.dtype)

    def trsm(self, X, R) -> None:
        """``X <- X R^{-1}`` with ``R`` upper triangular (right-side TRSM)."""
        m, n = X.shape
        if R.shape != (n, n):
            raise ValueError(f"trsm shape mismatch: X={X.shape}, R={R.shape}")
        self._charge_flops("trsm", trsm_flops(m, n, X.dtype), X.dtype)

    # -- factorizations ---------------------------------------------------------
    def potrf(self, G) -> None:
        """Cholesky ``G = R^H R`` (upper factor)."""
        self._charge_flops("potrf", potrf_flops(G.shape[0], G.dtype), G.dtype)

    def eigh(self, A) -> None:
        """Full Hermitian eigendecomposition (cuSOLVER ZHEEVD/DSYEVD)."""
        self._charge_flops("heevd", heevd_flops(A.shape[0], A.dtype), A.dtype)

    # -- level 1 / batched vector ops --------------------------------------------
    def _blas1_charge(self, nbytes: float) -> None:
        self._charge(self.model.time("blas1", 0.0, bytes_touched=nbytes))

    def cast(self, X, dtype) -> None:
        """Precision conversion ``X.astype(dtype)`` (bandwidth-bound copy).

        Charged as a streaming kernel reading the source and writing the
        destination width; used by the mixed-precision filter for
        demote/promote copies and by the HEMM for its cached narrow
        H-block casts.
        """
        self._blas1_charge(X.size * (X.itemsize + np.dtype(dtype).itemsize))

    def axpby(self, X, Y) -> None:
        """``alpha*X + beta*Y`` elementwise (same shapes)."""
        if tuple(X.shape) != tuple(Y.shape):
            raise ValueError("axpby shape mismatch")
        dtype = np.result_type(X.dtype, Y.dtype)
        self._blas1_charge(3 * X.size * np.dtype(dtype).itemsize)

    def axpy_into(self, W, wrows: slice) -> None:
        """``W[wrows, :] += alpha * X[xrows, :]`` (row-sliced AXPY).

        Used for the diagonal-shift term of ``(H - gamma I) X`` on the
        segment overlap between a rank's row and column index ranges.
        """
        nrows = wrows.stop - wrows.start
        self._blas1_charge(3 * nrows * W.shape[1] * np.dtype(W.dtype).itemsize)

    def scale(self, X) -> None:
        """``X *= alpha`` in place."""
        self._blas1_charge(2 * X.size * X.itemsize)

    def scale_columns(self, X) -> None:
        """``X * v[None, :]`` — per-column scaling."""
        self._blas1_charge(2 * X.size * X.itemsize)

    def sub_scaled_columns(self, B, B2) -> None:
        """``B - B2 * v[None, :]`` — the residual numerator (Algorithm 2,
        line 22), batched as one device kernel."""
        if tuple(B.shape) != tuple(B2.shape):
            raise ValueError("shape mismatch")
        self._blas1_charge(3 * B.size * B.itemsize)

    def colnorms_sq(self, X) -> None:
        """Squared Euclidean norm of each column (batched DOT kernels)."""
        self._blas1_charge(X.size * X.itemsize)

    def dot_columns(self, X, Y) -> None:
        """Per-column inner products ``diag(X^H Y)`` (batched DOT)."""
        if tuple(X.shape) != tuple(Y.shape):
            raise ValueError("dot_columns shape mismatch")
        self._blas1_charge(2 * X.size * X.itemsize)

    def frob_norm_sq(self, X) -> None:
        """Squared Frobenius norm (single fused reduction)."""
        self._blas1_charge(X.size * X.itemsize)

    def add_diag(self, G) -> None:
        """``G + s*I`` (shift before POTRF in s-CholeskyQR)."""
        self._blas1_charge(2 * G.shape[0] * np.dtype(G.dtype).itemsize)
