"""Cost-charged local linear-algebra kernels.

:class:`LocalKernels` is the only place where rank-local math happens.
Every method

* executes the real NumPy/SciPy operation when given real arrays, or
  propagates :class:`~repro.arrays.PhantomArray` metadata when given
  phantoms (performance-only mode), and
* charges the modeled kernel time (``repro.perfmodel.kernels``) to the
  owning rank's clock and tracer under :data:`CostCategory.COMPUTE`.

The mapping to the paper's GPU port (Sec. 3.3): GEMM/HEMM -> cuBLAS,
SYRK/TRSM -> cuBLAS, POTRF/GEQRF/HEEVD -> cuSOLVER, batched BLAS-1
residual kernels -> custom CUDA kernel (NCCL build) or host BLAS (STD).

A step splits into its two halves (DESIGN.md §5j): handed phantom
operands — shape proxies — a kernel charges the modeled time and does no
arithmetic, and a kernel set built without a charge sink
(:data:`UNCHARGED`) runs the arithmetic without charging.  The charge is
issued once per *shape class* — a kernel set whose sink reaches every
rank holding equally shaped blocks — and the arithmetic once per unique
block, so the cost model sees the identical per-rank charge sequence
whatever the numerics share.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

from repro.arrays import PhantomArray, is_phantom
from repro.perfmodel.kernels import (
    KernelTimeModel,
    gemm_flops,
    geqrf_flops,
    heevd_flops,
    potrf_flops,
    syrk_flops,
    trsm_flops,
)

__all__ = [
    "LocalKernels",
    "UNCHARGED",
    "gemm_numeric",
    "syrk_numeric",
    "trsm_numeric",
    "axpby_numeric",
    "axpy_into_numeric",
]


def _any_phantom(*xs) -> bool:
    return any(is_phantom(x) for x in xs)


# -- pure numeric kernels ----------------------------------------------------------
# The arithmetic of the charged kernels, factored out so the decoupled
# charge/compute paths (``repro.distributed.hemm``, ``repro.core.filter``)
# run the *exact same* operations after charging every rank first.  No
# charging, no phantom handling — ndarrays only.  The
# optional ``out`` writes into preallocated storage; ``np.matmul`` with
# ``out=`` produces the same bits as ``@`` (same BLAS call, caller
# supplies the result buffer).

def gemm_numeric(A, B, *, op_a: str = "N", alpha: float = 1.0, out=None):
    """``alpha * op(A) @ B`` — the numeric core of :meth:`LocalKernels.gemm`."""
    Aop = A if op_a == "N" else (A.T if op_a == "T" else A.conj().T)
    if out is None:
        out = Aop @ B
    else:
        np.matmul(Aop, B, out=out)
    if alpha != 1.0:
        out *= alpha
    return out


def syrk_numeric(X):
    """``X^H X`` symmetrized — the numeric core of :meth:`LocalKernels.syrk`."""
    G = X.conj().T @ X
    # enforce exact Hermitian symmetry (SYRK only writes one triangle)
    return 0.5 * (G + G.conj().T)


def trsm_numeric(X, R):
    """``X R^{-1}`` — the numeric core of :meth:`LocalKernels.trsm`."""
    # Y R = X  =>  R^T Y^T = X^T (plain transpose, also valid for complex)
    Yt = scipy.linalg.solve_triangular(R.T, X.T, lower=True)
    return np.ascontiguousarray(Yt.T)


def axpby_numeric(alpha, X, beta, Y, out=None):
    """``alpha*X + beta*Y`` — the numeric core of :meth:`LocalKernels.axpby`.

    With ``out`` the combination lands in preallocated storage (``out``
    may alias ``X`` but must not alias ``Y``); the intermediate
    roundings match the expression form, so the bits are unchanged.
    """
    if out is None:
        return alpha * X + beta * Y
    np.multiply(X, alpha, out=out)
    out += beta * Y
    return out


def axpy_into_numeric(W, wrows: slice, X, xrows: slice, alpha: float):
    """``W[wrows, :] += alpha * X[xrows, :]`` — core of :meth:`LocalKernels.axpy_into`."""
    W[wrows, :] += alpha * X[xrows, :]
    return W


class LocalKernels:
    """BLAS/LAPACK kernel set bound to one device and one charge sink.

    Parameters
    ----------
    model:
        Time model for the executing device.
    charge:
        Callable ``charge(seconds)`` that advances the owning ranks'
        clocks and books the time as COMPUTE; ``None`` for a set that
        only computes.
    """

    def __init__(self, model: KernelTimeModel | None,
                 charge: Callable[[float], None] | None):
        self.model = model
        self._charge = charge

    def _charge_flops(self, kind: str, flops: float, dtype) -> None:
        if self._charge is not None:
            self._charge(self.model.time(kind, flops, dtype=dtype))

    # -- level 3 ---------------------------------------------------------------
    def gemm(
        self,
        A,
        B,
        *,
        op_a: str = "N",
        alpha: float = 1.0,
        kind: str = "gemm",
    ):
        """``alpha * op(A) @ B`` with ``op in {"N", "T", "C"}``."""
        if op_a not in ("N", "T", "C"):
            raise ValueError(f"bad op_a {op_a!r}")
        am, ak = (A.shape if op_a == "N" else A.shape[::-1])
        bk, bn = B.shape
        if ak != bk:
            raise ValueError(f"gemm shape mismatch: op(A)={am}x{ak}, B={bk}x{bn}")
        dtype = np.result_type(A.dtype, B.dtype)
        self._charge_flops(kind, gemm_flops(am, bn, ak, dtype), dtype)
        if _any_phantom(A, B):
            return PhantomArray((am, bn), dtype)
        return gemm_numeric(A, B, op_a=op_a, alpha=alpha)

    def hemm(self, H, X, *, op_h: str = "N", alpha: float = 1.0):
        """Hermitian matrix times a block of vectors (cuBLAS ZHEMM/DSYMM)."""
        return self.gemm(H, X, op_a=op_h, alpha=alpha, kind="hemm")

    def syrk(self, X):
        """Gram matrix ``X^H X`` (ZHERK/DSYRK)."""
        m, n = X.shape
        self._charge_flops("syrk", syrk_flops(n, m, X.dtype), X.dtype)
        if is_phantom(X):
            return PhantomArray((n, n), X.dtype)
        return syrk_numeric(X)

    def trsm(self, X, R):
        """``X <- X R^{-1}`` with ``R`` upper triangular (right-side TRSM)."""
        m, n = X.shape
        if R is not None and R.shape != (n, n):
            raise ValueError(f"trsm shape mismatch: X={X.shape}, R={R.shape}")
        self._charge_flops("trsm", trsm_flops(m, n, X.dtype), X.dtype)
        if _any_phantom(X, R):
            return PhantomArray((m, n), np.result_type(X.dtype, R.dtype))
        return trsm_numeric(X, R)

    # -- factorizations ---------------------------------------------------------
    def potrf(self, G):
        """Cholesky ``G = R^H R`` (upper factor).  Returns ``(R, info)``;
        ``info != 0`` signals breakdown (matrix not positive definite),
        mirroring LAPACK xPOTRF semantics."""
        n = G.shape[0]
        self._charge_flops("potrf", potrf_flops(n, G.dtype), G.dtype)
        if is_phantom(G):
            return PhantomArray((n, n), G.dtype), 0
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            return G, 1
        return L.conj().T, 0

    def qr(self, X):
        """Economy Householder QR; returns the explicit Q factor
        (GEQRF + ORGQR/UNGQR, both charged).

        Complex GEQRF runs at ~1.8x the real-flop rate of DGEQRF (four
        real flops per memory element quadruple the panel's arithmetic
        intensity), modeled by deflating the charged flop count.
        """
        m, n = X.shape
        f = geqrf_flops(m, n, X.dtype)
        if np.dtype(X.dtype).kind == "c":
            f /= 1.8
        self._charge_flops("geqrf", 2.0 * f, X.dtype)  # factor + form Q
        if is_phantom(X):
            return PhantomArray((m, n), X.dtype)
        Q, _ = np.linalg.qr(X)
        return Q

    def eigh(self, A):
        """Full Hermitian eigendecomposition (cuSOLVER ZHEEVD/DSYEVD)."""
        n = A.shape[0]
        self._charge_flops("heevd", heevd_flops(n, A.dtype), A.dtype)
        if is_phantom(A):
            return PhantomArray((n,), np.float64), PhantomArray((n, n), A.dtype)
        w, V = np.linalg.eigh(A)
        return w, V

    # -- level 1 / batched vector ops --------------------------------------------
    def _blas1_charge(self, nbytes: float) -> None:
        if self._charge is not None:
            self._charge(self.model.time("blas1", 0.0, bytes_touched=nbytes))

    def cast(self, X, dtype):
        """Precision conversion ``X.astype(dtype)`` (bandwidth-bound copy).

        Charged as a streaming kernel reading the source and writing the
        destination width; used by the mixed-precision filter for
        demote/promote copies and by the HEMM for its cached narrow
        H-block casts.
        """
        dtype = np.dtype(dtype)
        nbytes = X.size * (X.itemsize + dtype.itemsize)
        self._blas1_charge(nbytes)
        if is_phantom(X):
            return PhantomArray(tuple(X.shape), dtype)
        return X.astype(dtype)

    def axpby(self, alpha, X, beta, Y, *, out=None):
        """``alpha*X + beta*Y`` elementwise (same shapes); with ``out``
        into preallocated storage (see :func:`axpby_numeric`)."""
        if tuple(X.shape) != tuple(Y.shape):
            raise ValueError("axpby shape mismatch")
        dtype = np.result_type(X.dtype, Y.dtype)
        nbytes = 3 * X.size * np.dtype(dtype).itemsize
        self._blas1_charge(nbytes)
        if _any_phantom(X, Y):
            return PhantomArray(tuple(X.shape), dtype)
        return axpby_numeric(alpha, X, beta, Y, out)

    def axpy_into(self, W, wrows: slice, X, xrows: slice, alpha: float):
        """``W[wrows, :] += alpha * X[xrows, :]`` (row-sliced AXPY).

        Used for the diagonal-shift term of ``(H - gamma I) X`` on the
        segment overlap between a rank's row and column index ranges.
        """
        nrows = wrows.stop - wrows.start
        ncols = W.shape[1]
        nbytes = 3 * nrows * ncols * np.dtype(W.dtype).itemsize
        self._blas1_charge(nbytes)
        if _any_phantom(W, X):
            return W
        return axpy_into_numeric(W, wrows, X, xrows, alpha)

    def scale(self, X, alpha: float):
        """``X *= alpha`` in place (real); phantom pass-through.  An
        ndarray shared by several replica slots (aliased multivectors)
        must be handed in once, else it is scaled twice."""
        nbytes = 2 * X.size * X.itemsize
        self._blas1_charge(nbytes)
        if is_phantom(X):
            return X
        X *= alpha
        return X

    def scale_columns(self, X, v):
        """``X * v[None, :]`` — per-column scaling."""
        nbytes = 2 * X.size * X.itemsize
        self._blas1_charge(nbytes)
        if _any_phantom(X, v):
            return PhantomArray(tuple(X.shape), X.dtype)
        return X * np.asarray(v)[None, :]

    def sub_scaled_columns(self, B, B2, ritzv):
        """``B - B2 * ritzv[None, :]`` — the residual numerator
        (Algorithm 2, line 22), batched as one device kernel."""
        if tuple(B.shape) != tuple(B2.shape):
            raise ValueError("shape mismatch")
        nbytes = 3 * B.size * B.itemsize
        self._blas1_charge(nbytes)
        if _any_phantom(B, B2, ritzv):
            return PhantomArray(tuple(B.shape), B.dtype)
        return B - B2 * np.asarray(ritzv)[None, :]

    def colnorms_sq(self, X):
        """Squared Euclidean norm of each column (batched DOT kernels)."""
        nbytes = X.size * X.itemsize
        self._blas1_charge(nbytes)
        if is_phantom(X):
            return PhantomArray((X.shape[1],), np.float64)
        return np.einsum("ij,ij->j", X.conj(), X).real.copy()

    def dot_columns(self, X, Y):
        """Per-column inner products ``diag(X^H Y)`` (batched DOT)."""
        if tuple(X.shape) != tuple(Y.shape):
            raise ValueError("dot_columns shape mismatch")
        nbytes = 2 * X.size * X.itemsize
        self._blas1_charge(nbytes)
        if _any_phantom(X, Y):
            return PhantomArray((X.shape[1],), np.result_type(X.dtype, Y.dtype))
        return np.einsum("ij,ij->j", X.conj(), Y).copy()

    def frob_norm_sq(self, X):
        """Squared Frobenius norm (single fused reduction)."""
        nbytes = X.size * X.itemsize
        self._blas1_charge(nbytes)
        if is_phantom(X):
            return 1.0  # placeholder scalar; phantom mode never branches on it
        return float(np.vdot(X, X).real)

    def add_diag(self, G, s: float):
        """``G + s*I`` (shift before POTRF in s-CholeskyQR)."""
        n = G.shape[0]
        self._blas1_charge(2 * n * np.dtype(G.dtype).itemsize)
        if is_phantom(G):
            return G
        out = G.copy()
        out[np.diag_indices(n)] += s
        return out


#: the numeric half of a class-charged step: computes, charges nobody
UNCHARGED = LocalKernels(None, None)
