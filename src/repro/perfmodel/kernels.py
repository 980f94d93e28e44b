"""Flop counts and modeled execution times for dense linear-algebra kernels.

Flop counts follow the standard LAPACK working notes conventions.  All
counts are returned in *real* flops: a complex multiply-add is counted as
8 real flops (4 mul + 4 add), so complex GEMM is ``8 m n k`` while real
GEMM is ``2 m n k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.machine import DeviceSpec

__all__ = [
    "complex_factor",
    "bytes_per_scalar",
    "dtype_token",
    "dtype_rate_factor",
    "DEFAULT_RATE_FACTORS",
    "gemm_flops",
    "syrk_flops",
    "potrf_flops",
    "trsm_flops",
    "geqrf_flops",
    "heevd_flops",
    "KernelTimeModel",
]


def complex_factor(dtype) -> int:
    """4 for complex dtypes (each complex mul-add = 4 real mul-add), else 1."""
    return 4 if np.dtype(dtype).kind == "c" else 1


def bytes_per_scalar(dtype) -> float:
    """Bytes of one *real scalar word* of ``dtype``.

    A complex value counts as two real words (so ``complex128`` -> 8.0,
    matching ``float64``).  This is the single place word widths live —
    narrow-apply decisions and workspace sizes derive from it instead
    of hard-coding 8/16.
    """
    dt = np.dtype(dtype)
    return dt.itemsize / 2.0 if dt.kind == "c" else float(dt.itemsize)


def dtype_token(dtype) -> str:
    """Precision token (``"fp64"``/``"fp32"``) of a NumPy dtype, keyed
    on its real word width."""
    return "fp32" if bytes_per_scalar(dtype) <= 4.0 else "fp64"


#: Fallback throughput multipliers relative to the device's calibrated
#: fp64 rates, used when the device carries no calibrated rate table.
#: fp64 is *exactly* 1.0 (the bit-identity gates depend on it); fp32 is
#: the classic 2x of vendor BLAS, overridable per machine via
#: ``perfmodel.calibrate``.
DEFAULT_RATE_FACTORS = {
    "fp64": 1.0,
    "fp32": 2.0,
}


def dtype_rate_factor(dtype, device: DeviceSpec | None = None) -> float:
    """Throughput multiplier of ``dtype`` relative to the device's
    calibrated double-precision rates.

    Resolution order: the device's calibrated rate table
    (``DeviceSpec.rate_factor``) when a device is given, then
    :data:`DEFAULT_RATE_FACTORS`.  ``float64``/``complex128`` map to
    exactly 1.0 on every path so the default configuration multiplies
    rates by 1.0 and stays bit-identical.
    """
    token = dtype_token(dtype)
    if token == "fp64":
        return 1.0
    if device is not None:
        factor = device.rate_factor(token)
        if factor is not None:
            return float(factor)
    return DEFAULT_RATE_FACTORS[token]


def gemm_flops(m: int, n: int, k: int, dtype=np.float64) -> float:
    """C(m,n) += A(m,k) B(k,n)."""
    return 2.0 * m * n * k * complex_factor(dtype)


def syrk_flops(n: int, k: int, dtype=np.float64) -> float:
    """Rank-k update of an n x n symmetric/Hermitian matrix: X^H X."""
    return 1.0 * n * (n + 1) * k * complex_factor(dtype)


def potrf_flops(n: int, dtype=np.float64) -> float:
    """Cholesky factorization of an n x n matrix."""
    return (n**3 / 3.0 + n**2 / 2.0) * complex_factor(dtype)


def trsm_flops(m: int, n: int, dtype=np.float64) -> float:
    """Triangular solve with an n x n triangle against m right-hand rows
    (X <- X R^{-1} with X of size m x n)."""
    return 1.0 * m * n * n * complex_factor(dtype)


def geqrf_flops(m: int, n: int, dtype=np.float64) -> float:
    """Householder QR of an m x n (m >= n) matrix, factor only."""
    return (2.0 * m * n * n - 2.0 * n**3 / 3.0) * complex_factor(dtype)


def heevd_flops(n: int, dtype=np.float64) -> float:
    """Full Hermitian eigendecomposition (values + vectors), D&C estimate."""
    return (4.0 * n**3 / 3.0 + 8.0 * n**3 / 3.0) * complex_factor(dtype)


# kernel kind -> which DeviceSpec rate bounds it
_RATE_ATTR = {
    "gemm": "gemm_rate",
    "hemm": "gemm_rate",
    "syrk": "level3_rate",
    "trsm": "level3_rate",
    "potrf": "factor_rate",
    "geqrf": "geqrf_rate",
    "heevd": "factor_rate",
}


@dataclass(frozen=True)
class KernelTimeModel:
    """Maps (kernel kind, flop count) to modeled seconds on a device.

    The efficiency ramp ``f / (f + f_half)`` captures the well-known
    small-problem throughput loss of GPU BLAS without needing per-shape
    tables; large kernels asymptote to the device's effective rate.
    """

    device: DeviceSpec

    def time(self, kind: str, flops: float, bytes_touched: float = 0.0,
             dtype=None) -> float:
        if flops < 0:
            raise ValueError("negative flop count")
        dev = self.device
        if kind in _RATE_ATTR:
            rate = getattr(dev, _RATE_ATTR[kind])
            if dtype is not None:
                factor = dtype_rate_factor(dtype, dev)
                if factor != 1.0:
                    rate = rate * factor
            eff = flops / (flops + dev.eff_half_flops) if flops > 0 else 0.0
            compute = flops / (rate * eff) if flops > 0 else 0.0
            return dev.launch_overhead + compute
        if kind == "blas1":
            # bandwidth-bound; bytes_touched dominates
            return dev.launch_overhead + bytes_touched / dev.blas1_bandwidth
        raise KeyError(f"unknown kernel kind {kind!r}")
