"""Execution configuration: one frozen value, owned by the cluster.

How a solve *executes* — as opposed to what it solves
(:class:`~repro.core.config.ChaseConfig`) or what machine it models
(:class:`~repro.runtime.cluster.VirtualCluster`'s other arguments) — is
one :class:`ExecutionConfig`, passed to the cluster's constructor and
read from ``grid.cluster.config`` by every execution site.  Nothing in
the library keeps a process-wide copy and nothing reads the environment:
two clusters with different configurations coexist in one process, and a
tuner *returns* a configuration instead of installing it.  See
DESIGN.md, "Execution configuration".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExecutionConfig", "PRECISION_MODES"]

#: working-precision requests of the filter and the QR first pass: the
#: two word widths the host BLAS runs natively
PRECISION_MODES = ("fp64", "fp32")


@dataclass(frozen=True)
class ExecutionConfig:
    """The four execution choices of a solve.  The defaults are the seed
    path except for ``numeric_dedup``, which aliases replicas instead of
    recomputing them (bit-identical results; ``numeric_dedup=False`` is
    the seed execution the identity tests compare against).

    numeric_dedup:
        Build numeric multivectors with one shared ndarray per
        replication group (compute once, alias everywhere).  ``False``
        recomputes every replica, as the seed did.
    hemm_fusion:
        Run aliased HEMM applies on the fused-panel tier (one GEMM per
        grid row).  Charge-identical; matches the per-block arithmetic
        to rounding, not bit for bit — hence off by default.
    filter_dtype:
        Precision the filter's :class:`~repro.core.precision.
        PrecisionPolicy` may run at; ``fp32`` is admitted per iteration
        by the condition-estimate gate.  RR and residuals always run in
        fp64.
    qr_dtype:
        Precision requested for the first CholeskyQR2 pass, admitted
        per call by the doubling bound.
    """

    numeric_dedup: bool = True
    hemm_fusion: bool = False
    filter_dtype: str = "fp64"
    qr_dtype: str = "fp64"

    def __post_init__(self) -> None:
        for name in ("numeric_dedup", "hemm_fusion"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be True or False, got {value!r}")
        for name in ("filter_dtype", "qr_dtype"):
            value = getattr(self, name)
            if value not in PRECISION_MODES:
                raise ValueError(
                    f"{name} must be one of {PRECISION_MODES}, got {value!r}")
