"""Convergence traces: record a numeric run, replay it at paper scale.

The scaling experiments (Fig. 3b) measure full solves at ``N = 115k`` —
far beyond what can be executed numerically here.  Subspace iteration's
*iteration structure* (iterations to convergence, per-iteration filter
degrees and locking counts) depends on the shape of the spectrum, not on
its absolute size, so a numeric run on a spectrally matched problem at
reduced ``N`` yields a trace that a phantom (metadata-only) run at full
``N`` can replay through the identical code path, with every kernel and
collective charged by the performance model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IterationRecord", "ConvergenceTrace"]


@dataclass
class IterationRecord:
    """One subspace iteration's control decisions."""

    degrees: np.ndarray          # per-active-column filter degrees (sorted)
    locked_before: int
    new_converged: int
    qr_variant: str              # "CholeskyQR1"/"CholeskyQR2"/"sCholeskyQR2"/"HHQR"
    cond_est: float
    matvecs: int = 0
    # inputs of the precision policy's decide() at this iteration
    # (DESIGN.md §5g): the smallest active residual of the *previous*
    # iteration (None on the first) and the spectral scale.  Recording
    # the decision INPUTS — not the decided token — lets a phantom
    # replay reproduce the precision decisions under either mode.
    resd_min: float | None = None
    res_scale: float = 1.0

    @property
    def locked_after(self) -> int:
        return self.locked_before + self.new_converged


@dataclass
class ConvergenceTrace:
    """A full solve's iteration history."""

    records: list[IterationRecord] = field(default_factory=list)

    def append(self, rec: IterationRecord) -> None:
        self.records.append(rec)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def total_matvecs(self) -> int:
        return sum(r.matvecs for r in self.records)

    @classmethod
    def fixed(
        cls, iterations: int, n_active: int, deg: int = 20,
        qr_variant: str = "CholeskyQR2",
    ) -> "ConvergenceTrace":
        """A synthetic trace: ``iterations`` filter+QR+RR+residual rounds
        with uniform degree and no locking — the paper's single-iteration
        scaling workloads (Figs. 2, 3a) use exactly this with
        ``iterations=1`` and ``deg=20``."""
        recs = [
            IterationRecord(
                degrees=np.full(n_active, deg, dtype=np.int64),
                locked_before=0,
                new_converged=0,
                qr_variant=qr_variant,
                cond_est=1.0,
                matvecs=n_active * deg,
            )
            for _ in range(iterations)
        ]
        return cls(records=recs)

    def rescale_columns(self, ne_new: int) -> "ConvergenceTrace":
        """Adapt a recorded trace to a different total subspace width.

        The locked fraction of each iteration is preserved, the sorted
        per-column degree profile is resampled by linear interpolation,
        and the locking counts scale proportionally — the trace's *shape*
        is what matters for a phantom replay at a different scale.
        """
        if ne_new < 1:
            raise ValueError("ne_new must be >= 1")
        out = ConvergenceTrace()
        for rec in self.records:
            old = np.sort(np.asarray(rec.degrees, dtype=np.float64))
            n_old = old.shape[0]
            ne_old = rec.locked_before + n_old
            scale = ne_new / ne_old
            locked_new = min(int(round(rec.locked_before * scale)), ne_new - 1)
            width = ne_new - locked_new
            x = np.linspace(0, n_old - 1, width)
            degs = np.interp(x, np.arange(n_old), old)
            degs = (np.ceil(degs / 2) * 2).astype(np.int64)
            degs = np.maximum(degs, 2)
            conv_new = min(int(round(rec.new_converged * scale)), width)
            out.append(
                IterationRecord(
                    degrees=np.sort(degs),
                    locked_before=locked_new,
                    new_converged=conv_new,
                    qr_variant=rec.qr_variant,
                    cond_est=rec.cond_est,
                    matvecs=int(degs.sum()),
                    resd_min=rec.resd_min,
                    res_scale=rec.res_scale,
                )
            )
        return out
