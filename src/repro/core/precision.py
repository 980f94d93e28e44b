"""Mixed-precision policy for the Chebyshev filter (DESIGN.md §5g).

The dominant cost of ChASE is the filter's HEMM; halving the word size
halves both its flops and the allreduce bytes behind it.  The filter is
also the *forgiving* phase: it only has to steer the subspace, while
QR / Rayleigh-Ritz / residuals — which certify the answer — always run
in fp64.  This module decides, once per subspace iteration, whether the
filter may run in fp32 — the one narrow word width the host BLAS runs
natively.  Once the policy has promoted to fp64 it never goes back.

The decision reuses the cost-free condition estimate of Algorithm 5
(``repro.core.condest.estimate_condition``) — the same signal that
selects CholeskyQR variants.  The bound predicts the conditioning of
the *filtered* block before the filter runs; when it exceeds what fp32
can represent, single-precision filtering would collapse nearly
dependent columns, so that iteration runs in fp64 (non-sticky — the
estimate can shrink again as converged columns lock out).  The estimate
grows geometrically with the filter degree: at the default ``deg=20``
the gate stays shut on every benchmark shape, and fp32 is admitted at
low degrees only (measured table in DESIGN.md §5g).  Two residual
signals drive the *sticky* promotion:

* **accuracy floor** — fp32 filtering cannot push residuals below
  O(eps32 * ||H||).  Once the smallest active residual approaches
  ``floor_factor * eps32 * scale`` the policy promotes: every later
  iteration would be refining digits fp32 arithmetic does not carry.
  The floor is deliberately **tolerance-independent**, which makes
  promotion monotone: tightening ``tol`` never converts an fp64
  iteration back to fp32, it only appends more fp64 iterations.
* **stagnation** — if the smallest active residual fails to improve by
  ``stall_ratio`` between consecutive iterations while filtering in
  fp32, rounding noise is suspected of masking convergence and the
  policy promotes.

``PrecisionPolicy`` is purely local arithmetic on scalars the solver
already has — it charges no modeled time and moves no data.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.config import PRECISION_MODES

__all__ = [
    "PrecisionPolicy",
    "narrow_dtype",
    "resolve_work_dtype",
    "FP32_EPS",
    "DEFAULT_COND_LIMIT",
    "DEFAULT_FLOOR_FACTOR",
]

#: Machine epsilon of IEEE single precision.
FP32_EPS = float(np.finfo(np.float32).eps)

#: Default condition-estimate ceiling for fp32 filtering.  fp32 can
#: resolve column bases up to kappa ~ 1/eps32 ~ 8.4e6; one order of
#: magnitude of safety margin keeps CholeskyQR on the filtered block
#: out of its shifted regime (see ``perfmodel/calibrate.py`` notes).
DEFAULT_COND_LIMIT = 1e6

#: Residual floor multiplier: promote once the min active residual is
#: within ``floor_factor * eps32`` of the spectral scale.
DEFAULT_FLOOR_FACTOR = 50.0


# single-precision counterpart of each double-precision working dtype
_NARROW = {
    np.dtype(np.float64): np.dtype(np.float32),
    np.dtype(np.complex128): np.dtype(np.complex64),
}


def narrow_dtype(dtype) -> np.dtype:
    """The single-precision counterpart of ``dtype`` (identity if it has
    none — fp32 inputs stay fp32)."""
    dt = np.dtype(dtype)
    return _NARROW.get(dt, dt)


def resolve_work_dtype(base_dtype, token: str) -> np.dtype | None:
    """Map a policy decision token to a filter working dtype.

    ``"fp64"`` returns ``None`` — the filter runs natively on the seed
    path, byte for byte.  ``"fp32"`` returns the single-precision
    counterpart of ``base_dtype`` (``float32`` / ``complex64``).
    """
    if token == "fp64":
        return None
    if token == "fp32":
        return narrow_dtype(base_dtype)
    raise ValueError(f"unknown precision token {token!r}")


class PrecisionPolicy:
    """Per-iteration fp32/fp64 decision for the Chebyshev filter.

    Call :meth:`decide` exactly once per subspace iteration, *before*
    the filter, with the condition estimate of Algorithm 5 and the
    residuals of the previous iteration (``None`` on the first).  The
    returned token (``"fp32"``/``"fp64"``) is appended to :attr:`log`.

    :attr:`promotions` records the sticky climb as
    ``(from_token, to_token, reason)`` — at most one entry — and
    :attr:`promote_reason` keeps its reason.
    """

    def __init__(
        self,
        mode: str = "fp64",
        *,
        cond_limit: float = DEFAULT_COND_LIMIT,
        floor_factor: float = DEFAULT_FLOOR_FACTOR,
        stall_ratio: float = 0.9,
    ) -> None:
        self.mode = str(mode)
        if self.mode not in PRECISION_MODES:
            raise ValueError(
                f"unknown precision mode {self.mode!r}; "
                f"expected one of {PRECISION_MODES}")
        self.cond_limit = float(cond_limit)
        self.floor_factor = float(floor_factor)
        self.stall_ratio = float(stall_ratio)
        self.log: list[str] = []
        self.promoted = False          # sticky fp64 fallback
        self.promote_reason: str | None = None
        self.promotions: list[tuple[str, str, str]] = []
        self._prev_min_resd: float | None = None

    def _promote(self, reason: str) -> None:
        self.promoted = True
        self.promote_reason = reason
        self.promotions.append(("fp32", "fp64", reason))

    def decide(
        self,
        *,
        cond_est: float,
        resd=None,
        scale: float = 1.0,
    ) -> str:
        """Precision token for the coming filter application.

        ``cond_est`` — filtered-block condition estimate (Algorithm 5);
        ``resd`` — residual norms of the still-active columns from the
        previous iteration, or ``None`` when not yet available (first
        iteration, phantom replays); ``scale`` — spectral scale of
        ``H`` (an upper-bound magnitude, e.g. ``max(|mu_1|, |b_sup|)``)
        setting the absolute fp32 accuracy floor.
        """
        token = self._decide(cond_est=cond_est, resd=resd, scale=scale)
        self.log.append(token)
        return token

    def _decide(self, *, cond_est, resd, scale) -> str:
        if self.mode != "fp32":
            return "fp64"

        rmin = None
        if resd is not None:
            r = np.asarray(resd, dtype=np.float64)
            if r.size:
                rmin = float(r.min())

        if not self.promoted and rmin is not None:
            floor = self.floor_factor * FP32_EPS * max(float(scale), 0.0)
            if rmin <= floor:
                self._promote("residual floor")
            elif (self._prev_min_resd is not None
                    and self.log and self.log[-1] == "fp32"
                    and rmin > self.stall_ratio * self._prev_min_resd):
                # the previous fp32-filtered iteration failed to improve
                # the best active residual: rounding noise is suspected
                self._promote("residual stagnation")
        self._prev_min_resd = rmin

        if self.promoted:
            return "fp64"
        # per-iteration (non-sticky) conditioning gate: the estimate can
        # shrink again as converged columns lock out
        if float(cond_est) > self.cond_limit:
            return "fp64"
        return "fp32"
