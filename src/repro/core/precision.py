"""Mixed-precision policy for the Chebyshev filter (DESIGN.md §5g/§5j).

The dominant cost of ChASE is the filter's HEMM; halving the word size
halves both its flops and the allreduce bytes behind it (and modern
GPUs run half-precision GEMMs another 2x faster still).  The filter is
also the *forgiving* phase: it only has to steer the subspace, while
QR / Rayleigh-Ritz / residuals — which certify the answer — always run
in fp64.  This module decides, once per subspace iteration, which tier
of the precision ladder

    fp16-or-bf16  ->  fp32  ->  fp64

the filter may run on.  The ladder is **monotone**: the policy starts
on the narrowest tier its mode allows and only ever climbs; it never
demotes.

The decision reuses the cost-free condition estimate of Algorithm 5
(``repro.core.condest.estimate_condition``) — the same signal that
selects CholeskyQR variants.  The bound predicts the conditioning of
the *filtered* block before the filter runs; when it exceeds what a
tier's epsilon can represent, narrow filtering would collapse nearly
dependent columns, so the effective tier climbs (non-sticky — the
estimate can shrink again as converged columns lock out).  Two residual
signals drive the *sticky* promotions:

* **accuracy floor** — filtering at a tier with epsilon ``eps_t``
  cannot push residuals below O(eps_t * ||H||).  Once the smallest
  active residual approaches ``floor_factor * eps_t * scale`` the
  policy promotes past that tier (sticky), skipping any tier whose
  floor is already reached: every later iteration would be refining
  digits the narrow arithmetic does not carry.  The floors are
  deliberately **tolerance-independent**, which makes promotion
  monotone: tightening ``tol`` never converts a promoted iteration
  back to a narrow one, it only appends more iterations at the top.
* **stagnation** — if the smallest active residual fails to improve by
  ``stall_ratio`` between consecutive iterations while filtering on a
  narrow tier, rounding noise is suspected of masking convergence and
  the policy promotes one tier (sticky).

Half tiers are *emulated*: NumPy has no native bf16 (and no complex
fp16), so fp16/bf16 iterates are stored in fp32/complex64 with values
rounded to the half-precision lattice (:func:`quantize_half_inplace`)
while the cost model charges genuine 2-byte word widths through the
tier token.  The rounding carries the half tier's full truncation
error, so convergence behaviour is faithful; the charges model the
actual hardware, not the emulation.

``PrecisionPolicy`` is purely local arithmetic on scalars the solver
already has — it charges no modeled time and moves no data.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "PrecisionPolicy",
    "WorkPrecision",
    "narrow_dtype",
    "resolve_work_dtype",
    "resolve_work_precision",
    "quantize_half_inplace",
    "TIER_EPS",
    "FP32_EPS",
    "BF16_EPS",
    "FP16_EPS",
    "DEFAULT_COND_LIMIT",
    "DEFAULT_FLOOR_FACTOR",
]

#: Machine epsilon of IEEE single precision.
FP32_EPS = float(np.finfo(np.float32).eps)

#: Machine epsilon of IEEE half precision (10 explicit mantissa bits).
FP16_EPS = float(np.finfo(np.float16).eps)

#: Machine epsilon of bfloat16 (7 explicit mantissa bits).
BF16_EPS = 2.0 ** -7

#: Epsilon of each narrow tier of the ladder (fp64 has no entry — it is
#: the top of the ladder and never gates).
TIER_EPS = {
    "fp16": FP16_EPS,
    "bf16": BF16_EPS,
    "fp32": FP32_EPS,
}

#: Default condition-estimate ceiling for fp32 filtering.  fp32 can
#: resolve column bases up to kappa ~ 1/eps32 ~ 8.4e6; one order of
#: magnitude of safety margin keeps CholeskyQR on the filtered block
#: out of its shifted regime (see ``perfmodel/calibrate.py`` notes).
#: Half tiers scale this ceiling by ``eps32 / eps_t`` — the same safety
#: margin relative to each tier's representable conditioning.
DEFAULT_COND_LIMIT = 1e6

#: Residual floor multiplier: promote past tier ``t`` once the min
#: active residual is within ``floor_factor * eps_t`` of the spectral
#: scale.
DEFAULT_FLOOR_FACTOR = 50.0

#: Ladder (narrowest first) for each policy mode.  ``"auto"`` starts at
#: bf16: its wide exponent range makes it the safe half-tier default
#: for matrices of unknown scale (fp16 overflows beyond ~65k).
_LADDERS = {
    "fp64": ("fp64",),
    "fp32": ("fp32", "fp64"),
    "bf16": ("bf16", "fp32", "fp64"),
    "fp16": ("fp16", "fp32", "fp64"),
    "auto": ("bf16", "fp32", "fp64"),
}


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


class WorkPrecision(NamedTuple):
    """A resolved narrow working precision for one filter/QR pass.

    ``dtype`` is the *storage* dtype the numerics run in;  ``charge``
    is the cost-model token the kernels and collectives are charged at
    (``None`` — charge at the storage dtype).  They differ only for the
    emulated half tiers: fp16/bf16 store fp32/complex64 values rounded
    to the half lattice while charging 2-byte words.
    """

    token: str
    dtype: np.dtype
    charge: str | None

    @property
    def is_half(self) -> bool:
        return self.charge is not None


def resolve_work_precision(base_dtype, token: str) -> WorkPrecision | None:
    """Map a policy decision token to a working precision descriptor.

    ``"fp64"`` returns ``None`` — the pass runs natively on the seed
    path, byte for byte.  ``"fp32"`` stores (and charges) the
    single-precision counterpart of ``base_dtype``.  ``"fp16"`` /
    ``"bf16"`` store the single-precision counterpart quantized to the
    half lattice and charge the 2-byte tier token.
    """
    if token == "fp64":
        return None
    if token == "fp32":
        return WorkPrecision("fp32", narrow_dtype(base_dtype), None)
    if token in ("fp16", "bf16"):
        return WorkPrecision(token, narrow_dtype(base_dtype), token)
    raise ValueError(f"unknown precision token {token!r}")


def resolve_work_dtype(base_dtype, token: str):
    """Map a policy decision token to a filter working dtype.

    ``"fp64"`` returns ``None`` (native seed path); ``"fp32"`` returns
    the plain narrow ``np.dtype``; the half tiers return the full
    :class:`WorkPrecision` descriptor (storage + charge token) —
    ``chebyshev_filter`` accepts either form.
    """
    wp = resolve_work_precision(base_dtype, token)
    if wp is None:
        return None
    return wp.dtype if wp.charge is None else wp


def _fp16_lattice(x: np.ndarray) -> np.ndarray:
    # round-trip through IEEE half: 10 mantissa bits + half exponent
    # range (overflow saturates to inf, exactly as the hardware would)
    return x.astype(np.float16).astype(x.dtype)


def _bf16_lattice(x: np.ndarray) -> np.ndarray:
    f32 = x.astype(np.float32)
    bits = f32.view(np.uint32)
    bits &= np.uint32(0xFFFF0000)  # truncate to bfloat16 (RTZ)
    return f32.astype(x.dtype)


def quantize_half_inplace(arr: np.ndarray, token: str) -> np.ndarray:
    """Round ``arr`` (in place) to the fp16/bf16 lattice; returns it.

    Complex arrays are quantized per real/imaginary part — a complex
    half scalar is two half words, matching both the wire format and
    the flop model.  This is the emulation primitive behind the half
    tiers: storage stays fp32-wide, values carry half precision.
    """
    if token == "fp16":
        fn = _fp16_lattice
    elif token == "bf16":
        fn = _bf16_lattice
    else:
        raise ValueError(f"not a half-precision token: {token!r}")
    if arr.dtype.kind == "c":
        arr.real = fn(arr.real)
        arr.imag = fn(arr.imag)
    else:
        arr[...] = fn(arr)
    return arr


class PrecisionPolicy:
    """Per-iteration precision-tier decision for the Chebyshev filter.

    Call :meth:`decide` exactly once per subspace iteration, *before*
    the filter, with the condition estimate of Algorithm 5 and the
    residuals of the previous iteration (``None`` on the first).  The
    returned token (``"fp16"``/``"bf16"``/``"fp32"``/``"fp64"``) is
    appended to :attr:`log`.

    The sticky state is the ladder index :attr:`tier`; promotions only
    ever increase it (monotone).  :attr:`promotions` records every
    sticky climb as ``(from_tier, to_tier, reason)``;
    :attr:`promote_reason` keeps the reason of the climb that first
    reached fp64 (the historical binary-policy field).
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
        if self.mode not in _LADDERS:
            raise ValueError(f"unknown precision mode {self.mode!r}")
        self.cond_limit = float(cond_limit)
        self.floor_factor = float(floor_factor)
        self.stall_ratio = float(stall_ratio)
        self.log: list[str] = []
        self.promoted = False          # sticky fp64 (top of the ladder)
        self.promote_reason: str | None = None
        self.promotions: list[tuple[str, str, str]] = []
        self._tiers = _LADDERS[self.mode]
        self._tier = 0                 # sticky ladder index, never decreases
        self._prev_min_resd: float | None = None
        self._scale = 1.0

    @property
    def enabled(self) -> bool:
        return self.mode != "fp64"

    @property
    def tier(self) -> str:
        """The current sticky tier (before any per-iteration cond gate)."""
        return self._tiers[self._tier]

    def _floor(self, tier: str) -> float:
        return self.floor_factor * TIER_EPS[tier] * self._scale

    def _tier_cond_limit(self, tier: str) -> float:
        if tier == "fp64":
            return float("inf")
        # same safety margin relative to each tier's representable
        # conditioning: limit_t = limit_fp32 * eps32 / eps_t
        return self.cond_limit * FP32_EPS / TIER_EPS[tier]

    def _promote(self, reason: str) -> None:
        src = self._tiers[self._tier]
        self._tier += 1
        dst = self._tiers[self._tier]
        self.promotions.append((src, dst, reason))
        if dst == "fp64":
            self.promoted = True
            if self.promote_reason is None:
                self.promote_reason = reason

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
        setting the absolute per-tier accuracy floors.
        """
        token = self._decide(cond_est=cond_est, resd=resd, scale=scale)
        self.log.append(token)
        return token

    def _decide(self, *, cond_est, resd, scale) -> str:
        if self.mode == "fp64":
            return "fp64"
        self._scale = max(float(scale), 0.0)
        top = len(self._tiers) - 1

        rmin = None
        if resd is not None:
            r = np.asarray(resd, dtype=np.float64)
            if r.size:
                rmin = float(r.min())

        if self._tier < top and rmin is not None:
            climbed = False
            # climb past every tier whose accuracy floor the residuals
            # have already reached (a deep first improvement can skip
            # tiers; the prefix stays monotone)
            while (self._tier < top
                    and rmin <= self._floor(self._tiers[self._tier])):
                self._promote("residual floor")
                climbed = True
            if (not climbed
                    and self._prev_min_resd is not None
                    and self.log and self.log[-1] != "fp64"
                    and rmin > self.stall_ratio * self._prev_min_resd):
                # the previous narrow-filtered iteration failed to
                # improve the best active residual: rounding noise is
                # suspected
                self._promote("residual stagnation")
        self._prev_min_resd = rmin

        # per-iteration (non-sticky) conditioning gate, evaluated from
        # the sticky tier upward: the estimate can shrink again as
        # converged columns lock out, dropping back to the sticky tier
        idx = self._tier
        while idx < top and float(cond_est) > self._tier_cond_limit(
                self._tiers[idx]):
            idx += 1
        return self._tiers[idx]
