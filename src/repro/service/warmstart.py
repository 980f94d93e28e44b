"""Warm-start cache: converged subspaces reused across sequence steps.

ChASE's founding use case is *sequences* of correlated eigenproblems
(paper Sec. 1; the sequences paper arXiv:1805.10121 quantifies the
benefit): step ``k``'s converged subspace, spectral bounds and degree
plan are an excellent start for step ``k+1``.  :class:`WarmStartCache`
keys that state on ``sequence_id``:

* **subspace** — the full ``N x ne`` final search block (locked columns
  first); reused verbatim (``refresh_extras=False``) or topped up with
  fresh random extras through :func:`starting_basis`;
* **bounds** — the Lanczos spectral estimates, letting the next step
  skip its Lanczos phase entirely (``ChaseSolver.solve(bounds=...)``);
* **degrees** — the final per-column Chebyshev degree plan, distilled
  into an initial-degree hint (never *below* the configured ``deg`` —
  a warm start is never less aggressive than a cold one).

Safety: every entry carries a CRC of its payload bytes.  A lookup whose
dimensions, dtype or checksum do not match is a **typed miss** (the
entry is dropped and the solve proceeds cold) — a corrupted cache can
cost iterations but can never produce a wrong answer.  Capacity is a
byte budget with LRU eviction.

The basis is stored at the dtype the solve returned it in — a
mixed-precision solve (DESIGN.md §5g) still converges to and returns an
fp64 basis — and a lookup at any other dtype is a ``DTYPE`` miss.
"""

from __future__ import annotations

import enum
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.config import ChaseConfig
from repro.core.lanczos import SpectralBounds

__all__ = ["WarmStartMiss", "CacheEntry", "WarmStartCache", "degree_hint",
           "starting_basis"]


class WarmStartMiss(enum.Enum):
    """Why a warm-start lookup returned nothing (typed, never silent)."""

    ABSENT = "absent"          # no entry for this sequence_id
    DIMENSION = "dimension"    # cached N or ne does not match the job
    DTYPE = "dtype"            # cached dtype does not match the job
    CORRUPT = "corrupt"        # payload checksum mismatch


@dataclass
class CacheEntry:
    """Cached state of one sequence's most recent converged step."""

    sequence_id: str
    step: int
    basis: np.ndarray            # full N x ne subspace
    bounds: SpectralBounds
    degrees: np.ndarray | None   # final per-column degree plan
    iterations: int              # iterations the producing step took
    cold_iterations: int         # iterations the sequence's cold anchor took
    checksum: int = 0

    @property
    def nbytes(self) -> int:
        n = self.basis.nbytes
        if self.degrees is not None:
            n += self.degrees.nbytes
        return n

    def _crc(self) -> int:
        crc = zlib.crc32(np.ascontiguousarray(self.basis).tobytes())
        if self.degrees is not None:
            crc = zlib.crc32(
                np.ascontiguousarray(self.degrees).tobytes(), crc
            )
        crc = zlib.crc32(
            np.array(
                [self.bounds.b_sup, self.bounds.mu1, self.bounds.mu_ne],
                dtype=np.float64,
            ).tobytes(),
            crc,
        )
        return crc

    def seal(self) -> "CacheEntry":
        self.checksum = self._crc()
        return self

    @property
    def intact(self) -> bool:
        return self._crc() == self.checksum


def degree_hint(degrees: np.ndarray, deg: int, max_deg: int) -> int:
    """Initial-degree hint from a previous step's final degree plan.

    The even-rounded median of the plan, clamped to ``[deg, max_deg]``:
    reusing the plan may make the first warm iteration *more* aggressive
    (the previous step needed high degrees) but never less aggressive
    than the configured cold start — so a warm start cannot lose
    iterations to a timid filter.
    """
    med = float(np.median(np.asarray(degrees, dtype=np.float64)))
    hint = int(np.ceil(med / 2.0) * 2)
    return max(deg, min(hint, max(deg, max_deg)))


def starting_basis(
    basis: np.ndarray | None,
    N: int,
    cfg: ChaseConfig,
    dtype,
    rng: np.random.Generator,
    refresh_extras: bool = True,
) -> np.ndarray | None:
    """Assemble the ``N x ne`` starting block of a warm-started solve.

    ``basis`` is the previous step's converged subspace (at least
    ``nev`` columns, converged directions first).  With
    ``refresh_extras=False`` and a full ``ne``-wide basis the previous
    subspace is reused *exactly* (bit-identical columns — no random
    draw, no re-orthonormalization); otherwise the ``nev`` leading
    columns are kept and the ``nex`` buffer columns are replaced by a
    fresh orthonormalized random block drawn from ``rng``.

    Returns ``None`` when ``basis`` is ``None`` (cold start).
    """
    if basis is None:
        return None
    if basis.shape[0] != N:
        raise ValueError(
            f"warm-start basis has dimension {basis.shape[0]}, problem has {N}"
        )
    if basis.shape[1] < cfg.nev:
        raise ValueError(
            f"warm-start basis has {basis.shape[1]} columns, need >= {cfg.nev}"
        )
    if not refresh_extras and basis.shape[1] == cfg.ne:
        return basis
    extras = rng.standard_normal((N, cfg.nex))
    if np.dtype(dtype).kind == "c":
        extras = extras + 1j * rng.standard_normal((N, cfg.nex))
    extras = np.linalg.qr(extras.astype(dtype))[0]
    return np.concatenate([basis[:, : cfg.nev], extras], axis=1)


class WarmStartCache:
    """LRU byte-budget cache of :class:`CacheEntry` by ``sequence_id``."""

    def __init__(self, max_bytes: int = 64 << 20) -> None:
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------- queries
    @property
    def nbytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sequence_id: str) -> bool:
        return sequence_id in self._entries

    def get(
        self, sequence_id: str, N: int, ne: int, dtype
    ) -> tuple[CacheEntry | None, WarmStartMiss | None]:
        """Look up the entry for ``sequence_id`` against the job's shape.

        Returns ``(entry, None)`` on a hit (refreshing LRU recency) or
        ``(None, miss)`` with the typed miss reason.  Mismatched and
        corrupt entries are evicted — they can never satisfy a future
        lookup of this sequence either.
        """
        entry = self._entries.get(sequence_id)
        if entry is None:
            self.misses += 1
            return None, WarmStartMiss.ABSENT
        if entry.basis.shape != (N, ne):
            self._entries.pop(sequence_id, None)
            self.misses += 1
            return None, WarmStartMiss.DIMENSION
        if entry.basis.dtype != np.dtype(dtype):
            self._entries.pop(sequence_id, None)
            self.misses += 1
            return None, WarmStartMiss.DTYPE
        if not entry.intact:
            self._entries.pop(sequence_id, None)
            self.misses += 1
            return None, WarmStartMiss.CORRUPT
        self._entries.move_to_end(sequence_id)
        self.hits += 1
        return entry, None

    # ------------------------------------------------------------- updates
    def put(
        self,
        sequence_id: str,
        *,
        step: int,
        basis: np.ndarray,
        bounds: SpectralBounds,
        degrees: np.ndarray | None = None,
        iterations: int = 0,
        cold_iterations: int | None = None,
    ) -> bool:
        """Store (replace) the sequence's entry; returns False when the
        payload alone exceeds the byte budget (nothing is stored — the
        budget is a hard cap, not a goal).
        """
        entry = CacheEntry(
            sequence_id=sequence_id,
            step=int(step),
            basis=np.ascontiguousarray(basis),
            bounds=bounds,
            degrees=None if degrees is None
            else np.ascontiguousarray(degrees),
            iterations=int(iterations),
            cold_iterations=int(
                iterations if cold_iterations is None else cold_iterations
            ),
        ).seal()
        if entry.nbytes > self.max_bytes:
            return False
        self._entries.pop(sequence_id, None)
        self._entries[sequence_id] = entry
        self._evict_to_budget()
        return True

    def stats(self) -> dict:
        """Counters snapshot: entries, bytes held, hits/misses/evictions."""
        return {
            "entries": len(self._entries),
            "nbytes": self.nbytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def _evict_to_budget(self) -> None:
        while self.nbytes > self.max_bytes and len(self._entries) > 1:
            self._entries.popitem(last=False)
            self.evictions += 1
        # a lone over-budget entry cannot exist: put() rejects payloads
        # larger than the budget before storing them

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WarmStartCache({len(self)} entries, "
            f"{self.nbytes}/{self.max_bytes} B, "
            f"{self.hits} hits / {self.misses} misses)"
        )
