"""Per-rank memory-footprint models (paper Eq. (2) and the v1.2 layout).

The new parallelization scheme stores, per MPI rank (Eq. (2)):

    M_new = N^2/(p q) + 2 N ne / p + 2 N ne / q + ne^2   (elements)

while ChASE v1.2 ("LMS") keeps two *redundant* ``N x ne`` buffers per
rank (the gathered vector block and the gathered ``H C`` block) plus a
comparable cuSOLVER QR workspace, in addition to its share of ``H``:

    M_lms = N^2 / (nodes * gpus) + 3 N ne + ne^2         (elements)

On JUWELS-Booster the LMS build runs 1 rank per node with the local
``H`` block split across the node's 4 GPUs, but the redundant buffers
must fit on *one* device for the (redundant) QR — this is exactly why
the paper's LMS weak-scaling series stops at 144 nodes: at N = 360k,
ne = 3000 (real double) the redundant buffers total ~25.9 GB of the
A100's 40 GB and still fit; the next square point (256 nodes,
N = 480k) needs ~34.6 GB + the H share, beyond the usable capacity
once CUDA context and allocator overheads are accounted for.
"""

from __future__ import annotations

import numpy as np

__all__ = ["chase_new_scheme_bytes", "chase_lms_bytes", "fits_on_device"]


def _work_elem_bytes(work_dtype, dtype) -> float | None:
    """Per-element bytes of the narrow working set, or None when the
    working precision adds no separate footprint."""
    if work_dtype is None or np.dtype(work_dtype) == np.dtype(dtype):
        return None
    return float(np.dtype(work_dtype).itemsize)


def chase_new_scheme_bytes(
    N: int, ne: int, p: int, q: int, dtype=np.float64, work_dtype=None
) -> int:
    """Eq. (2): peak per-rank bytes of the new parallelization scheme.

    ``work_dtype`` (mixed precision, DESIGN.md §5g): a filter working
    dtype narrower than ``dtype`` adds the narrow working set kept
    alive alongside the fp64 state — the cached narrow ``H`` block, the
    demoted input block plus its C-layout ping-pong pair, and the
    B-layout ping-pong pair.  Word widths come from the dtypes, never
    from hard-coded 8/16-byte constants.
    """
    if p <= 0 or q <= 0:
        raise ValueError("grid dimensions must be positive")
    itemsize = np.dtype(dtype).itemsize
    elems = (N * N) / (p * q) + 2 * N * ne / p + 2 * N * ne / q + ne * ne
    total = elems * itemsize
    wsize = _work_elem_bytes(work_dtype, dtype)
    if wsize is not None:
        welems = (N * N) / (p * q) + 3 * N * ne / p + 2 * N * ne / q
        total += welems * wsize
    return int(np.ceil(total))


def chase_lms_bytes(
    N: int, ne: int, nodes: int, gpus_per_node: int = 4, dtype=np.float64,
    work_dtype=None,
) -> int:
    """Per-GPU bytes of the v1.2 (LMS) layout.

    ``H`` is split across the node's GPUs, but the redundant ``N x ne``
    work buffers (gathered vectors, gathered ``H C``) and the QR
    workspace are replicated on each device.  ``work_dtype`` adds the
    mixed-precision filter's narrow ``H`` cache and work buffers (the
    LMS filter runs the same distributed HEMM as the new scheme).
    """
    if nodes <= 0 or gpus_per_node <= 0:
        raise ValueError("node/GPU counts must be positive")
    itemsize = np.dtype(dtype).itemsize
    elems = (N * N) / (nodes * gpus_per_node) + 3 * N * ne + ne * ne
    total = elems * itemsize
    wsize = _work_elem_bytes(work_dtype, dtype)
    if wsize is not None:
        welems = (N * N) / (nodes * gpus_per_node) + 2 * N * ne
        total += welems * wsize
    return int(np.ceil(total))


def fits_on_device(required_bytes: int, device_bytes: int, headroom: float = 0.8) -> bool:
    """True when the footprint fits within ``headroom`` of device memory.

    The default 20% headroom accounts for the CUDA context, cuSOLVER
    scratch allocations and allocator fragmentation that the closed-form
    model does not track.
    """
    if not 0 < headroom <= 1:
        raise ValueError("headroom must be in (0, 1]")
    return required_bytes <= device_bytes * headroom
