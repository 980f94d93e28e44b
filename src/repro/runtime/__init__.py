"""Virtual distributed runtime.

This package simulates the distributed execution environment the paper
runs on (MPI ranks in a 2D grid, one GPU per rank, NCCL or MPI
collectives) inside a single Python process:

* every rank owns **real data** (NumPy blocks) — collectives genuinely
  move and reduce those blocks, so the distributed algorithm is
  numerically exact;
* every local kernel and every collective additionally charges **modeled
  time** (from :mod:`repro.perfmodel`) onto per-rank clocks; collectives
  synchronize their participants, so the final clock reading is a true
  parallel makespan;
* with phantom buffers (:mod:`repro.arrays`) the same code path runs
  metadata-only, enabling paper-scale performance experiments.
"""

from repro.runtime.clock import Clock, CostCategory
from repro.runtime.tracer import Tracer, PhaseBreakdown
from repro.runtime.backend import CommBackend
from repro.runtime.device import LocalKernels
from repro.runtime.rank import RankContext
from repro.runtime.config import ExecutionConfig
from repro.runtime.cluster import VirtualCluster
from repro.runtime.communicator import CollectiveRequest, Communicator
from repro.runtime.transport import (
    TRANSPORTS,
    Transport,
    TransportDeadRankError,
    TransportError,
    TransportParityError,
    TransportTimeoutError,
    assert_transport_parity,
    create_transport,
    parse_transport,
    transport_parity_report,
)
from repro.runtime.faults import (
    CollectiveError,
    CorruptionError,
    ExecutorFaultError,
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RankDeathError,
    RecoveryExhaustedError,
)
from repro.runtime.grid import Grid2D, squarest_grid
from repro.runtime.timeline import Timeline, TimelineEvent

__all__ = [
    "Clock",
    "CostCategory",
    "Tracer",
    "PhaseBreakdown",
    "CommBackend",
    "LocalKernels",
    "RankContext",
    "VirtualCluster",
    "ExecutionConfig",
    "Communicator",
    "CollectiveRequest",
    "Grid2D",
    "squarest_grid",
    "TRANSPORTS",
    "Transport",
    "TransportError",
    "TransportDeadRankError",
    "TransportTimeoutError",
    "TransportParityError",
    "create_transport",
    "parse_transport",
    "assert_transport_parity",
    "transport_parity_report",
    "Timeline",
    "TimelineEvent",
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "FaultError",
    "CollectiveError",
    "RankDeathError",
    "CorruptionError",
    "ExecutorFaultError",
    "RecoveryExhaustedError",
]
