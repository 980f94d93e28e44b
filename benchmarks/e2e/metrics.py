"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` lists exactly ``END_TO_END`` (with bounds) and
``PER_LAYER``; ``tests/test_contract.py`` keeps the two in step.  Layer
prefixes are the ``src/repro/`` package names.  A per-layer metric that
is not defined on a workload reads 0 there (README has the map).
"""

from __future__ import annotations

LOWER, HIGHER = "lower", "higher"

#: (name, unit, better, bound) — what a user of the system sees.
#: Bounds follow the spread (quartile distance over median) of ten runs of
#: one commit on ten seeds, six sets on the 2-vCPU host the benchmark was
#: defined on (README.md has the numbers).  Time spreads are 2-8% on a quiet
#: host, but the host slows by up to 2x for minutes at a time and sets
#: measured across such an episode spread by 15-18% on bit-identical work;
#: the driver refuses a benchmark whose spread exceeds its bound, and 0.25
#: is the widest allowed.  Memory spreads by up to 6%.
END_TO_END = (
    ("wall_s", "s", LOWER, 0.25),
    ("setup_s", "s", LOWER, 0.25),
    ("peak_rss_mib", "MiB", LOWER, 0.15),
)

#: the harness's own report also carries these per workload; the driver
#: cannot bound them (it spreads every end-to-end metric over ten seeds on
#: every workload: the modeled makespan moves with the seed's MatVecs and
#: is constant on ``phantom_strong``; no direct solver exists for
#: ``phantom_strong`` or ``service_mix``), so ``--compare`` judges them
#: and BENCHMARK.json lists them per layer.  Bound 0: held to equality.
REPORT_ONLY = (
    ("time_vs_direct", "ratio", LOWER, 0.25),
    ("modeled_makespan_s", "s_model", LOWER, 0),
)


def _timed(base: str) -> tuple:
    """The ``.calls`` / ``.time_s`` pair every span name reports."""
    return ((f"{base}.calls", "count", LOWER), (f"{base}.time_s", "s", LOWER))


PER_LAYER = (
    ("trace.overhead_frac", "ratio", LOWER),
    ("time_vs_direct", "ratio", LOWER),
    ("modeled_makespan_s", "s_model", LOWER),
    # matrices
    ("matrices.generate.time_s", "s", LOWER),
    # core: solver phases
    *_timed("core.lanczos"), *_timed("core.filter"), *_timed("core.qr"),
    *_timed("core.rr"), *_timed("core.resid"),
    ("core.driver.self_s", "s", LOWER),
    ("core.iterations", "count", LOWER),
    ("core.matvecs", "count", LOWER),
    ("core.filter.matvecs", "count", LOWER),
    ("core.qr.cholqr1_calls", "count", HIGHER),
    ("core.qr.cholqr2_calls", "count", LOWER),
    ("core.qr.shifted_calls", "count", LOWER),
    ("core.qr.breakdowns", "count", LOWER),
    ("core.precision.promotions", "count", LOWER),
    ("core.residual_max", "abs", LOWER),
    ("core.oracle_err", "abs", LOWER),
    ("core.overhead_frac", "ratio", LOWER),
    # distributed
    *_timed("distributed.hemm"),
    ("distributed.hemm.self_s", "s", LOWER),
    ("distributed.hemm.flops", "flop", LOWER),
    ("distributed.hemm.gflops", "Gflop/s", HIGHER),
    ("distributed.hemm.roofline_frac", "ratio", HIGHER),
    *_timed("distributed.hemm.numeric"),
    *_timed("distributed.redistribute"),
    ("distributed.from_dense.time_s", "s", LOWER),
    # runtime
    *_timed("runtime.device.gemm"), *_timed("runtime.device.syrk"),
    *_timed("runtime.device.trsm"), *_timed("runtime.device.potrf"),
    *_timed("runtime.device.eigh"), *_timed("runtime.device.axpby"),
    *_timed("runtime.device.cast"),
    ("runtime.device.gemm_ref_gflops", "Gflop/s", HIGHER),
    *_timed("runtime.comm.allreduce"), *_timed("runtime.comm.bcast"),
    *_timed("runtime.comm.iallreduce"), *_timed("runtime.comm.allgather"),
    *_timed("runtime.comm.stage_all"),
    ("runtime.comm.messages", "count", LOWER),
    ("runtime.comm.bytes", "B", LOWER),
    ("runtime.comm.bytes_inter", "B", LOWER),
    ("runtime.transport.wire_bytes", "B", LOWER),
    ("runtime.transport.close_s", "s", LOWER),
    ("runtime.transport.mp_vs_orchestrated", "ratio", LOWER),
    # perfmodel
    *_timed("perfmodel.collective_cost"),
    ("perfmodel.autotune.time_s", "s", LOWER),
    ("perfmodel.autotune.candidates", "count", LOWER),
    ("model.lanczos_s", "s_model", LOWER),
    ("model.filter_s", "s_model", LOWER),
    ("model.qr_s", "s_model", LOWER),
    ("model.rr_s", "s_model", LOWER),
    ("model.resid_s", "s_model", LOWER),
    ("model.comm_exposed_s", "s_model", LOWER),
    ("model.comm_hidden_s", "s_model", HIGHER),
    ("model.makespan_std_s", "s_model", LOWER),
    ("model.nccl_over_std", "ratio", LOWER),
    # arrays
    ("arrays.phantom.kernel_charges", "count", LOWER),
    # service
    ("service.jobs", "count", HIGHER),
    ("service.jobs_per_s", "1/s", HIGHER),
    ("service.warm_hits", "count", HIGHER),
    ("service.warm_hit_ratio", "ratio", HIGHER),
    ("service.filter_matvecs", "count", LOWER),
    ("service.scheduler.self_s", "s", LOWER),
    ("service.queue_wait_mean_s", "s_model", LOWER),
    # baselines (reference lines)
    ("baseline.eigvalsh.time_s", "s", LOWER),
    ("baseline.serial.time_s", "s", LOWER),
    ("baseline.gemm_bound_s", "s", LOWER),
    ("baseline.uniform.time_s", "s", LOWER),
    ("baseline.uniform.iterations", "count", LOWER),
    ("baseline.uniform.oracle_err", "abs", LOWER),
)

#: per-layer values that are counts or modeled numbers: they must repeat
#: bit for bit between repetitions of one run and between runs of one
#: commit at one seed
EXACT = frozenset(
    name for name, unit, _ in PER_LAYER
    if unit in ("count", "flop", "B", "s_model")
) | {"service.warm_hit_ratio", "model.nccl_over_std"}

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *REPORT_ONLY, *PER_LAYER)}
