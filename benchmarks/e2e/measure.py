"""Measure one workload in this process: repetitions, checks, metrics.

A run is a closed loop with one operation in flight: a discarded warm-up
repetition, then timed repetitions (full set-up, then the operation)
until ``seconds`` have been measured and at least ``min_reps`` are in.
With ``trace`` on, every second repetition runs with the span wrappers
bound; the untraced ones in the same run give the base that
``trace.overhead_frac`` is taken against (best traced over best
untraced: with two or three samples a side, the minima are what a noisy
host leaves comparable).  End-to-end numbers only ever come from
untraced repetitions; they are medians over the solver's random starts
(see ``Measurement.run``).
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from repro.perfmodel import gemm_flops

from benchmarks.e2e import metrics
from benchmarks.e2e.instrument import PHASES, SOLVE, instrumented
from benchmarks.e2e.spans import (
    SpanRecorder, closure_problems, residual_self, summarize)
from benchmarks.e2e.workloads import OpRecord

#: the layers must sum to the end-to-end figure within this share
CLOSURE_TOL = 0.02
#: set-up samples wanted per run, and the time extra set-ups may take
SETUP_SAMPLES, SETUP_TOPUP_S = 7, 1.0
OPERATION = "workload.operation"


@dataclass
class Rep:
    """One repetition: set-up, then the operation."""

    traced: bool
    start: int = 0      # which random start of the solver (see ``run``)
    setup_s: float = 0.0
    wall_s: float = 0.0
    ops: list = field(default_factory=list)
    layer: dict | None = None
    problems: list = field(default_factory=list)
    spans: list | None = None


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of a sample."""
    n = len(values)
    if n == 0:      # every repetition failed before it had a time
        return {"value": 0.0, "n": 0}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": n, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def layer_from_spans(spans: list, counters: dict) -> tuple[dict, list[str]]:
    """Per-layer times and counts of one traced repetition, and the
    reasons (if any) the layers fail to sum to the end-to-end figure."""
    stats = summarize(spans)
    out: dict = {}
    span_names = {name[: -len(".calls")] for name, *_ in metrics.PER_LAYER
                  if name.endswith(".calls")}
    for base in span_names:
        st = stats.get(base)
        out[f"{base}.calls"] = float(st.calls) if st else 0.0
        out[f"{base}.time_s"] = st.time_s if st else 0.0

    def time_of(name: str) -> float:
        return stats[name].time_s if name in stats else 0.0

    out["distributed.hemm.self_s"] = (
        stats["distributed.hemm"].self_s if "distributed.hemm" in stats else 0.0)
    out["matrices.generate.time_s"] = time_of("matrices.generate")
    out["distributed.from_dense.time_s"] = time_of("distributed.from_dense")
    out["runtime.transport.close_s"] = time_of("runtime.transport.close")
    out["perfmodel.autotune.time_s"] = time_of("perfmodel.autotune")
    out["core.driver.self_s"] = residual_self(spans, SOLVE, PHASES)
    out["service.scheduler.self_s"] = (
        time_of("service.run") - time_of(SOLVE) if "service.run" in stats else 0.0)
    for key in ("distributed.hemm.flops", "arrays.phantom.kernel_charges",
                "core.qr.breakdowns", "perfmodel.autotune.candidates"):
        out[key] = float(counters.get(key, 0.0))

    problems = closure_problems(spans, stats, CLOSURE_TOL)
    solve_s = time_of(SOLVE)
    parts = sum(time_of(p) for p in PHASES) + out["core.driver.self_s"]
    if abs(parts - solve_s) > CLOSURE_TOL * max(solve_s, 1e-9):
        problems.append(
            f"solver phases + driver self = {parts:.6f}s, "
            f"solve spans = {solve_s:.6f}s")
    out["_solve_s"] = solve_s
    return out, problems


@contextlib.contextmanager
def _no_gc():
    """A timed region without the cyclic collector: when a collection
    falls is chance, and on the Python-bound workloads it was most of the
    difference between identical repetitions."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def gemm_ref_gflops(n: int, ne: int, dtype, repeats: int = 3) -> float:
    """Achieved rate of one ``n x n @ n x ne`` GEMM, best of ``repeats``."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((n, n)).astype(dtype)
    B = rng.standard_normal((n, ne)).astype(dtype)
    out = np.empty((n, ne), dtype=dtype)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(A, B, out=out)
        best = min(best, time.perf_counter() - t0)
    return gemm_flops(n, ne, n, dtype) / best / 1e9


class Measurement:
    """Runs one workload and assembles its report."""

    def __init__(self, workload, *, seed: int, seconds: float, trace: bool,
                 min_reps: int, keep_spans: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.min_reps = max(min_reps, 2 if trace else 1)
        self.keep_spans = keep_spans
        self.recorder = SpanRecorder()
        self.state = None   # the last repetition's inputs, for the checks

    # ------------------------------------------------------------ repetitions
    def _repetition(self, traced: bool, start: int = 0) -> Rep:
        rep = Rep(traced, start)
        wl, rec = self.workload, self.recorder
        try:
            with contextlib.ExitStack() as stack:
                stack.enter_context(_no_gc())
                if traced:
                    stack.enter_context(instrumented(rec))
                    stack.enter_context(rec.recording())
                t0 = time.perf_counter()
                try:
                    state = wl.setup(self.seed, rec)
                except Exception:
                    rep.ops = [OpRecord("setup",
                                        failures=[traceback.format_exc()])]
                    return rep
                t1 = time.perf_counter()
                try:
                    with rec.span(OPERATION):
                        rep.ops = wl.operate(state, self.seed + start)
                except Exception:
                    rep.ops = [OpRecord("operation",
                                        failures=[traceback.format_exc()])]
                finally:
                    wl.release(state)
                t2 = time.perf_counter()
            rep.setup_s, rep.wall_s = t1 - t0, t2 - t1
            self.state = state
            if _ran(rep):
                wl.digest(rep.ops)
            if traced:
                spans = rec.spans
                rep.layer, rep.problems = layer_from_spans(spans, rec.counters)
                if self.keep_spans:
                    rep.spans = spans
            return rep
        finally:
            rec.reset()

    def _extra_setups(self, samples: list[float]) -> None:
        """More set-up samples for the median: set-up alone is short."""
        spent = 0.0
        while len(samples) < SETUP_SAMPLES and spent < SETUP_TOPUP_S:
            with _no_gc():
                t0 = time.perf_counter()
                try:
                    state = self.workload.setup(self.seed, self.recorder)
                except Exception:
                    return   # counted by the repetition it broke
                dt = time.perf_counter() - t0
            self.workload.release(state)
            samples.append(dt)
            spent += dt

    # ------------------------------------------------------------------- run
    def run(self) -> dict:
        wl = self.workload
        t_begin = time.perf_counter()
        warm = [self._repetition(False)]
        reps: list[Rep] = []
        while (len(reps) < self.min_reps
               or time.perf_counter() - t_begin < self.seconds):
            # Untraced, the k-th repetition solves from the k-th random
            # start.  Whether a straggler column costs one more iteration
            # (+25% wall on filter_dense) is the luck of the start, and a
            # change that only perturbs rounding re-rolls it; the median
            # over starts is the time a user sees.  The first repetition
            # shares the warm-up's start, a traced run keeps one start, so
            # that what must repeat exactly can be checked.
            k = len(reps)
            reps.append(self._repetition(self.trace and k % 2 == 1,
                                         start=0 if self.trace else k))
        measured_s = time.perf_counter() - t_begin
        usage = resource.getrusage(resource.RUSAGE_SELF)
        peak_rss_mib = usage.ru_maxrss / 1024.0

        untraced = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        setup_samples = [r.setup_s for r in untraced if r.setup_s > 0]
        if not self.trace:
            self._extra_setups(setup_samples)

        direct_s, oracle, facts = None, None, {}
        every = warm + reps
        if self.state is not None:
            direct_s, oracle = wl.direct(self.state)
            facts = wl.verify(
                self.state, [r.ops for r in every if _ran(r)], oracle)
        _check_repeatable(every)

        # a repetition that raised has no time to report; it is in `failed`
        wall = quartiles([r.wall_s for r in untraced if _ran(r)]
                         or [r.wall_s for r in untraced])
        report = {
            "workload": wl.name,
            "why": wl.why,
            "seed": self.seed,
            "trace": self.trace,
            "repetitions": len(reps),
            "measured_s": measured_s,
            "attempted": sum(len(r.ops) for r in every),
            "failed": sum(bool(op.failures) for r in every for op in r.ops),
            "failures": [
                {"repetition": i - len(warm), "operation": op.label,
                 "why": op.failures}
                for i, r in enumerate(every) for op in r.ops if op.failures],
            "self_check": [],
            "end_to_end": {
                "wall_s": wall,
                "setup_s": quartiles(setup_samples),
                "peak_rss_mib": {"value": peak_rss_mib, "n": 1},
            },
        }
        first = next((r for r in untraced if _ran(r)), None)   # start 0
        layer_facts = wl.layer_facts(first.ops) if first is not None else {}
        layer_facts.update(facts)
        extras = report["report_only"] = {}
        if "modeled_makespan_s" in layer_facts:
            extras["modeled_makespan_s"] = {
                "value": layer_facts["modeled_makespan_s"], "n": 1}
        if direct_s is not None:
            extras["time_vs_direct"] = {
                k: v if k == "n" else v / direct_s for k, v in wall.items()}
        for block in (report["end_to_end"], extras):
            for name, entry in block.items():
                entry["unit"] = metrics.UNITS[name]
        if self.trace:
            self._add_layers(report, traced, wall, direct_s, layer_facts)
        return report

    # ------------------------------------------------------------ per layer
    def _add_layers(self, report: dict, traced: list[Rep], wall: dict,
                    direct_s: float | None, facts: dict) -> None:
        wall_s = wall["value"]
        layers = [r.layer for r in traced if r.layer is not None]
        values = {name: 0.0 for name, *_ in metrics.PER_LAYER}
        for r in traced:
            report["self_check"].extend(r.problems)
        if layers:
            for key in layers[0]:
                column = [layer[key] for layer in layers]
                if key in metrics.EXACT and len(set(column)) > 1:
                    report["self_check"].append(
                        f"{key} differs between traced repetitions: {column}")
                values[key] = statistics.median(column)
        solve_s = values.pop("_solve_s", 0.0)
        values.update(facts)
        if wall_s > 0:      # else no repetition ran: nothing to relate to
            traced_wall = [r.wall_s for r in traced if _ran(r)]
            if traced_wall:
                values["trace.overhead_frac"] = \
                    min(traced_wall) / wall["min"] - 1.0
            self._reference_lines(values, wall_s, direct_s)

        report["per_layer"] = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in metrics.PER_LAYER}
        report["shares"] = {
            "solve_s": solve_s,
            "filter_of_solve": _share(values["core.filter.time_s"], solve_s),
            "qr_rr_resid_of_solve": _share(
                values["core.qr.time_s"] + values["core.rr.time_s"]
                + values["core.resid.time_s"], solve_s),
        }
        if self.keep_spans:
            report["spans"] = next(
                (r.spans for r in reversed(traced) if r.spans), [])

    def _reference_lines(self, values: dict, wall_s: float,
                         direct_s: float | None) -> None:
        """What the measured wall is held against: the direct solver, the
        GEMM rate of this host, the serial solver, the orchestrated twin,
        the Uniform input."""
        wl = self.workload
        if direct_s is not None:
            values["baseline.eigvalsh.time_s"] = direct_s
            values["time_vs_direct"] = wall_s / direct_s
        if wl.gemm_shape() is not None:
            ref = gemm_ref_gflops(*wl.gemm_shape())
            values["runtime.device.gemm_ref_gflops"] = ref
            flops, hemm_s = values["distributed.hemm.flops"], \
                values["distributed.hemm.time_s"]
            if hemm_s > 0:
                values["distributed.hemm.gflops"] = flops / hemm_s / 1e9
                values["distributed.hemm.roofline_frac"] = \
                    values["distributed.hemm.gflops"] / ref
            values["baseline.gemm_bound_s"] = flops / (ref * 1e9)
            values["core.overhead_frac"] = \
                1.0 - values["baseline.gemm_bound_s"] / wall_s
        values["baseline.serial.time_s"] = \
            wl.serial_time(self.state, self.seed) or 0.0
        twin = wl.orchestrated_twin()
        if twin is not None:
            rep = Measurement(twin, seed=self.seed, seconds=0.0,
                              trace=False, min_reps=1)._repetition(False)
            values["runtime.transport.mp_vs_orchestrated"] = \
                wall_s / rep.wall_s
        values.update(wl.uniform_reference(self.seed, self.recorder))
        if values["service.jobs"]:
            values["service.jobs_per_s"] = values["service.jobs"] / wall_s


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _ran(rep: Rep) -> bool:
    """True when the repetition's operations returned results."""
    return bool(rep.ops) and all(op.result is not None for op in rep.ops)


def _check_repeatable(reps: list[Rep]) -> None:
    """Same seed, same start: modeled values and counts must not move."""
    base: dict[int, Rep] = {}
    for rep in reps:
        if not _ran(rep):
            continue
        ref = base.setdefault(rep.start, rep)
        if ref is rep:
            continue
        for ref_op, op in zip(ref.ops, rep.ops):
            moved = [k for k in ref_op.exact
                     if op.exact.get(k) != ref_op.exact[k]]
            if moved:
                op.failures.append(
                    f"differs from the first repetition in {moved}")
