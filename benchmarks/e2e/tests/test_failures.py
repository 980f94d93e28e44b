"""Failure counting: wrong or raising operations are counted, not fatal."""

import numpy as np

from benchmarks.e2e.measure import Measurement
from benchmarks.e2e.workloads import NumericSolve, OpRecord, Workload


def tiny(**config):
    return NumericSolve("tiny", "test", N=120, nev=8, nex=4,
                        dtype=np.float64, grid=(2, 2), separated=True,
                        config=config)


def test_good_solves_pass_every_check():
    report = Measurement(tiny(), seed=0, seconds=0.0, trace=False,
                         min_reps=2).run()
    assert (report["attempted"], report["failed"]) == (3, 0)
    assert report["end_to_end"]["wall_s"]["n"] == 2
    assert report["report_only"]["time_vs_direct"]["value"] > 0


def test_non_converging_solve_is_counted_failed_not_crashed():
    report = Measurement(tiny(max_iter=1), seed=0, seconds=0.0, trace=False,
                         min_reps=1).run()
    assert report["attempted"] == 2
    assert report["failed"] == 2
    assert all("not converged" in " ".join(f["why"])
               for f in report["failures"])


class _Stub(Workload):
    """A workload whose operation misbehaves on demand."""

    name, why = "stub", "test"

    def __init__(self, raise_on=(), drift=False, raise_in_setup=False):
        self.calls = 0
        self.raise_on = raise_on
        self.drift = drift
        self.raise_in_setup = raise_in_setup

    def setup(self, seed, rec):
        if self.raise_in_setup:
            raise RuntimeError("no inputs")
        return object()

    def operate(self, state, seed):
        self.calls += 1
        if self.calls in self.raise_on:
            raise RuntimeError("boom")
        makespan = 1.0 + (self.calls if self.drift else 0)
        return [OpRecord("op", result=True,
                         exact={"modeled_makespan_s": makespan})]

    def layer_facts(self, ops):
        return dict(ops[0].exact)


def test_raising_operation_is_one_failed_operation():
    report = Measurement(_Stub(raise_on=(2,)), seed=0, seconds=0.0,
                         trace=False, min_reps=3).run()
    assert (report["attempted"], report["failed"]) == (4, 1)
    assert "boom" in report["failures"][0]["why"][0]


def test_raising_setup_is_counted_and_still_reports():
    for trace in (False, True):
        report = Measurement(_Stub(raise_in_setup=True), seed=0, seconds=0.0,
                             trace=trace, min_reps=2).run()
        assert report["failed"] == report["attempted"] == 3
        assert "no inputs" in report["failures"][0]["why"][0]
        assert report["end_to_end"]["setup_s"]["n"] == 0


def test_modeled_value_that_moves_between_repetitions_fails():
    # untraced, only the first repetition shares the warm-up's start ...
    report = Measurement(_Stub(drift=True), seed=0, seconds=0.0,
                         trace=False, min_reps=2).run()
    assert report["failed"] == 1
    assert "modeled_makespan_s" in report["failures"][0]["why"][0]
    # ... traced, every repetition does
    report = Measurement(_Stub(drift=True), seed=0, seconds=0.0,
                         trace=True, min_reps=2).run()
    assert report["failed"] == 2


def test_untraced_repetitions_walk_the_random_starts():
    seen = []

    class Starts(_Stub):
        def operate(self, state, seed):
            seen.append(seed)
            return super().operate(state, seed)

    Measurement(Starts(), seed=5, seconds=0.0, trace=False, min_reps=3).run()
    assert seen == [5, 5, 6, 7]
    del seen[:]
    Measurement(Starts(), seed=5, seconds=0.0, trace=True, min_reps=3).run()
    assert seen == [5, 5, 5, 5]


def test_traced_run_closes_and_reports_every_layer_name():
    from benchmarks.e2e import metrics

    report = Measurement(tiny(), seed=0, seconds=0.0, trace=True,
                         min_reps=2).run()
    assert report["self_check"] == []
    assert set(report["per_layer"]) == {n for n, *_ in metrics.PER_LAYER}
    layer = {k: v["value"] for k, v in report["per_layer"].items()}
    assert layer["core.filter.calls"] == layer["core.iterations"]
    assert layer["core.matvecs"] > layer["core.filter.matvecs"] > 0
    # every HEMM column is counted: the solve's MatVecs plus the Lanczos
    # pre-processing (4 runs x 25 steps), which core.matvecs leaves out
    assert layer["distributed.hemm.flops"] == \
        2.0 * 120 * 120 * (layer["core.matvecs"] + 4 * 25)
    # the reference line solved the Uniform matrix of the same size
    assert layer["baseline.uniform.iterations"] >= 1


def test_a_hook_whose_target_is_gone_raises(monkeypatch):
    import pytest
    from benchmarks.e2e import instrument
    from benchmarks.e2e.spans import SpanRecorder

    monkeypatch.setattr(instrument, "_hooks", lambda: [
        ("repro.core.qr", "no_such_function", "core.qr", {})])
    with pytest.raises(AttributeError, match="no_such_function"):
        with instrument.instrumented(SpanRecorder()):
            pass
