"""Span nesting, self-time arithmetic and the hook binder."""

import numpy as np

from benchmarks.e2e.instrument import PHASES, SOLVE, instrumented
from benchmarks.e2e.spans import (
    SpanRecorder, closure_problems, residual_self, summarize)


def _tree():
    """solve[0,10] -> filter[1,5] -> hemm[2,3], hemm[3,4.5]; qr[5,7] -> qr[5.5,6]."""
    return [
        [SOLVE, 0.0, 10.0, -1],
        ["core.filter", 1.0, 5.0, 0],
        ["distributed.hemm", 2.0, 3.0, 1],
        ["distributed.hemm", 3.0, 4.5, 1],
        ["core.qr", 5.0, 7.0, 0],
        ["core.qr", 5.5, 6.0, 4],
    ]


def test_self_time_is_duration_minus_direct_children():
    stats = summarize(_tree())
    assert stats["core.filter"].time_s == 4.0
    assert stats["core.filter"].self_s == 4.0 - 2.5
    assert stats["distributed.hemm"].calls == 2
    assert stats["distributed.hemm"].self_s == 2.5
    assert stats[SOLVE].self_s == 10.0 - 4.0 - 2.0


def test_nested_same_name_counts_once():
    st = summarize(_tree())["core.qr"]
    assert (st.calls, st.time_s) == (1, 2.0)
    # ... while self time still covers both spans without overlap
    assert st.self_s == 1.5 + 0.5


def test_self_times_partition_the_roots():
    spans = _tree()
    stats = summarize(spans)
    assert sum(s.self_s for s in stats.values()) == 10.0
    assert closure_problems(spans, stats) == []
    driver = residual_self(spans, SOLVE, PHASES)
    assert driver == 10.0 - 4.0 - 2.0
    assert driver + stats["core.filter"].time_s + stats["core.qr"].time_s == 10.0


def test_closure_catches_children_outgrowing_their_parent():
    spans = _tree()
    spans[2][2] = 9.0   # the first hemm now ends after its filter parent
    problems = closure_problems(spans, summarize(spans))
    assert any("cover" in p for p in problems)


def test_closure_catches_an_unclosed_span():
    spans = _tree()
    spans[4][2] = 0.0
    assert any("never closed" in p
               for p in closure_problems(spans, summarize(spans)))


def test_recorder_nests_and_mutes_below_opaque():
    rec = SpanRecorder()
    inner = rec.wrap(lambda: 1, "inner")
    outer = rec.wrap(lambda: inner() + inner(), "outer")
    sealed = rec.wrap(lambda: inner(), "sealed", opaque=True)
    assert outer() == 2 and rec.spans == []     # inactive: nothing recorded
    with rec.recording():
        with rec.span("root"):
            outer()
            sealed()
    names = [s[0] for s in rec.spans]
    assert names == ["root", "outer", "inner", "inner", "sealed"]
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 1, 0]
    assert all(s[2] >= s[1] for s in rec.spans)
    assert closure_problems(rec.spans, summarize(rec.spans)) == []


def test_after_hook_takes_counts_at_the_boundary():
    rec = SpanRecorder()

    def after(counters, args, kwargs, result):
        counters["seen"] += result

    fn = rec.wrap(lambda x: 2 * x, "f", after=after)
    with rec.recording():
        fn(3)
        fn(4)
    assert rec.counters["seen"] == 14


def test_hooks_bind_at_import_sites_and_are_restored():
    import repro.core.chase as chase
    import repro.core.filter as filt
    from repro.distributed import DistributedHermitian
    from repro.runtime import Grid2D, VirtualCluster

    original = filt.chebyshev_filter
    from_dense = DistributedHermitian.__dict__["from_dense"]
    rec = SpanRecorder()
    with instrumented(rec):
        assert chase.chebyshev_filter is not original
        assert chase.chebyshev_filter is filt.chebyshev_filter
        with rec.recording():
            grid = Grid2D(VirtualCluster(1))
            Hd = DistributedHermitian.from_dense(grid, np.eye(4))
        assert Hd.N == 4
        assert [s[0] for s in rec.spans] == ["distributed.from_dense"]
    assert chase.chebyshev_filter is original
    assert filt.chebyshev_filter is original
    assert DistributedHermitian.__dict__["from_dense"] is from_dense
