"""The bound comparison behind ``--compare``."""

from benchmarks.e2e.compare import (
    MOVED, OK, UNRESOLVED, WORSE, compare, relative_spread, verdict)
from benchmarks.e2e.measure import quartiles
from benchmarks.e2e.metrics import HIGHER, LOWER, PER_LAYER


def entry(*samples):
    return {**quartiles(list(samples)), "unit": "s"}


def test_within_bound_is_ok_and_beyond_is_worse():
    a = entry(1.00, 1.01, 0.99, 1.00)
    assert verdict(a, entry(1.05, 1.06, 1.04, 1.05), 0.10, LOWER) == OK
    assert verdict(a, entry(1.15, 1.16, 1.14, 1.15), 0.10, LOWER) == WORSE
    # an improvement is never a regression
    assert verdict(a, entry(0.50, 0.51, 0.49, 0.50), 0.10, LOWER) == OK


def test_direction_follows_better():
    a = entry(10.0, 10.1, 9.9, 10.0)
    b = entry(8.0, 8.1, 7.9, 8.0)
    assert verdict(a, b, 0.10, LOWER) == OK
    assert verdict(a, b, 0.10, HIGHER) == WORSE


def test_wide_spread_is_unresolved_unless_the_sides_separate():
    noisy = entry(1.0, 1.3, 0.8, 1.1)
    assert relative_spread(noisy) > 0.10
    assert verdict(noisy, entry(1.0, 1.2, 0.9, 1.1), 0.10, LOWER) == UNRESOLVED
    # every sample of B better than every sample of A settles it
    assert verdict(noisy, entry(0.5, 0.7, 0.4, 0.6), 0.10, LOWER) == OK
    # every sample of B worse than every sample of A, and past the bound
    assert verdict(noisy, entry(2.0, 2.6, 1.6, 2.2), 0.10, LOWER) == WORSE


def test_compare_rows_cover_metric_by_workload():
    def report(wall, makespan=1.0, matvecs=None):
        rep = {
            "end_to_end": {"wall_s": entry(*wall), "setup_s": entry(0.1, 0.1),
                           "peak_rss_mib": {"value": 100.0, "n": 1,
                                            "unit": "MiB"}},
            "report_only": {"modeled_makespan_s": {
                "value": makespan, "n": 1, "unit": "s_model"}},
            "failed": 0}
        if matvecs is not None:
            rep["per_layer"] = {
                name: {"value": matvecs if name == "core.matvecs" else 0.0}
                for name, *_ in PER_LAYER}
        return {"workloads": {"w": rep}}

    def verdicts(a, b):
        return {r["metric"]: r["verdict"] for r in compare(a, b)}

    assert verdicts(report([1.0, 1.0, 1.0]), report([1.5, 1.5, 1.5])) == {
        "wall_s": WORSE, "setup_s": OK, "peak_rss_mib": OK,
        "modeled_makespan_s": OK}
    # modeled values are held to equality, in either direction
    assert verdicts(report([1.0, 1.0]), report([1.0, 1.0], makespan=0.9))[
        "modeled_makespan_s"] == MOVED
    # so are the exact per-layer values, when both reports are traced
    same = verdicts(report([1.0, 1.0], matvecs=100.0),
                    report([1.0, 1.0], matvecs=100.0))
    assert "core.matvecs" not in same
    assert verdicts(report([1.0, 1.0], matvecs=100.0),
                    report([1.0, 1.0], matvecs=104.0))["core.matvecs"] == MOVED
