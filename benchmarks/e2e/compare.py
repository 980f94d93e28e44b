"""Compare two reports written by ``--out``: the no-regression rule.

For every end-to-end metric x workload row the second report (B) is held
against the first (A) with the bound the benchmark fixed:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (distance between the
  quartiles, as a share of the median) of either side is wider than the
  bound, so the row can show neither a regression nor its absence —
  unless every sample of one side reads better than every sample of the
  other, which settles it;
* ``ok`` — otherwise.

Modeled values and counts (``modeled_makespan_s``, and every *exact*
per-layer name when both reports are traced) are held to equality:
``moved`` when they differ in either direction.  Two runs of one commit on
one seed must show none; between two commits a ``moved`` row is where the
change altered the work done.
"""

from __future__ import annotations

import json

from benchmarks.e2e import metrics

OK, WORSE, UNRESOLVED, MOVED = "ok", "worse", "unresolved", "moved"


def relative_spread(entry: dict) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """Judge B against A for one metric on one workload."""
    sign = 1.0 if better == metrics.LOWER else -1.0
    base = abs(a["value"])
    worsening = sign * (b["value"] - a["value"]) / base if base else 0.0
    if max(relative_spread(a), relative_spread(b)) > bound:
        lo_a, hi_a = a.get("min", a["value"]), a.get("max", a["value"])
        lo_b, hi_b = b.get("min", b["value"]), b.get("max", b["value"])
        b_all_better = hi_b < lo_a if sign > 0 else lo_b > hi_a
        b_all_worse = lo_b > hi_a if sign > 0 else hi_b < lo_a
        if b_all_better:
            return OK
        if b_all_worse and worsening > bound:
            return WORSE
        return UNRESOLVED
    return WORSE if worsening > bound else OK


def compare(a: dict, b: dict) -> list[dict]:
    """One row per end-to-end metric x workload present in both reports,
    then one per exact per-layer value that differs."""
    rows = []
    for name, rep_a in a["workloads"].items():
        rep_b = b["workloads"].get(name)
        if rep_b is None:
            continue
        for metric, _unit, better, bound in (*metrics.END_TO_END,
                                             *metrics.REPORT_ONLY):
            block = "end_to_end" if metric in rep_a["end_to_end"] \
                else "report_only"
            ea, eb = rep_a[block].get(metric), rep_b[block].get(metric)
            if ea is None or eb is None:
                continue
            if bound == 0:
                judged = OK if ea["value"] == eb["value"] else MOVED
            else:
                judged = verdict(ea, eb, bound, better)
            rows.append({"workload": name, "metric": metric, "a": ea,
                         "b": eb, "bound": bound, "verdict": judged})
        layers_a, layers_b = rep_a.get("per_layer"), rep_b.get("per_layer")
        if layers_a and layers_b:
            for metric in sorted(metrics.EXACT):
                ea, eb = layers_a[metric], layers_b[metric]
                if ea["value"] != eb["value"]:
                    rows.append({"workload": name, "metric": metric, "a": ea,
                                 "b": eb, "bound": 0, "verdict": MOVED})
    return rows


def _cell(e: dict) -> str:
    if "q1" in e:
        return f"{e['value']:.5g} [{e['q1']:.5g}, {e['q3']:.5g}]"
    return f"{e['value']:.9g}"


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison table; non-zero when any row is ``worse`` or
    ``moved``, or an operation failed on either side."""
    with open(path_a, encoding="utf-8") as fa, \
            open(path_b, encoding="utf-8") as fb:
        a, b = json.load(fa), json.load(fb)
    rows = compare(a, b)
    print(f"{'workload':<16}{'metric':<20}{'A median [q1, q3]':<34}"
          f"{'B median [q1, q3]':<34}{'bound':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:<16}{r['metric']:<20}{_cell(r['a']):<34}"
              f"{_cell(r['b']):<34}{r['bound']:>8.2g}  {r['verdict']}")
    failed = sum(rep["failed"] for side in (a, b)
                 for rep in side["workloads"].values())
    count = {v: sum(r["verdict"] == v for r in rows)
             for v in (WORSE, MOVED, UNRESOLVED, OK)}
    print(f"{count[WORSE]} worse, {count[MOVED]} moved, "
          f"{count[UNRESOLVED]} unresolved, {count[OK]} ok; "
          f"{failed} operations failed")
    return 1 if failed or count[WORSE] or count[MOVED] else 0
