"""Campaign report generation — from DB queries alone (DESIGN.md §5k).

Everything here reads only the :class:`~repro.campaign.db.CampaignDB`:
the run rows, their stored results, and the report-gate spec recorded
in the DB's meta table at registration time.  No spec file, no solver,
no benchmark script — so a report can be regenerated on any machine
that has the sqlite file, and the harness can assert that a regenerated
report is byte-identical to the one an uninterrupted campaign wrote.

Two artifact shapes, matching what the hand-run benches emit:

* a ``benchmarks/results/campaign_<name>.txt`` ASCII table, and
* a ``campaign_<name>`` section merged into ``BENCH_wallclock.json``
  (per-run metrics, per-run ``target_met_*`` booleans, and the
  campaign-level report gates — speedup ratios and identity checks
  across runs).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Mapping

from repro.reporting import render_table

from .db import CampaignDB, CampaignError, Row, RunState
from .runner import _OPS, metric_value

__all__ = [
    "campaign_section",
    "campaign_table",
    "missed_gates",
    "write_report",
]


def _resolve_ref(rows_by_label: Mapping[str, Row], ref: str) -> Any:
    """``"<label>:<dotted.path>"`` -> the metric from that run's result."""
    label, sep, path = ref.partition(":")
    if not sep:
        raise CampaignError(
            f"report gate ref {ref!r} must be '<label>:<metric.path>'"
        )
    row = rows_by_label.get(label)
    if row is None:
        raise CampaignError(f"report gate ref {ref!r}: no run {label!r}")
    if row.result is None:
        raise CampaignError(
            f"report gate ref {ref!r}: run {label!r} has no stored "
            f"result (state {row.state.value})"
        )
    return metric_value(row.result, path)


def _report_gates(
    rows_by_label: Mapping[str, Row], spec: Mapping[str, Any]
) -> dict[str, Any]:
    """Evaluate the campaign-level gates stored in DB meta.

    Two gate shapes: ``ratio: [a_ref, b_ref]`` compares ``a/b`` against
    ``value`` under ``op``; ``equal: [a_ref, b_ref]`` asserts metric
    identity (the bit-reproducibility gates compare hashes this way).
    A gate whose referenced run never finished evaluates to unmet with
    the error recorded, never to a crash — reports must always render.
    """
    out: dict[str, Any] = {}
    for name, gate in spec.items():
        entry: dict[str, Any] = {k: gate[k] for k in sorted(gate)}
        try:
            if "ratio" in gate:
                a = float(_resolve_ref(rows_by_label, gate["ratio"][0]))
                b = float(_resolve_ref(rows_by_label, gate["ratio"][1]))
                if b == 0.0:
                    raise CampaignError(
                        f"report gate {name!r}: zero denominator"
                    )
                observed = a / b
                op = gate.get("op", "ge")
                met = bool(_OPS[op](observed, gate["value"]))
            elif "equal" in gate:
                a = _resolve_ref(rows_by_label, gate["equal"][0])
                b = _resolve_ref(rows_by_label, gate["equal"][1])
                observed = a
                met = a == b
            else:
                raise CampaignError(
                    f"report gate {name!r} needs 'ratio' or 'equal'"
                )
            entry["observed"] = observed
            entry["met"] = met
        except CampaignError as exc:
            entry["error"] = str(exc)
            entry["met"] = False
        out[name] = entry
    return out


def campaign_section(db: CampaignDB, campaign: str) -> dict[str, Any]:
    """The ``BENCH_wallclock.json`` section for one campaign."""
    rows = db.rows(campaign)
    if not rows:
        raise CampaignError(f"no runs for campaign {campaign!r} in the DB")
    rows_by_label = {r.label: r for r in rows}
    runs: dict[str, Any] = {}
    for r in rows:
        entry: dict[str, Any] = {"kind": r.kind, "state": r.state.value}
        if r.result is not None:
            entry["result"] = r.result
        if r.error is not None:
            entry["error"] = r.error
        runs[r.label] = entry
    section: dict[str, Any] = {
        "benchmark": f"campaign_{campaign}",
        "source": "regenerated from the campaign run database",
        "runs": runs,
        "counts": db.counts(campaign),
    }
    gate_spec = (db.get_meta(campaign, "report") or {}).get("gates", {})
    gates = _report_gates(rows_by_label, gate_spec)
    for name, gate in gates.items():
        section[f"target_met_{name}"] = gate["met"]
    if gates:
        section["report_gates"] = gates
    return section


def missed_gates(section: Mapping[str, Any]) -> list[str]:
    """Names of every unmet gate of a :func:`campaign_section`: stored
    run gates as ``<label>:<gate>``, report gates by their own name."""
    missed = [
        f"{label}:{name}"
        for label, run in section["runs"].items()
        for name, gate in run.get("result", {}).get("gates", {}).items()
        if not gate["met"]
    ]
    missed += [
        name for name, gate in section.get("report_gates", {}).items()
        if not gate["met"]
    ]
    return missed


def _fmt_float(value: Any, digits: int = 6) -> str:
    if value is None:
        return "-"
    return f"{float(value):.{digits}f}"


def _gate_cell(result: Mapping[str, Any] | None) -> str:
    if not result or "gates" not in result:
        return "-"
    gates = result["gates"]
    met = sum(1 for g in gates.values() if g["met"])
    return f"{met}/{len(gates)} met"


def campaign_table(db: CampaignDB, campaign: str) -> str:
    """The ``benchmarks/results/campaign_<name>.txt`` ASCII table."""
    rows = db.rows(campaign)
    if not rows:
        raise CampaignError(f"no runs for campaign {campaign!r} in the DB")
    table_rows: list[list[str]] = []
    for r in rows:
        res = r.result or {}
        filter_total = None
        qr_total = None
        if "phases" in res:
            filter_total = res["phases"].get("Filter", {}).get("total")
            qr_total = res["phases"].get("QR", {}).get("total")
        gb = None
        if "comm" in res:
            gb = res["comm"]["bytes"] / 1e9
        note = r.error or ""
        if r.kind == "tune" and "best_label" in res:
            note = (
                f"{res['best_label']} ({res['speedup']:.2f}x)"
            )
        table_rows.append([
            r.label, r.kind, r.state.value,
            _fmt_float(res.get("makespan")),
            _fmt_float(filter_total),
            _fmt_float(qr_total),
            _fmt_float(gb, 3) if gb is not None else "-",
            _gate_cell(res if r.result is not None else None),
            note,
        ])
    lines = [render_table(
        ["run", "kind", "state", "makespan (s)", "Filter (s)",
         "QR (s)", "GB moved", "run gates", "note"],
        table_rows,
        title=f"Campaign {campaign} (from the run database)",
    )]
    gate_spec = (db.get_meta(campaign, "report") or {}).get("gates", {})
    gates = _report_gates({r.label: r for r in rows}, gate_spec)
    if gates:
        gate_rows = []
        for name, g in sorted(gates.items()):
            if "ratio" in g:
                kind = f"ratio {g.get('op', 'ge')} {g['value']}"
            else:
                kind = "equal"
            observed = g.get("observed")
            if isinstance(observed, float):
                observed = f"{observed:.4f}"
            gate_rows.append([
                name, kind,
                "-" if observed is None else str(observed),
                "MET" if g["met"] else "MISSED",
            ])
        lines.append("")
        lines.append(render_table(
            ["report gate", "criterion", "observed", "status"],
            gate_rows,
        ))
    return "\n".join(lines)


def write_report(
    db: CampaignDB,
    campaign: str,
    *,
    results_dir: str | pathlib.Path,
    json_path: str | pathlib.Path,
) -> tuple[pathlib.Path, pathlib.Path]:
    """Write the text table + merge the JSON section; returns both paths.

    Also records the table as a DB artifact, so the DB remains the
    single source of truth for everything the report contains.
    """
    results_dir = pathlib.Path(results_dir)
    json_path = pathlib.Path(json_path)
    text = campaign_table(db, campaign)
    results_dir.mkdir(parents=True, exist_ok=True)
    txt_path = results_dir / f"campaign_{campaign}.txt"
    txt_path.write_text(text + "\n")
    db.record_artifact(campaign, f"campaign_{campaign}", text)

    payload: dict[str, Any] = {}
    if json_path.exists():
        payload = json.loads(json_path.read_text())
    payload[f"campaign_{campaign}"] = campaign_section(db, campaign)
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return txt_path, json_path
