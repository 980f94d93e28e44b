"""Report identity for the ported campaign specs (DESIGN.md §5k).

The committed artifacts — ``benchmarks/results/campaign_*.txt`` and the
``campaign_*`` sections of ``BENCH_wallclock.json`` — were generated by
``repro campaign run|report`` on the specs in ``campaigns/``.  This
suite re-runs those specs into fresh temporary DBs and proves:

* the regenerated text tables, produced from DB queries alone, are
  byte-identical to the committed artifacts, and the JSON sections are
  identical in every exact field and agree to ``rtol=1e-6`` in the
  floats computed from the eigenpairs (``eig_sha`` digests their last
  bits and is left to same-machine comparisons);
* every ``target_met_*`` boolean in a report agrees with re-applying
  the stored gate (op, value, observed) — the report never invents a
  verdict the DB does not hold;
* ``benchmarks/_common.emit`` records into an active campaign DB, so
  both paths share one results store.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.campaign import (
    CampaignDB,
    CampaignRunner,
    campaign_db_scope,
    campaign_section,
    campaign_table,
    load_spec,
    missed_gates,
)
from repro.campaign.runner import _OPS

ROOT = pathlib.Path(__file__).resolve().parents[1]
CAMPAIGNS = ROOT / "campaigns"
RESULTS = ROOT / "benchmarks" / "results"
BENCH_JSON = ROOT / "BENCH_wallclock.json"

pytest.importorskip("yaml", reason="the committed specs are YAML")


@pytest.fixture(scope="module", params=["wallclock", "mixed_precision"])
def campaign(request, tmp_path_factory):
    """One ported campaign, freshly run into a temporary DB."""
    name = request.param
    spec = load_spec(CAMPAIGNS / f"{name}.yml")
    db = CampaignDB(
        tmp_path_factory.mktemp(f"db_{name}") / f"{name}.sqlite"
    )
    stats = CampaignRunner(spec, db).run()
    assert stats.failed == 0, "a ported campaign run crashed"
    return name, spec, db


def test_regenerated_table_matches_committed(campaign):
    name, _spec, db = campaign
    committed = (RESULTS / f"campaign_{name}.txt").read_text()
    assert campaign_table(db, name) + "\n" == committed


#: result fields computed from the converged eigenpairs: their last bits
#: move with the BLAS build and its thread count, so they are compared
#: to a tolerance — everything else in a section (modeled phases,
#: CommStats levels, counts, states, gate ops/values/verdicts) is exact
FLOATING_FIELDS = ("residual_max", "oracle_err", "observed")
#: a digest of those last bits: meaningful on one machine only
MACHINE_FIELDS = ("eig_sha",)
FLOAT_RTOL = 1e-6
#: errors of O(1) eigenvalues this close to zero are rounding noise,
#: which no relative tolerance can compare
FLOAT_ATOL = 1e-12


def split_section(node, path=()):
    """``(exact, floating)``: the section minus its floating and
    machine-dependent fields, and the floating ones keyed by path."""
    if not isinstance(node, dict):
        return node, {}
    exact, floating = {}, {}
    for key, value in node.items():
        if key in MACHINE_FIELDS:
            continue
        if key in FLOATING_FIELDS and isinstance(value, float):
            floating[path + (key,)] = value
            continue
        exact[key], below = split_section(value, path + (key,))
        floating.update(below)
    return exact, floating


def test_regenerated_section_matches_committed(campaign):
    name, _spec, db = campaign
    committed = json.loads(BENCH_JSON.read_text())[f"campaign_{name}"]
    exact, floating = split_section(campaign_section(db, name))
    want_exact, want_floating = split_section(committed)
    assert exact == want_exact
    assert floating.keys() == want_floating.keys()
    for path, want in want_floating.items():
        assert floating[path] == pytest.approx(
            want, rel=FLOAT_RTOL, abs=FLOAT_ATOL), "/".join(path)


def test_gates_agree_with_stored_booleans(campaign):
    """target_met_* in the report == re-applying the stored gate."""
    name, _spec, db = campaign
    section = campaign_section(db, name)
    checked = 0
    for label, entry in section["runs"].items():
        result = entry.get("result")
        if not result or "gates" not in result:
            continue
        for gate_name, gate in result["gates"].items():
            recomputed = _OPS[gate["op"]](gate["observed"], gate["value"])
            assert result[f"target_met_{gate_name}"] == bool(recomputed), \
                f"{label}:{gate_name} disagrees with its stored gate"
            checked += 1
    for gate_name, gate in section.get("report_gates", {}).items():
        assert section[f"target_met_{gate_name}"] == gate["met"]
        checked += 1
    assert checked > 0
    # and nothing was missed: the ported campaigns' targets all hold
    assert not missed_gates(section)


def test_emit_records_into_active_campaign_db(tmp_path, capsys):
    """benchmarks/_common.emit lands its artifact in the active DB."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from _common import emit
    finally:
        sys.path.pop(0)
    db = CampaignDB(tmp_path / "shared.sqlite")
    with campaign_db_scope(db, "handrun"):
        emit("campaign_emit_probe", "the shared results store")
    capsys.readouterr()
    assert db.artifacts("handrun") == {
        "campaign_emit_probe": "the shared results store"
    }
    # clean up the file emit always writes under benchmarks/results/
    (RESULTS / "campaign_emit_probe.txt").unlink()
    # outside a scope, emit records nowhere
    emit("campaign_emit_probe", "no store active")
    capsys.readouterr()
    (RESULTS / "campaign_emit_probe.txt").unlink()
    assert db.artifacts("handrun") == {
        "campaign_emit_probe": "the shared results store"
    }


def test_bench_wallclock_writer_keeps_foreign_sections(tmp_path, monkeypatch,
                                                       capsys):
    """``bench_wallclock.py`` shares ``BENCH_wallclock.json`` with the
    campaign report and the service bench: a full run replaces its own
    keys and keeps their sections byte for byte; a smoke run (the CI
    step) writes no file at all.  The writer alone — the timed gates
    stay in the perf-smoke job."""
    import benchmarks._common
    from benchmarks import bench_wallclock

    committed = json.loads(BENCH_JSON.read_text())
    foreign = ("campaign_wallclock", "campaign_mixed_precision", "service")
    assert set(foreign) <= set(committed)
    json_path = tmp_path / "BENCH_wallclock.json"
    json_path.write_text(BENCH_JSON.read_text())
    results = tmp_path / "results"
    monkeypatch.setattr(bench_wallclock, "JSON_PATH", json_path)
    monkeypatch.setattr(bench_wallclock, "RESULTS_DIR", results)
    monkeypatch.setattr(benchmarks._common, "RESULTS_DIR", results)

    def tree():
        return {p.relative_to(tmp_path): p.read_bytes()
                for p in tmp_path.rglob("*") if p.is_file()}

    before = tree()
    bench_wallclock.write_report(
        {"benchmark": "wallclock", "smoke": True, "points": []}, "smoke run")
    assert "smoke run" in capsys.readouterr().out
    assert tree() == before

    report = {"benchmark": "wallclock", "smoke": False, "points": [],
              "note": "rewritten"}
    bench_wallclock.write_report(report, "full run")
    capsys.readouterr()
    merged = json.loads(json_path.read_text())
    for key in foreign:
        assert json.dumps(merged[key]) == json.dumps(committed[key]), key
    assert {k: merged[k] for k in report} == report
    assert set(merged) == set(committed)
    # the results copy holds this bench's own report only
    assert json.loads((results / "BENCH_wallclock.json").read_text()) == report
    assert (results / "bench_wallclock.txt").read_text() == "full run\n"
