"""Property-based harness for the campaign runner (DESIGN.md §5k).

The campaign machinery is itself test infrastructure, so it is proven,
not just shipped:

* **resume idempotence** — kill a campaign after k of n runs (between
  runs or mid-run), resume from the sqlite DB, and the DB end state and
  every regenerated report artifact are byte-identical to an
  uninterrupted run, with the DONE rows provably skipped (run counts
  asserted);
* **skip-equals-run** — a DONE row's stored result matches a forced
  re-execution of its stored config bit-exactly (canonical JSON);
* **config-hash sensitivity** — any knob change produces a new row;
  cosmetic spec edits (key order, axis order, block order, explicit
  defaults, labels) do not;
* **illegal state transitions** raise typed errors.

The properties run on ``probe`` campaigns — cheap deterministic
pseudo-runs that exercise the full spec/DB/runner/report stack in
milliseconds; one end-to-end test repeats the resume proof on the real
built-in smoke campaign (numeric solves + phantom replays).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignDB,
    CampaignInterrupted,
    CampaignRunner,
    IllegalTransitionError,
    RunState,
    SpecError,
    UnknownRunError,
    campaign_section,
    campaign_table,
    canonical_json,
    execute_run,
    smoke_spec,
    spec_from_dict,
)


def probe_spec_dict(values, fail_mask, seed=3, gates=True):
    """A probe campaign over ``values`` with failures where masked."""
    axis = [
        {"value": v, "fail": bool(f)}
        for v, f in zip(values, fail_mask)
    ]
    spec = {
        "campaign": "proptest",
        "seed": seed,
        "defaults": {"kind": "probe"},
        "matrix": [{"name": "probes", "axes": {"p": axis}}],
    }
    if gates:
        spec["matrix"][0]["gates"] = {
            "finite": {"metric": "makespan", "op": "ge", "value": 0.0},
        }
    return spec


def artifacts(db, campaign="proptest"):
    """Everything a report can say, regenerated from DB queries alone."""
    return (
        db.dump(),
        campaign_table(db, campaign),
        canonical_json(campaign_section(db, campaign)),
    )


values_st = st.lists(
    st.integers(min_value=0, max_value=10**6),
    min_size=2, max_size=7, unique=True,
)


# ---------------------------------------------------------------------------
# resume idempotence
# ---------------------------------------------------------------------------


@settings(max_examples=30)
@given(
    values=values_st,
    fail_bits=st.integers(min_value=0, max_value=127),
    kill_frac=st.floats(min_value=0.0, max_value=0.99),
    mid_run=st.booleans(),
)
def test_resume_is_idempotent(tmp_path_factory, values, fail_bits,
                              kill_frac, mid_run):
    """Interrupted-then-resumed == uninterrupted, byte for byte."""
    tmp = tmp_path_factory.mktemp("resume")
    fail_mask = [(fail_bits >> i) & 1 for i in range(len(values))]
    spec = spec_from_dict(probe_spec_dict(values, fail_mask))
    n = len(values)
    k = int(kill_frac * n)  # 0 <= k < n: the interrupt always fires

    interrupted = CampaignDB(tmp / "interrupted.sqlite")
    with pytest.raises(CampaignInterrupted):
        CampaignRunner(
            spec, interrupted, interrupt_after=k,
            interrupt_mid_run=mid_run,
        ).run()
    resumed = CampaignRunner(spec, interrupted).run()

    reference = CampaignDB(tmp / "reference.sqlite")
    fresh = CampaignRunner(spec, reference).run()

    # DONE rows provably skipped: the resumed pass executed exactly the
    # runs the interrupted pass did not finish (FAILED rows stay FAILED
    # — a resume never retries them)
    assert resumed.executed == n - k
    assert resumed.resumed_skips == k - sum(fail_mask[:k])
    assert resumed.recovered == (1 if mid_run else 0)
    assert fresh.executed == n
    # crash isolation: fail-marked probes are FAILED rows, not a dead
    # campaign
    assert resumed.failed == sum(fail_mask)
    assert resumed.done == n - sum(fail_mask)
    assert artifacts(interrupted) == artifacts(reference)


@settings(max_examples=10)
@given(values=values_st)
def test_second_resume_is_a_noop(tmp_path_factory, values):
    """Re-running a finished campaign executes nothing and changes
    nothing."""
    tmp = tmp_path_factory.mktemp("noop")
    spec = spec_from_dict(probe_spec_dict(values, [0] * len(values)))
    db = CampaignDB(tmp / "db.sqlite")
    CampaignRunner(spec, db).run()
    before = artifacts(db)
    again = CampaignRunner(spec, db).run()
    assert again.executed == 0
    assert again.resumed_skips == len(values)
    assert artifacts(db) == before


# ---------------------------------------------------------------------------
# skip equals run
# ---------------------------------------------------------------------------


@settings(max_examples=20)
@given(values=values_st, seed=st.integers(min_value=0, max_value=2**20))
def test_skip_equals_run(tmp_path_factory, values, seed):
    """A DONE row's stored result == a re-execution of its stored config,
    bit-exactly."""
    tmp = tmp_path_factory.mktemp("skip")
    spec = spec_from_dict(
        probe_spec_dict(values, [0] * len(values), seed=seed)
    )
    db = CampaignDB(tmp / "db.sqlite")
    CampaignRunner(spec, db).run()
    for row in db.rows("proptest"):
        assert row.state is RunState.DONE
        replayed = execute_run(db.config(row.hash))
        assert canonical_json(replayed) == canonical_json(row.result)
        # re-executing never touches the DB
        assert db.state(row.hash) is RunState.DONE


# ---------------------------------------------------------------------------
# config-hash sensitivity
# ---------------------------------------------------------------------------


def _hashes(spec_dict):
    return {r.label: r.hash for r in spec_from_dict(spec_dict).expand()}


@settings(max_examples=20)
@given(values=values_st, seed=st.integers(min_value=0, max_value=2**20))
def test_cosmetic_reordering_preserves_hashes(values, seed):
    """Axis-value order, block key order and spec key order are
    cosmetic: same rows, same hashes, same expansion order."""
    mask = [0] * len(values)
    base = probe_spec_dict(values, mask, seed=seed)
    reordered = probe_spec_dict(
        list(reversed(values)), mask, seed=seed
    )
    # reversing the axis VALUES permutes runs, never their identity
    assert _hashes(base) == _hashes(reordered)
    # key-order shuffles inside the spec dict are invisible too
    shuffled = {k: base[k] for k in reversed(list(base))}
    assert _hashes(base) == _hashes(shuffled)
    assert [r.label for r in spec_from_dict(base).expand()] == \
        [r.label for r in spec_from_dict(shuffled).expand()]


@settings(max_examples=20)
@given(
    values=values_st,
    delta=st.integers(min_value=1, max_value=100),
    which=st.integers(min_value=0, max_value=10**6),
)
def test_knob_change_makes_new_rows(values, delta, which):
    """Changing any knob value changes that run's hash (and only its)."""
    mask = [0] * len(values)
    base = probe_spec_dict(values, mask)
    i = which % len(values)
    changed_values = list(values)
    changed_values[i] = changed_values[i] + delta
    if changed_values[i] in values:
        changed_values[i] += 10**7  # keep values unique
    changed = probe_spec_dict(changed_values, mask)
    h_base = _hashes(base)
    h_changed = _hashes(changed)
    same = set(h_base.items()) & set(h_changed.items())
    assert len(same) == len(values) - 1
    assert set(h_base.values()) != set(h_changed.values())


def test_explicit_default_is_cosmetic():
    """Stating a knob's schema default explicitly resolves to the same
    row (same hash) as omitting it."""
    implicit = probe_spec_dict([1, 2], [0, 0])
    explicit = probe_spec_dict([1, 2], [0, 0])
    explicit["defaults"]["payload"] = 3  # the probe schema default
    assert _hashes(implicit) == _hashes(explicit)


def test_campaign_seed_is_a_knob():
    """The campaign seed feeds every derived per-run seed: changing it
    changes every hash."""
    a = _hashes(probe_spec_dict([1, 2], [0, 0], seed=3))
    b = _hashes(probe_spec_dict([1, 2], [0, 0], seed=4))
    assert set(a) == set(b)  # labels unchanged
    assert all(a[label] != b[label] for label in a)


def test_gate_edit_invalidates_the_row():
    """Gates are stored in the result, so a gate edit is a knob change."""
    with_gates = probe_spec_dict([1, 2], [0, 0], gates=True)
    without = probe_spec_dict([1, 2], [0, 0], gates=False)
    a, b = _hashes(with_gates), _hashes(without)
    assert all(a[label] != b[label] for label in a)


def test_spec_errors_are_typed():
    bad_knob = probe_spec_dict([1], [0])
    bad_knob["matrix"][0]["set"] = {"no_such_knob": 1}
    with pytest.raises(SpecError):
        spec_from_dict(bad_knob).expand()
    with pytest.raises(SpecError):
        spec_from_dict({"campaign": "x"})  # no runs
    # every run is a matrix block: extra runs and exclusions are not keys
    for key in ("include", "exclude"):
        extra = probe_spec_dict([1], [0])
        extra[key] = [{"name": "extra", "value": 2}]
        with pytest.raises(SpecError, match=rf"\['{key}'\]"):
            spec_from_dict(extra)
    dup = probe_spec_dict([1, 1], [0, 0])
    with pytest.raises(SpecError):
        spec_from_dict(dup).expand()  # duplicate label/config
    retired = {"campaign": "x", "matrix": [
        {"name": "t", "set": {"kind": "solve", "n": 64, "nev": 4,
                              "tier": "executor"}}]}
    with pytest.raises(SpecError, match=(
            r"unknown tier 'executor' \(expected one of "
            r"\('dedup', 'fused'\)\)")):
        spec_from_dict(retired).expand()
    # one reduction schedule: the pipelined tier names the accepted
    # tiers, its phantom flag and chunk count are unknown knobs; one
    # replica storage: the per-replica tier is gone too
    for kind_knobs, err in (
            ({"kind": "solve", "n": 64, "nev": 4, "tier": "seed"},
             r"unknown tier 'seed' .*\('dedup', 'fused'\)"),
            ({"kind": "solve", "n": 64, "nev": 4, "tier": "pipeline"},
             r"unknown tier 'pipeline' .*\('dedup', 'fused'\)"),
            ({"kind": "phantom", "n": 64, "nev": 4, "nex": 2,
              "pipeline": True}, r"unknown knob\(s\) \['pipeline'\]"),
            ({"kind": "solve", "n": 64, "nev": 4, "pipeline_chunks": 4},
             r"unknown knob\(s\) \['pipeline_chunks'\]")):
        gone = {"campaign": "x", "matrix": [{"name": "t", "set": kind_knobs}]}
        with pytest.raises(SpecError, match=err):
            spec_from_dict(gone).expand()
    # two precisions: a sub-fp32 token names the accepted values on every
    # kind that has the knob, and the compression knob is unknown
    for kind_knobs in ({"kind": "solve", "n": 64, "nev": 4},
                       {"kind": "phantom", "n": 64, "nev": 4, "nex": 2}):
        narrow = {"campaign": "x", "matrix": [
            {"name": "t", "set": {**kind_knobs, "filter_dtype": "bf16"}}]}
        with pytest.raises(SpecError, match=(
                r"unknown filter_dtype 'bf16' \(expected one of "
                r"\('fp64', 'fp32'\)\)")):
            spec_from_dict(narrow).expand()
        compressed = {"campaign": "x", "matrix": [
            {"name": "t", "set": {**kind_knobs, "comm_compress": "none"}}]}
        with pytest.raises(SpecError, match=(
                r"unknown knob\(s\) \['comm_compress'\]")):
            spec_from_dict(compressed).expand()


def test_report_exits_nonzero_and_names_a_missed_gate(tmp_path, capsys):
    """``repro campaign report`` is a gate, not a printer: a stored run
    gate or a report gate that is not met fails the command by name."""
    import json

    from repro.cli import main

    def report(spec_dict):
        path = tmp_path / f"{spec_dict['campaign']}.json"
        path.write_text(json.dumps(spec_dict))
        common = ["--spec", str(path),
                  "--db", str(tmp_path / f"{spec_dict['campaign']}.sqlite")]
        assert main(["campaign", "run", *common]) == 0
        rc = main(["campaign", "report", *common,
                   "--results-dir", str(tmp_path / "out"),
                   "--json", str(tmp_path / "out" / "bench.json")])
        return rc, capsys.readouterr().out

    met = probe_spec_dict([1, 2], [0, 0])
    rc, out = report(met)
    assert rc == 0 and "not met" not in out

    missed = probe_spec_dict([1, 2], [0, 0])
    missed["campaign"] = "missed"
    missed["matrix"][0]["gates"]["negative"] = {
        "metric": "makespan", "op": "lt", "value": 0.0}
    missed["report"] = {"gates": {"second_is_smaller": {
        "ratio": ["probes/fail=False+value=2:makespan",
                  "probes/fail=False+value=1:makespan"],
        "op": "lt", "value": 1.0}}}
    rc, out = report(missed)
    assert rc == 1
    assert "probes/fail=False+value=1:negative" in out
    assert "second_is_smaller" in out


@pytest.mark.parametrize("action", ["status", "report"])
def test_status_and_report_refuse_a_db_without_the_campaign(
        tmp_path, capsys, action):
    """A mistyped ``--db`` is one line and exit 2, never a traceback or
    a fresh empty sqlite file; neither is a DB holding only other
    campaigns' rows."""
    import json

    from repro.cli import main

    spec = tmp_path / "proptest.json"
    spec.write_text(json.dumps(probe_spec_dict([1, 2], [0, 0])))
    other = probe_spec_dict([1, 2], [0, 0])
    other["campaign"] = "other"
    other_spec = tmp_path / "other.json"
    other_spec.write_text(json.dumps(other))
    out_dir = tmp_path / "out"
    report_args = ["--results-dir", str(out_dir),
                   "--json", str(out_dir / "bench.json")]

    missing = tmp_path / "typo.sqlite"
    rc = main(["campaign", action, "--spec", str(spec),
               "--db", str(missing), *report_args])
    assert rc == 2
    assert capsys.readouterr().out == (
        f"campaign 'proptest': no run database at {missing}\n")
    assert not missing.exists()

    shared = tmp_path / "other.sqlite"
    assert main(["campaign", "run", "--spec", str(other_spec),
                 "--db", str(shared)]) == 0
    capsys.readouterr()
    rc = main(["campaign", action, "--spec", str(spec),
               "--db", str(shared), *report_args])
    assert rc == 2
    assert capsys.readouterr().out == (
        f"campaign 'proptest': no runs in {shared}\n")
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# state machine
# ---------------------------------------------------------------------------


def test_illegal_transitions_are_typed(tmp_path):
    spec = spec_from_dict(probe_spec_dict([1, 2], [0, 0]))
    db = CampaignDB(tmp_path / "db.sqlite")
    runs = spec.expand()
    db.register(runs)
    h = runs[0].hash

    # PENDING -> DONE skips RUNNING: illegal
    with pytest.raises(IllegalTransitionError) as exc:
        db.transition(h, RunState.DONE, result={})
    assert exc.value.old is RunState.PENDING
    assert exc.value.new is RunState.DONE
    assert exc.value.run_hash == h

    # PENDING -> FAILED skips RUNNING: illegal
    with pytest.raises(IllegalTransitionError):
        db.transition(h, RunState.FAILED, error="nope")

    # the legal path
    db.transition(h, RunState.RUNNING)
    db.transition(h, RunState.DONE, result={"makespan": 1.0})

    # DONE is terminal: every move out is illegal
    for target in RunState:
        with pytest.raises(IllegalTransitionError):
            db.transition(h, target)
    assert db.result(h) == {"makespan": 1.0}

    # FAILED rows reopen (retry) but never jump straight to DONE
    h2 = runs[1].hash
    db.transition(h2, RunState.RUNNING)
    db.transition(h2, RunState.FAILED, error="ProbeFailure: boom")
    with pytest.raises(IllegalTransitionError):
        db.transition(h2, RunState.DONE, result={})
    db.transition(h2, RunState.PENDING)
    assert db.state(h2) is RunState.PENDING
    assert db.result(h2) is None  # reopened rows shed stale output

    with pytest.raises(UnknownRunError):
        db.state("0" * 64)
    with pytest.raises(UnknownRunError):
        db.transition("0" * 64, RunState.RUNNING)


def test_recover_stale(tmp_path):
    spec = spec_from_dict(probe_spec_dict([1, 2, 3], [0, 1, 0]))
    db = CampaignDB(tmp_path / "db.sqlite")
    runs = spec.expand()
    db.register(runs)
    # a dead process left a row RUNNING
    db.transition(runs[0].hash, RunState.RUNNING)
    assert db.recover_stale() == 1
    assert db.state(runs[0].hash) is RunState.PENDING
    stats = CampaignRunner(spec, db).run()
    assert stats.failed == 1
    assert db.counts()["pending"] == 0


# ---------------------------------------------------------------------------
# end-to-end on the real smoke campaign (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_smoke_campaign_interrupt_resume_end_to_end(tmp_path):
    """The full acceptance loop on real runs (numeric solves + phantom
    replays): interrupt mid-run, resume from sqlite, byte-identical
    reports, DONE rows provably skipped, skip-equals-run on a numeric
    solve row."""
    spec = smoke_spec()
    total = len(spec.expand())
    kill_after = 2

    interrupted = CampaignDB(tmp_path / "interrupted.sqlite")
    with pytest.raises(CampaignInterrupted):
        CampaignRunner(
            spec, interrupted, interrupt_after=kill_after,
            interrupt_mid_run=True,
        ).run()
    counts = interrupted.counts(spec.name)
    assert counts["done"] == kill_after
    assert counts["running"] == 1  # the mid-run kill left a stale row

    resumed = CampaignRunner(spec, interrupted).run()
    assert resumed.recovered == 1
    assert resumed.executed == total - kill_after
    assert resumed.resumed_skips == kill_after
    assert resumed.failed == 0

    reference = CampaignDB(tmp_path / "reference.sqlite")
    fresh = CampaignRunner(spec, reference).run()
    assert fresh.executed == total

    assert interrupted.dump() == reference.dump()
    assert campaign_table(interrupted, spec.name) == \
        campaign_table(reference, spec.name)
    assert canonical_json(campaign_section(interrupted, spec.name)) == \
        canonical_json(campaign_section(reference, spec.name))

    # every smoke gate holds, in both the per-run booleans and the
    # report rollup
    section = campaign_section(interrupted, spec.name)
    gate_keys = [k for k in section if k.startswith("target_met_")]
    assert gate_keys and all(section[k] for k in gate_keys)

    # skip-equals-run on a real numeric solve
    solve_rows = [
        r for r in interrupted.rows(spec.name) if r.kind == "solve"
    ]
    assert solve_rows
    row = solve_rows[0]
    assert canonical_json(execute_run(interrupted.config(row.hash))) == \
        canonical_json(row.result)
