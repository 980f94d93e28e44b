"""The campaign run database (DESIGN.md §5k).

One sqlite row per expanded run, keyed by the content hash of the
resolved config (:func:`repro.campaign.spec.config_hash`).  Rows move
through a typed state machine::

    PENDING -> RUNNING -> DONE            (result stored)
    PENDING -> RUNNING -> FAILED          (error stored, campaign lives)
    RUNNING -> PENDING                    (crash recovery on resume)
    FAILED  -> PENDING                    (explicit retry)

DONE is terminal: a resumed campaign skips DONE rows whose hash still
matches the spec, and the harness proves that skip is equivalent to
re-running (tests/test_campaign.py).  Every other move raises
:class:`IllegalTransitionError`.

The DB stores **no timestamps and no attempt counters** — deliberately.
:meth:`CampaignDB.dump` must be byte-identical between an interrupted-
then-resumed campaign and an uninterrupted one; wall-clock noise in the
rows would break that identity, so anything time-flavored lives only in
process output, never in the store.
"""

from __future__ import annotations

import enum
import json
import pathlib
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .spec import ResolvedRun, canonical_json

__all__ = [
    "RunState",
    "CampaignError",
    "UnknownRunError",
    "IllegalTransitionError",
    "CampaignDB",
    "RegisterStats",
    "Row",
]


class RunState(enum.Enum):
    """Lifecycle of one campaign run."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


#: legal transitions; everything else raises IllegalTransitionError
_LEGAL: dict[RunState, frozenset[RunState]] = {
    RunState.PENDING: frozenset({RunState.RUNNING}),
    RunState.RUNNING: frozenset(
        {RunState.DONE, RunState.FAILED, RunState.PENDING}
    ),
    RunState.FAILED: frozenset({RunState.PENDING}),
    RunState.DONE: frozenset(),
}


class CampaignError(RuntimeError):
    """Base class for campaign-store failures."""


class UnknownRunError(CampaignError, KeyError):
    """No row with that hash in the database."""

    def __init__(self, run_hash: str) -> None:
        super().__init__(f"no run with hash {run_hash[:12]}… in the DB")
        self.run_hash = run_hash


class IllegalTransitionError(CampaignError):
    """A state move outside the legal table was attempted."""

    def __init__(self, run_hash: str, old: RunState, new: RunState) -> None:
        super().__init__(
            f"run {run_hash[:12]}…: illegal transition "
            f"{old.value} -> {new.value}"
        )
        self.run_hash = run_hash
        self.old = old
        self.new = new


@dataclass(frozen=True)
class RegisterStats:
    """What :meth:`CampaignDB.register` did."""

    new: int = 0        # rows inserted as PENDING
    existing: int = 0   # rows already present, left untouched


@dataclass(frozen=True)
class Row:
    """One run row, decoded."""

    hash: str
    campaign: str
    label: str
    kind: str
    config: dict[str, Any]
    state: RunState
    result: dict[str, Any] | None
    error: str | None


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    hash     TEXT PRIMARY KEY,
    campaign TEXT NOT NULL,
    label    TEXT NOT NULL,
    kind     TEXT NOT NULL,
    config   TEXT NOT NULL,
    state    TEXT NOT NULL,
    result   TEXT,
    error    TEXT
);
CREATE INDEX IF NOT EXISTS runs_campaign ON runs (campaign, label);
CREATE TABLE IF NOT EXISTS meta (
    campaign TEXT NOT NULL,
    key      TEXT NOT NULL,
    value    TEXT NOT NULL,
    PRIMARY KEY (campaign, key)
);
"""


class CampaignDB:
    """sqlite-backed run store; safe to reopen across processes."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    # ------------------------------------------------------------- plumbing
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignDB":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------ register
    def register(self, runs: Iterable[ResolvedRun]) -> RegisterStats:
        """Insert missing rows as PENDING.

        Existing rows are never touched here — resume recovery is
        :meth:`recover_stale`'s explicit job.
        """
        new = existing = 0
        for run in runs:
            row = self._conn.execute(
                "SELECT state FROM runs WHERE hash = ?", (run.hash,)
            ).fetchone()
            if row is not None:
                existing += 1
                continue
            self._conn.execute(
                "INSERT INTO runs (hash, campaign, label, kind,"
                " config, state, result, error)"
                " VALUES (?, ?, ?, ?, ?, ?, NULL, NULL)",
                (run.hash, run.campaign, run.label, run.kind,
                 canonical_json(run.config), RunState.PENDING.value),
            )
            new += 1
        self._conn.commit()
        return RegisterStats(new=new, existing=existing)

    # ------------------------------------------------------------- queries
    def state(self, run_hash: str) -> RunState:
        row = self._conn.execute(
            "SELECT state FROM runs WHERE hash = ?", (run_hash,)
        ).fetchone()
        if row is None:
            raise UnknownRunError(run_hash)
        return RunState(row[0])

    def result(self, run_hash: str) -> dict[str, Any] | None:
        row = self._conn.execute(
            "SELECT result FROM runs WHERE hash = ?", (run_hash,)
        ).fetchone()
        if row is None:
            raise UnknownRunError(run_hash)
        return json.loads(row[0]) if row[0] is not None else None

    def config(self, run_hash: str) -> dict[str, Any]:
        row = self._conn.execute(
            "SELECT config FROM runs WHERE hash = ?", (run_hash,)
        ).fetchone()
        if row is None:
            raise UnknownRunError(run_hash)
        return json.loads(row[0])

    def rows(self, campaign: str | None = None) -> list[Row]:
        """All rows (optionally one campaign), in deterministic order."""
        query = (
            "SELECT hash, campaign, label, kind, config, state,"
            " result, error FROM runs"
        )
        params: tuple = ()
        if campaign is not None:
            query += " WHERE campaign = ?"
            params = (campaign,)
        query += " ORDER BY campaign, label, hash"
        out = []
        for h, camp, label, kind, cfg, state, result, error in \
                self._conn.execute(query, params):
            out.append(Row(
                hash=h, campaign=camp, label=label, kind=kind,
                config=json.loads(cfg), state=RunState(state),
                result=json.loads(result) if result is not None else None,
                error=error,
            ))
        return out

    def counts(self, campaign: str | None = None) -> dict[str, int]:
        out = {s.value: 0 for s in RunState}
        for row in self.rows(campaign):
            out[row.state.value] += 1
        return out

    # --------------------------------------------------------- transitions
    def transition(
        self,
        run_hash: str,
        new: RunState,
        *,
        result: Mapping[str, Any] | None = None,
        error: str | None = None,
    ) -> None:
        """Move a run to ``new``, enforcing the legal-transition table."""
        old = self.state(run_hash)
        if new not in _LEGAL[old]:
            raise IllegalTransitionError(run_hash, old, new)
        if new is RunState.DONE:
            if result is None:
                raise CampaignError(
                    f"run {run_hash[:12]}…: DONE needs a result"
                )
            self._conn.execute(
                "UPDATE runs SET state = ?, result = ?, error = NULL"
                " WHERE hash = ?",
                (new.value, canonical_json(result), run_hash),
            )
        elif new is RunState.FAILED:
            self._conn.execute(
                "UPDATE runs SET state = ?, result = NULL, error = ?"
                " WHERE hash = ?",
                (new.value, error or "unknown error", run_hash),
            )
        elif new is RunState.PENDING:
            # reopened rows must shed stale output: a retry that kept an
            # old result would poison the skip-equals-run property
            self._conn.execute(
                "UPDATE runs SET state = ?, result = NULL, error = NULL"
                " WHERE hash = ?",
                (new.value, run_hash),
            )
        else:
            self._conn.execute(
                "UPDATE runs SET state = ?, error = ? WHERE hash = ?",
                (new.value, error, run_hash),
            )
        self._conn.commit()

    def recover_stale(self, campaign: str | None = None) -> int:
        """RUNNING -> PENDING for rows a dead process left behind."""
        n = 0
        for row in self.rows(campaign):
            if row.state is RunState.RUNNING:
                self.transition(row.hash, RunState.PENDING)
                n += 1
        return n

    # ----------------------------------------------------------------- meta
    def set_meta(self, campaign: str, key: str, value: Any) -> None:
        self._conn.execute(
            "INSERT INTO meta (campaign, key, value) VALUES (?, ?, ?)"
            " ON CONFLICT (campaign, key) DO UPDATE SET value = excluded.value",
            (campaign, key, canonical_json(value)),
        )
        self._conn.commit()

    def get_meta(self, campaign: str, key: str, default: Any = None) -> Any:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE campaign = ? AND key = ?",
            (campaign, key),
        ).fetchone()
        return json.loads(row[0]) if row is not None else default

    # ----------------------------------------------------------------- dump
    def dump(self, campaign: str | None = None) -> str:
        """Canonical JSON of the whole store, for byte-identity checks.

        Deterministic by construction: rows ordered by (campaign,
        label, hash), canonical JSON throughout, and no timestamps or
        attempt counters anywhere in the schema.  An interrupted-then-
        resumed campaign dumps byte-identically to an uninterrupted one.
        """
        payload = {
            "runs": [
                {
                    "hash": r.hash, "campaign": r.campaign,
                    "label": r.label, "kind": r.kind,
                    "config": r.config, "state": r.state.value,
                    "result": r.result, "error": r.error,
                }
                for r in self.rows(campaign)
            ],
            "meta": {},
        }
        query = "SELECT campaign, key, value FROM meta"
        params: tuple = ()
        if campaign is not None:
            query += " WHERE campaign = ?"
            params = (campaign,)
        for camp, key, value in self._conn.execute(
            query + " ORDER BY campaign, key", params
        ):
            payload["meta"].setdefault(camp, {})[key] = json.loads(value)
        return canonical_json(payload)
