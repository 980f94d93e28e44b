"""Declarative campaign specs (DESIGN.md §5k).

A campaign is a YAML (or plain ``dict``) description of an experiment
matrix — the suites × grids × backends × execution tiers × precision
triples × fault plans of the paper's Sec. 4 evaluation — expanded into a
flat list of fully *resolved* runs.  Resolution fills every knob with
its schema default, so a spec that omits a knob and one that states the
default explicitly describe the same run.

Each resolved run is identified by a **content hash** over the resolved
config (plus the schema version): any knob change produces a new hash —
and therefore a new row in the :mod:`~repro.campaign.db` run database —
while cosmetic edits (YAML key order, axis order, block reordering,
explicit-default knobs, labels) do not.  The per-run ``seed`` defaults
to a value derived from the campaign seed and the config's own hash, so
seeds are stable under cosmetic edits too.

Spec schema::

    campaign: mixed_precision      # name (required)
    seed: 11                       # campaign seed (default 0)
    defaults: {kind: phantom, ...} # knobs shared by every run
    matrix:                        # list of blocks
      - name: filter               # block name (required, label prefix)
        set: {backend: nccl}       # knobs fixed for this block
        axes:                      # cross product over axis values
          tier: [seed, dedup]      #   scalar value -> knob = axis name
          config:                  #   mapping value -> several knobs
            - {filter_dtype: fp32, qr_dtype: fp32}
        gates:                     # per-run acceptance gates
          converged: {metric: converged, op: eq, value: true}
    include:                       # explicit extra runs (full knob dicts)
      - {name: extra, tier: fused}
    exclude:                       # drop or skip matching runs
      - match: {tier: seed, backend: mpi}
        action: skip               # "drop" (default) removes the run;
        reason: redundant baseline # "skip" keeps a SKIPPED audit row
    report:                        # campaign-level report gates,
      gates:                       # computed from DB queries alone
        filter_speedup_fp32:
          ratio: ["filter/filter_dtype=fp64:phases.Filter.total",
                  "filter/filter_dtype=fp32:phases.Filter.total"]
          op: ge
          value: 1.3
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.runtime.config import PRECISION_MODES
from repro.runtime.transport import BACKEND_TOKENS, COMM_MODELS

__all__ = [
    "SCHEMA_VERSION",
    "SpecError",
    "ResolvedRun",
    "CampaignSpec",
    "canonical_json",
    "config_hash",
    "load_spec",
    "spec_from_dict",
    "smoke_spec",
]

#: bumped whenever resolution semantics change in a way that invalidates
#: stored results; participates in every config hash
SCHEMA_VERSION = 3

#: keys that never participate in the content hash (purely cosmetic /
#: bookkeeping — changing them must not invalidate stored results).
#: ``gates`` is NOT cosmetic: gate evaluations are stored in the run
#: result, so a gate edit must produce a new row and a re-run.
_COSMETIC_KEYS = frozenset({"label", "skip", "skip_reason"})


class SpecError(ValueError):
    """The campaign spec is malformed (typed, caught by the CLI)."""


# ---------------------------------------------------------------------------
# canonicalization + hashing
# ---------------------------------------------------------------------------


def _normalize(obj: Any) -> Any:
    """Plain JSON-serializable python (tuples -> lists, numpy -> python)."""
    if isinstance(obj, Mapping):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if hasattr(obj, "item"):  # numpy scalar
        return _normalize(obj.item())
    raise SpecError(f"non-serializable spec value {obj!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, round-trip floats.

    Two structurally equal objects always serialize to identical bytes,
    whatever insertion order their mappings had — the property the
    content hash and every byte-identity test in the harness lean on.
    """
    return json.dumps(
        _normalize(obj), sort_keys=True, separators=(",", ":")
    )


def config_hash(config: Mapping[str, Any]) -> str:
    """Content hash of a resolved run config.

    Hashes the canonical JSON of the config minus cosmetic keys, plus
    the schema version.  Any code-relevant knob change yields a new
    hash; reordering, relabeling, or re-stating defaults does not.
    """
    payload = {
        k: v for k, v in config.items() if k not in _COSMETIC_KEYS
    }
    payload["schema"] = SCHEMA_VERSION
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _derived_seed(config: Mapping[str, Any], campaign_seed: int) -> int:
    """Per-run seed: stable under cosmetic edits, fresh per knob change."""
    payload = {
        k: v for k, v in config.items()
        if k not in _COSMETIC_KEYS and k != "seed"
    }
    payload["schema"] = SCHEMA_VERSION
    h = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return (int(h[:8], 16) ^ (campaign_seed * 2654435761)) % (2**31)


# ---------------------------------------------------------------------------
# per-kind knob schemas (defaults applied at resolution time)
# ---------------------------------------------------------------------------

_REQUIRED = object()

#: knob -> default, per run kind.  ``_REQUIRED`` knobs must be supplied
#: by the spec; unknown knobs are a typed error so every knob that can
#: appear in a hash is a real, code-relevant knob.
_SCHEMAS: dict[str, dict[str, Any]] = {
    # a full numeric distributed solve on the simulated cluster
    "solve": {
        "n": _REQUIRED,
        "nev": _REQUIRED,
        "nex": None,              # None -> max(2, nev // 2)
        "deg": None,              # None -> ChaseConfig default
        "tol": 1e-10,
        "dtype": "float64",       # float64 | complex128
        "matrix": "uniform",
        "ranks": 4,
        "backend": "nccl",        # comm model or execution transport
        "tier": "dedup",          # seed|dedup|fused
        "filter_dtype": None,     # fp64|fp32
        "qr_dtype": None,
        "fault_seed": None,
        "fault_events": 4,
        "fault_horizon": 0.01,
        "checkpoint_every": None,
        "oracle": False,          # also record eigvalsh comparison
    },
    # a paper-scale phantom replay (cost model only, no numerics)
    "phantom": {
        "n": _REQUIRED,
        "nev": _REQUIRED,
        "nex": _REQUIRED,
        "nodes": 2,
        "scheme": "new",          # new | lms
        "backend": "nccl",        # nccl | mpi | mpi-host
        "deg": 20,
        "iters": 1,
        "qr_variant": "CholeskyQR2",
        "filter_dtype": None,
    },
    # a model-driven autotune dry run (DESIGN.md §5e)
    "tune": {
        "n": _REQUIRED,
        "nev": _REQUIRED,
        "nex": _REQUIRED,
        "ranks": 8,
        "backend": "nccl",
        "iterations": 2,
        "precision": False,
    },
    # a cheap deterministic pseudo-run: the harness's own property
    # tests (and spec dry runs) exercise the runner/DB machinery with
    # probes instead of minutes of numerics
    "probe": {
        "value": 0.0,
        "fail": False,
        "payload": 3,
    },
}

_TIERS = ("seed", "dedup", "fused")
_MODEL_BACKENDS = tuple(COMM_MODELS)


def _validate(config: dict[str, Any], label: str) -> None:
    kind = config["kind"]
    for knob in ("filter_dtype", "qr_dtype"):
        if config.get(knob) is not None and \
                config[knob] not in PRECISION_MODES:
            raise SpecError(
                f"{label}: unknown {knob} {config[knob]!r} "
                f"(expected one of {PRECISION_MODES})"
            )
    if kind == "solve":
        if config["tier"] not in _TIERS:
            raise SpecError(
                f"{label}: unknown tier {config['tier']!r} "
                f"(expected one of {_TIERS})"
            )
        if config["backend"] not in BACKEND_TOKENS:
            raise SpecError(
                f"{label}: unknown backend {config['backend']!r} "
                f"(expected one of {BACKEND_TOKENS})"
            )
        if config["dtype"] not in ("float64", "complex128"):
            raise SpecError(f"{label}: unknown dtype {config['dtype']!r}")
    elif kind == "phantom":
        if config["backend"] not in _MODEL_BACKENDS:
            raise SpecError(
                f"{label}: phantom backend must be a comm model "
                f"({_MODEL_BACKENDS}), got {config['backend']!r}"
            )
        if config["scheme"] not in ("new", "lms"):
            raise SpecError(f"{label}: unknown scheme {config['scheme']!r}")
    elif kind == "tune":
        if config["backend"] not in _MODEL_BACKENDS:
            raise SpecError(
                f"{label}: tune backend must be a comm model, "
                f"got {config['backend']!r}"
            )


def resolve_config(
    raw: Mapping[str, Any], *, campaign: str, campaign_seed: int,
    label: str, soft: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Fill defaults, validate knobs, derive the per-run seed.

    ``raw`` holds *binding* knobs (block ``set``, axes, includes): an
    unknown knob there is a typed error.  ``soft`` holds the spec-level
    ``defaults``, which are shared by every run kind — knobs a kind's
    schema doesn't know are silently dropped, so one defaults block can
    serve a matrix mixing solves with phantoms and tunes.
    """
    raw = dict(raw)
    soft = dict(soft or {})
    kind = raw.pop("kind", soft.pop("kind", None))
    if kind not in _SCHEMAS:
        raise SpecError(
            f"{label}: unknown run kind {kind!r} "
            f"(expected one of {sorted(_SCHEMAS)})"
        )
    schema = _SCHEMAS[kind]
    seed = raw.pop("seed", soft.pop("seed", None))
    gates = raw.pop("gates", {})
    config: dict[str, Any] = {"campaign": campaign, "kind": kind}
    for knob, default in schema.items():
        if knob in raw:
            config[knob] = _normalize(raw.pop(knob))
        elif knob in soft:
            config[knob] = _normalize(soft[knob])
        elif default is _REQUIRED:
            raise SpecError(f"{label}: missing required knob {knob!r}")
        else:
            config[knob] = default
    if raw:
        raise SpecError(
            f"{label}: unknown knob(s) {sorted(raw)} for kind {kind!r}"
        )
    if kind == "solve" and config["nex"] is None:
        config["nex"] = max(2, config["nev"] // 2)
    _validate(config, label)
    config["seed"] = (
        int(seed) if seed is not None
        else _derived_seed(config, campaign_seed)
    )
    config["gates"] = _normalize(gates)
    config["label"] = label
    return config


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedRun:
    """One fully resolved run of the campaign matrix."""

    campaign: str
    label: str
    kind: str
    hash: str
    config: dict[str, Any] = field(hash=False)
    skip: bool = False
    skip_reason: str | None = None


def _axis_parts(axis: str, value: Any) -> list[tuple[str, Any]]:
    """``(knob, value)`` pairs one axis value contributes to a run."""
    if isinstance(value, Mapping):
        return [(str(k), v) for k, v in value.items()]
    return [(axis, value)]


def _label_suffix(pairs: Iterable[tuple[str, Any]]) -> str:
    return "+".join(f"{k}={v}" for k, v in sorted(pairs, key=lambda p: p[0]))


class CampaignSpec:
    """A parsed campaign spec; :meth:`expand` yields the resolved runs."""

    def __init__(
        self,
        name: str,
        *,
        seed: int = 0,
        defaults: Mapping[str, Any] | None = None,
        matrix: list[Mapping[str, Any]] | None = None,
        include: list[Mapping[str, Any]] | None = None,
        exclude: list[Mapping[str, Any]] | None = None,
        report: Mapping[str, Any] | None = None,
    ) -> None:
        if not name or not isinstance(name, str):
            raise SpecError("campaign needs a non-empty name")
        self.name = name
        self.seed = int(seed)
        self.defaults = dict(defaults or {})
        self.matrix = [dict(b) for b in (matrix or [])]
        self.include = [dict(r) for r in (include or [])]
        self.exclude = [dict(e) for e in (exclude or [])]
        self.report = _normalize(report or {})
        if not self.matrix and not self.include:
            raise SpecError(f"campaign {name!r} defines no runs")
        for block in self.matrix:
            if not block.get("name"):
                raise SpecError(f"campaign {name!r}: matrix block "
                                "without a name")
        for rule in self.exclude:
            if "match" not in rule or not isinstance(rule["match"], Mapping):
                raise SpecError("exclude rules need a 'match' mapping")
            if rule.get("action", "drop") not in ("drop", "skip"):
                raise SpecError(
                    f"exclude action must be drop|skip, "
                    f"got {rule.get('action')!r}"
                )

    # -------------------------------------------------------------- expand
    def _raw_runs(self) -> list[tuple[str, dict[str, Any], dict]]:
        """(label, raw knob dict, gates) before resolution/exclusion."""
        out: list[tuple[str, dict[str, Any], dict]] = []
        for block in self.matrix:
            bname = block["name"]
            base = dict(block.get("set", {}))
            # block gates merge over default gates; a block entry of
            # null drops the inherited gate (e.g. a tune block opting
            # out of a solve-only 'converged' default)
            gates = {**dict(self.defaults.get("gates", {}) or {}),
                     **dict(block.get("gates", {}) or {})}
            gates = {k: v for k, v in gates.items() if v is not None}
            axes = dict(block.get("axes", {}) or {})
            if not axes:
                out.append((bname, dict(base), gates))
                continue
            # sorted axis names: the cross-product order (and with it
            # run labels, dispatch order, and the report) is invariant
            # under cosmetic axis reordering in the spec
            names = sorted(axes)
            for combo in itertools.product(*(axes[a] for a in names)):
                raw = dict(base)
                pairs: list[tuple[str, Any]] = []
                for axis, value in zip(names, combo):
                    for knob, v in _axis_parts(axis, value):
                        raw[knob] = v
                        pairs.append((knob, v))
                out.append((f"{bname}/{_label_suffix(pairs)}", raw, gates))
        for entry in self.include:
            entry = dict(entry)
            name = entry.pop("name", None)
            if not name:
                raise SpecError("include entries need a 'name'")
            gates = dict(entry.pop("gates", {}) or {})
            out.append((name, entry, gates))
        return out

    def _exclusion(self, config: Mapping[str, Any]):
        for rule in self.exclude:
            if all(config.get(k) == v for k, v in rule["match"].items()):
                return rule.get("action", "drop"), rule.get("reason")
        return None, None

    def expand(self) -> list[ResolvedRun]:
        """The resolved run list, in deterministic spec order."""
        runs: list[ResolvedRun] = []
        seen_labels: set[str] = set()
        seen_hashes: dict[str, str] = {}
        for label, raw, gates in self._raw_runs():
            if label in seen_labels:
                raise SpecError(f"duplicate run label {label!r}")
            seen_labels.add(label)
            raw = dict(raw)
            raw.setdefault("gates", gates)
            config = resolve_config(
                raw, campaign=self.name, campaign_seed=self.seed,
                label=label, soft=self.defaults,
            )
            action, reason = self._exclusion(config)
            if action == "drop":
                continue
            h = config_hash(config)
            if h in seen_hashes:
                raise SpecError(
                    f"runs {seen_hashes[h]!r} and {label!r} resolve to "
                    f"the same config (hash {h[:12]})"
                )
            seen_hashes[h] = label
            runs.append(ResolvedRun(
                campaign=self.name, label=label, kind=config["kind"],
                hash=h, config=config, skip=action == "skip",
                skip_reason=reason,
            ))
        if not runs:
            raise SpecError(
                f"campaign {self.name!r}: every run was excluded"
            )
        return runs


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def spec_from_dict(data: Mapping[str, Any]) -> CampaignSpec:
    data = dict(data)
    name = data.pop("campaign", None)
    if name is None:
        raise SpecError("spec needs a top-level 'campaign' name")
    known = {"seed", "defaults", "matrix", "include", "exclude", "report"}
    unknown = set(data) - known
    if unknown:
        raise SpecError(f"unknown top-level spec key(s) {sorted(unknown)}")
    return CampaignSpec(name, **{k: data[k] for k in known if k in data})


def load_spec(path: str | pathlib.Path) -> CampaignSpec:
    """Load a campaign spec from YAML (or JSON) on disk.

    YAML needs PyYAML; a ``.json`` spec always works (the container
    bakes in the python toolchain — no new dependencies).
    """
    path = pathlib.Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return spec_from_dict(json.loads(text))
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-specific
        raise SpecError(
            f"{path}: YAML specs need PyYAML (write the spec as .json "
            "to avoid the dependency)"
        ) from exc
    return spec_from_dict(yaml.safe_load(text))


def smoke_spec() -> CampaignSpec:
    """The built-in CI smoke campaign: a small 2-block matrix whose run
    crosses numeric tiers with a phantom backend pair (the
    ``repro campaign run --smoke`` gate interrupts and resumes it)."""
    return spec_from_dict({
        "campaign": "smoke",
        "seed": 5,
        "defaults": {
            # explicit shared seed: the cross-run identity gates below
            # compare runs that must draw the same matrix
            "kind": "solve", "n": 120, "nev": 12, "nex": 6, "seed": 99,
            "ranks": 4, "backend": "nccl", "tol": 1e-9,
            "gates": {
                "converged": {"metric": "converged", "op": "eq",
                              "value": True},
            },
        },
        "matrix": [
            {"name": "tiers", "axes": {"tier": ["seed", "dedup"]}},
            {
                "name": "model",
                "set": {
                    "kind": "phantom", "nodes": 1, "n": 4000,
                    "nev": 120, "nex": 40, "deg": 12, "iters": 1,
                    "gates": {
                        "filter_positive": {
                            "metric": "phases.Filter.total",
                            "op": "gt", "value": 0.0,
                        },
                    },
                },
                "axes": {"backend": ["nccl", "mpi"]},
            },
        ],
        "report": {
            "gates": {
                "dedup_bit_identical": {
                    "equal": ["tiers/tier=seed:eig_sha",
                              "tiers/tier=dedup:eig_sha"],
                },
                "makespan_identical": {
                    "ratio": ["tiers/tier=seed:makespan",
                              "tiers/tier=dedup:makespan"],
                    "op": "eq", "value": 1.0,
                },
                "nccl_beats_std_model": {
                    "ratio": ["model/backend=mpi:makespan",
                              "model/backend=nccl:makespan"],
                    "op": "gt", "value": 1.0,
                },
            },
        },
    })
