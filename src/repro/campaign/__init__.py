"""Declarative campaign runner with a resumable run database.

The musered-style workflow (DESIGN.md §5k): a YAML spec describes an
experiment matrix, every expanded run gets one content-hash-keyed row
in a sqlite DB, the dispatcher fans the pending rows out through the
service scheduler's shards, and the reports — the
``BENCH_wallclock.json`` sections and ``benchmarks/results/*.txt``
tables — are regenerated from DB queries alone.  Interrupt it whenever;
resuming skips DONE rows, and the property-based harness
(tests/test_campaign.py) proves the skip equivalent to a re-run.
"""

from repro.campaign.spec import (
    CampaignSpec,
    ResolvedRun,
    SpecError,
    canonical_json,
    config_hash,
    load_spec,
    smoke_spec,
    spec_from_dict,
)
from repro.campaign.db import (
    CampaignDB,
    CampaignError,
    IllegalTransitionError,
    RegisterStats,
    Row,
    RunState,
    UnknownRunError,
    active_campaign,
    campaign_db_scope,
    record_artifact_if_active,
)
from repro.campaign.runner import (
    TIERS,
    CampaignInterrupted,
    CampaignRunner,
    CampaignStats,
    ProbeFailure,
    execute_run,
)
from repro.campaign.report import (
    campaign_section,
    campaign_table,
    missed_gates,
    write_report,
)

__all__ = [
    "CampaignSpec",
    "ResolvedRun",
    "SpecError",
    "canonical_json",
    "config_hash",
    "load_spec",
    "smoke_spec",
    "spec_from_dict",
    "CampaignDB",
    "CampaignError",
    "IllegalTransitionError",
    "RegisterStats",
    "Row",
    "RunState",
    "UnknownRunError",
    "active_campaign",
    "campaign_db_scope",
    "record_artifact_if_active",
    "TIERS",
    "CampaignInterrupted",
    "CampaignRunner",
    "CampaignStats",
    "ProbeFailure",
    "execute_run",
    "campaign_section",
    "campaign_table",
    "missed_gates",
    "write_report",
]
