"""Crash-consistency validation: campaigns, fault models, and the
persist-order oracle (see ``docs/VALIDATION.md``)."""

from .campaign import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignReport,
    Cell,
    TrialSpec,
    profile_cell,
    run_campaign,
    run_trial,
    snapshot_cell,
    verify_cell,
)
from .faults import (
    DEFAULT_FAULTS,
    FAULT_NAMES,
    FaultModel,
    PersistDelayFault,
    PowerCutFault,
    TornLogFault,
    VirtualMisspecFault,
    WindowExpiryFault,
    fault_by_name,
)
from .history import (
    HistoryEvent,
    detection,
    fase_span,
    history_from_recorder,
    persist,
    read,
    truncate_history,
    writeback,
)
from .oracle import (
    FASE_ATOMICITY,
    INTRA_THREAD_ORDER,
    SPEC_ID_ORDER,
    STALE_READ,
    VIOLATION_KINDS,
    PersistOrderOracle,
    Violation,
)
from .planners import (
    PLANNER_NAMES,
    AdaptivePlanner,
    ExhaustivePlanner,
    Planner,
    RunProfile,
    StratifiedPlanner,
    planner_by_name,
)
from .shrink import ShrinkResult, shrink_crash_cycle

__all__ = [
    "AdaptivePlanner", "CAMPAIGN_SCHEMA_VERSION", "CampaignReport", "Cell",
    "DEFAULT_FAULTS", "ExhaustivePlanner", "FASE_ATOMICITY",
    "FAULT_NAMES", "FaultModel", "HistoryEvent", "INTRA_THREAD_ORDER",
    "PLANNER_NAMES", "PersistDelayFault", "PersistOrderOracle",
    "Planner", "PowerCutFault", "RunProfile", "SPEC_ID_ORDER",
    "STALE_READ", "ShrinkResult", "StratifiedPlanner", "TornLogFault",
    "TrialSpec", "VIOLATION_KINDS", "Violation", "VirtualMisspecFault",
    "WindowExpiryFault", "detection", "fase_span", "fault_by_name",
    "history_from_recorder", "persist", "planner_by_name",
    "profile_cell", "read", "run_campaign", "run_trial",
    "snapshot_cell", "verify_cell",
    "shrink_crash_cycle", "truncate_history", "writeback",
]
