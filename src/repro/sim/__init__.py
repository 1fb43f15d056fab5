"""Discrete-event simulation kernel (events, processes, resources,
stats, tracing, metrics, the cell-scoped collector pause)."""

from .collector import collector_paused
from .engine import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    AllOf,
    AnyOf,
    CalendarScheduler,
    Environment,
    Event,
    HeapScheduler,
    Interrupted,
    Process,
    SimulationError,
    Timeout,
    make_scheduler,
)
from .metrics import (
    NULL_METRICS,
    Metrics,
    MetricsCollector,
    NullMetrics,
)
from .resources import (
    CapacityQueue,
    Mutex,
    OccupancyQueue,
    TimelineResource,
)
from .stats import Counter, Histogram, RunningStat, geomean
from .trace import (
    NULL_TRACER,
    NullTracer,
    TraceRecorder,
    Tracer,
    validate_trace_document,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "CalendarScheduler",
    "CapacityQueue",
    "Counter",
    "DEFAULT_SCHEDULER",
    "Environment",
    "Event",
    "HeapScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "Histogram",
    "Interrupted",
    "Metrics",
    "MetricsCollector",
    "Mutex",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetrics",
    "NullTracer",
    "OccupancyQueue",
    "Process",
    "RunningStat",
    "SimulationError",
    "Timeout",
    "TimelineResource",
    "TraceRecorder",
    "Tracer",
    "collector_paused",
    "geomean",
    "validate_trace_document",
]
