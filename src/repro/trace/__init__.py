"""Trace data model and I/O (OTF2-like substrate).

Public surface:

* :class:`Trace`, :class:`ProcessTrace` — immutable trace containers.
* :class:`EventList`, :class:`EventKind`, :class:`Event` — event streams.
* :class:`TraceBuilder` — programmatic construction.
* Definitions: :class:`Region`, :class:`Metric`, :class:`Location`,
  :class:`Paradigm`, :class:`RegionRole`, :class:`MetricMode`.
* I/O: :class:`TraceIndex` is the one reader of both formats
  (:func:`read_trace` is ``TraceIndex(path).load()``);
  :func:`write_jsonl` and :func:`write_binary` write them.
* Transformations: :func:`clip_trace`, :func:`filter_regions`,
  :func:`select_ranks`, :func:`merge_traces`.
* Validation: :func:`validate_trace`.
"""

from .binio import write_binary
from .builder import ProcessBuilder, TraceBuilder
from .cursor import (
    EventBatch,
    EventCursor,
    FeedCursor,
    IndexCursor,
    JsonlStreamCursor,
    TailCursor,
)
from .definitions import (
    Location,
    Metric,
    MetricMode,
    MetricRegistry,
    Paradigm,
    Region,
    RegionRegistry,
    RegionRole,
    default_role,
)
from .events import Event, EventKind, EventList, EventListBuilder, NO_PARTNER, NO_REF
from .filters import clip_trace, filter_regions, select_ranks
from .fingerprint import (
    TraceFingerprint,
    fingerprint_definitions,
    fingerprint_events,
    fingerprint_trace,
)
from .merge import merge_traces
from .reader import TraceIndex, read_trace
from .trace import ProcessTrace, Trace
from .validate import ValidationIssue, ValidationReport, validate_trace
from .writer import write_jsonl

__all__ = [
    "Event",
    "EventBatch",
    "EventCursor",
    "EventKind",
    "EventList",
    "EventListBuilder",
    "FeedCursor",
    "IndexCursor",
    "JsonlStreamCursor",
    "Location",
    "Metric",
    "MetricMode",
    "MetricRegistry",
    "NO_PARTNER",
    "NO_REF",
    "Paradigm",
    "ProcessBuilder",
    "ProcessTrace",
    "Region",
    "RegionRegistry",
    "RegionRole",
    "TailCursor",
    "Trace",
    "TraceBuilder",
    "TraceFingerprint",
    "TraceIndex",
    "ValidationIssue",
    "ValidationReport",
    "clip_trace",
    "default_role",
    "filter_regions",
    "fingerprint_definitions",
    "fingerprint_events",
    "fingerprint_trace",
    "merge_traces",
    "read_trace",
    "select_ranks",
    "validate_trace",
    "write_binary",
    "write_jsonl",
]
