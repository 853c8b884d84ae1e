"""Streaming (in-situ) performance-variation analysis.

The paper notes that "in-situ analysis while the target application is
still running is feasible as well, but the performance analysis suite
that we use for our prototype does not support such a workflow"
(Section III).  This module implements that workflow: events are fed
incrementally per process, segments complete online, SOS-times are
computed on the fly, and anomalous invocations raise alerts while the
run is still in flight.

Protocol
--------

1. Create a :class:`StreamingAnalyzer` (optionally pinning the dominant
   function up front — e.g. from a previous run's analysis).
2. ``feed(rank, events)`` with time-ordered event chunks per rank —
   or :meth:`StreamingAnalyzer.consume` an
   :class:`~repro.trace.cursor.EventCursor` (a file being tailed, a
   pipe, an in-process feed) and let the analyzer pull.
   During the warm-up phase the analyzer only collects running
   per-function statistics; once ``warmup_invocations`` complete
   invocations have been seen (or :meth:`select_now` is called), it
   picks the dominant function with the paper's criterion and starts
   segmenting *from that point on*.
3. Completed segments are appended to per-rank series; each completed
   segment is tested against the rank's recent history (median/MAD
   over a sliding window) and materially slow ones become
   :class:`StreamAlert` records immediately.

Bounded memory: with ``history_limit`` set, only that many completed
segments are retained per rank (evictions are counted in the
``stream.window_evictions`` telemetry counter); running totals — and
therefore :meth:`StreamingAnalyzer.snapshot_hot_ranks` — are unaffected
by eviction because they accumulate at segment completion.

Batch equivalence: fed a complete trace after pinning the dominant
function, the streamed SOS values equal
:func:`repro.core.sos.compute_sos` exactly (tested), and results are
bitwise independent of how the stream is chunked.  After warm-up the
chunk processor is vectorised (stack validation via the lint engine's
depth trick, segment/sync boundaries via nesting trajectories), so
throughput on large chunks is bounded by NumPy scans, not per-event
Python dispatch.

Malformed streams raise :class:`StreamOrderError` (out-of-order chunk;
tracelint rule ``TL004``) or :class:`StreamStructureError` (unmatched
or mismatched leave; ``TL001``/``TL003``) — the same diagnostics the
offline validator emits for the same defects.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..trace.definitions import RegionRegistry
from ..trace.events import EventKind, EventList
from .classify import SyncClassifier, default_classifier
from .imbalance import _MAD_SCALE

__all__ = [
    "STREAM_COLUMNS",
    "STREAM_METRIC_COLUMNS",
    "StreamAlert",
    "StreamOrderError",
    "StreamStructureError",
    "StreamedSegment",
    "StreamingAnalyzer",
]

#: Event columns the streaming state machine reads; feeders (the
#: ``repro monitor`` command in particular) may project their loads
#: down to these.  The projection tests keep the set truthful.
STREAM_COLUMNS = ("time", "kind", "ref")

#: Columns required when time-resolved metric series are enabled
#: (``metric_window``): METRIC samples additionally carry ``value``.
STREAM_METRIC_COLUMNS = ("time", "kind", "ref", "value")

#: Segments dropped from per-rank histories under ``history_limit``.
_C_EVICTIONS = obs.counter("stream.window_evictions")
#: Events parsed by the driving cursor but not yet fed (backlog).
_G_LAG = obs.gauge("stream.lag_events")

_ENTER = np.uint8(EventKind.ENTER)
_LEAVE = np.uint8(EventKind.LEAVE)
_METRIC = np.uint8(EventKind.METRIC)
#: Nesting step of an event, indexed by kind: ENTER opens, LEAVE closes.
_STEP = np.array([1, -1])


def _row_median(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)`` via one sort: the middle element,
    or ``(a + b) / 2.0`` of the middle two, as ``np.median`` computes
    it; a row holding NaN gives NaN (NaN sorts last)."""
    ordered = np.sort(rows, axis=1)
    mid = ordered.shape[1] // 2
    if ordered.shape[1] % 2:
        med = ordered[:, mid]
    else:
        med = (ordered[:, mid - 1] + ordered[:, mid]) / 2.0
    return np.where(np.isnan(ordered[:, -1]), np.nan, med)


def _small_median(ordered: list) -> float:
    """Median of a pre-sorted sequence (matches ``np.median`` bitwise)."""
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class StreamOrderError(ValueError):
    """A fed chunk starts before the rank's last seen timestamp.

    The stream equivalent of tracelint's ``TL004`` (``time-order``):
    every analysis assumption — replay, segmentation, windows — needs
    time-sorted streams per rank.
    """

    code = "TL004"
    legacy_code = "time-order"

    def __init__(self, rank: int, t: float, last: float) -> None:
        super().__init__(
            f"rank {rank}: chunk not time-ordered ({t} after {last})"
        )
        self.rank = rank


class StreamStructureError(ValueError):
    """A leave event does not close the currently open region.

    The stream equivalent of tracelint's ``TL001``
    (``unmatched-leave``, empty stack) and ``TL003``
    (``mismatched-leave``, wrong region); :attr:`code` carries which.
    """

    def __init__(self, rank: int, region: int, code: str) -> None:
        super().__init__(
            f"rank {rank}: leave of region {region} does not "
            "match the open region"
        )
        self.rank = rank
        self.code = code
        self.legacy_code = (
            "unmatched-leave" if code == "TL001" else "mismatched-leave"
        )


@dataclass(frozen=True, slots=True)
class StreamedSegment:
    """One completed dominant-function invocation seen in the stream."""

    rank: int
    index: int
    t_start: float
    t_stop: float
    sync_time: float

    @property
    def duration(self) -> float:
        return self.t_stop - self.t_start

    @property
    def sos(self) -> float:
        return self.duration - self.sync_time


@dataclass(frozen=True, slots=True)
class StreamAlert:
    """A segment flagged as anomalous at completion time."""

    segment: StreamedSegment
    zscore: float
    window: int  # history size the z-score was computed against

    def __str__(self) -> str:
        s = self.segment
        return (
            f"rank {s.rank} segment {s.index} "
            f"[{s.t_start:.6g}, {s.t_stop:.6g}]: SOS {s.sos:.6g} "
            f"(z={self.zscore:.1f} over {self.window} recent segments)"
        )


class _RankStream:
    """Per-process incremental state machine."""

    __slots__ = (
        "rank",
        "stack",
        "sync_nesting",
        "sync_start",
        "segment_start",
        "segment_sync",
        "dominant_nesting",
        "seg_start",
        "seg_stop",
        "seg_sync",
        "next_index",
        "total_sos",
        "total_count",
        "recent_sos",
        "last_time",
    )

    def __init__(self, rank: int, window: int) -> None:
        self.rank = rank
        self.stack: list[tuple[int, float]] = []
        self.sync_nesting = 0
        self.sync_start = 0.0
        self.segment_start: float | None = None
        self.segment_sync = 0.0
        self.dominant_nesting = 0
        # Completed segments, stored columnar (one float triple per
        # segment, :class:`StreamedSegment` objects are materialised
        # on access) — constructing a frozen dataclass per segment
        # would dominate steady-state streaming cost.
        self.seg_start: deque[float] = deque()
        self.seg_stop: deque[float] = deque()
        self.seg_sync: deque[float] = deque()
        self.next_index = 0
        self.total_sos = 0.0
        self.total_count = 0
        self.recent_sos: deque[float] = deque(maxlen=window)
        self.last_time = -np.inf


class StreamingAnalyzer:
    """Online segment/SOS computation over incrementally fed events.

    Parameters
    ----------
    regions:
        The region registry events refer to (shared with the producer).
    num_processes:
        Total number of processes (for the ``2p`` criterion).
    dominant:
        Region id or name to segment by; ``None`` enables automatic
        warm-up selection.
    warmup_invocations:
        Complete invocations to observe before auto-selecting.
    classifier:
        Synchronization classifier (default: MPI/OpenMP policy).
    window:
        Sliding-window length for the online outlier test.
    alert_threshold:
        Robust z-score a completed segment must exceed to alert.
    min_relative_excess:
        Materiality bar relative to the window median.
    history_limit:
        Maximum completed segments retained *per rank* (``None`` keeps
        everything).  Eviction is FIFO and counted in the
        ``stream.window_evictions`` counter; alerts and running totals
        are unaffected.
    metric_window:
        Bin width (seconds) for time-resolved METRIC series
        (:meth:`metric_series`).  ``None`` (default) ignores METRIC
        events; when set, fed chunks must include the ``value`` column
        (:data:`STREAM_METRIC_COLUMNS`).
    """

    def __init__(
        self,
        regions: RegionRegistry,
        num_processes: int,
        dominant: int | str | None = None,
        warmup_invocations: int = 500,
        classifier: SyncClassifier | None = None,
        window: int = 32,
        alert_threshold: float = 4.0,
        min_relative_excess: float = 0.1,
        history_limit: int | None = None,
        metric_window: float | None = None,
    ) -> None:
        if num_processes <= 0:
            raise ValueError("num_processes must be positive")
        if history_limit is not None and history_limit <= 0:
            raise ValueError("history_limit must be positive")
        if metric_window is not None and metric_window <= 0:
            raise ValueError("metric_window must be positive")
        self.regions = regions
        self.num_processes = num_processes
        self.classifier = classifier if classifier is not None else default_classifier()
        self.window = window
        self.alert_threshold = alert_threshold
        self.min_relative_excess = min_relative_excess
        self.warmup_invocations = warmup_invocations
        self.history_limit = history_limit
        self.metric_window = metric_window

        self._sync_mask = self.classifier.mask_registry(regions)
        # (mask_registry accepts a bare RegionRegistry, see classify.py)
        self._roles_of: int | None = None  # dominant _roles was built for
        self._streams: dict[int, _RankStream] = {}
        self.alerts: list[StreamAlert] = []
        self.window_evictions = 0
        #: ``(rank, metric id) -> {bin index: [value sum, sample count]}``
        self._metric_bins: dict[tuple[int, int], dict[int, list]] = {}

        # Warm-up statistics for automatic dominant selection.
        self._warmup_counts = np.zeros(len(regions), dtype=np.int64)
        self._warmup_inclusive = np.zeros(len(regions), dtype=np.float64)
        self._warmup_seen = 0

        self.dominant: int | None = None
        if dominant is not None:
            self.dominant = (
                regions.id_of(dominant) if isinstance(dominant, str) else int(dominant)
            )

    # -- public API -----------------------------------------------------

    @property
    def selected(self) -> bool:
        return self.dominant is not None

    @property
    def dominant_name(self) -> str | None:
        return self.regions[self.dominant].name if self.selected else None

    def feed(self, rank: int, events: EventList) -> list[StreamAlert]:
        """Process one time-ordered chunk of events for ``rank``.

        Returns the alerts raised by this chunk (also appended to
        :attr:`alerts`).  Chunk boundaries are observable only in
        latency: results are bitwise identical whether a stream
        arrives one event at a time or as a single chunk.
        """
        stream = self._stream(rank)
        n = len(events)
        if n == 0:
            return []
        times = events.time
        if float(times[0]) < stream.last_time:
            raise StreamOrderError(rank, float(times[0]), stream.last_time)
        kinds = events.kind
        refs = events.ref
        if self.selected:
            new_alerts = self._feed_chunk(stream, times, kinds, refs)
            stream.last_time = float(times[-1])
        else:
            # Warm-up keeps the per-event reference loop: selection is
            # event-exact, and may flip mid-chunk.
            new_alerts = self._feed_warmup(stream, times, kinds, refs)
        if self.metric_window is not None:
            self._feed_metrics(rank, times, kinds, refs, events)
        self.alerts.extend(new_alerts)
        return new_alerts

    def consume(self, cursor) -> int:
        """Pull an :class:`~repro.trace.cursor.EventCursor` dry.

        Feeds every batch the cursor yields (for a live cursor this
        blocks between polls inside the cursor) and publishes the
        cursor's parsed-but-unfed backlog as the ``stream.lag_events``
        gauge.  Returns the number of events fed.
        """
        fed = 0
        for batch in cursor:
            if len(batch.events):
                self.feed(batch.rank, batch.events)
                fed += len(batch.events)
            _G_LAG.set(float(getattr(cursor, "backlog_events", 0)))
        return fed

    def select_now(self) -> int:
        """Force dominant-function selection from warm-up statistics."""
        if self.selected:
            return self.dominant  # type: ignore[return-value]
        threshold = 2 * self.num_processes
        eligible = np.flatnonzero(self._warmup_counts >= threshold)
        eligible = [
            r
            for r in eligible
            if not self._sync_mask[r]
        ]
        if not eligible:
            raise ValueError(
                "no dominant-function candidate in the warm-up window "
                f"(need >= {threshold} invocations of a non-sync region)"
            )
        best = max(eligible, key=lambda r: self._warmup_inclusive[r])
        self.dominant = int(best)
        return self.dominant

    def candidates(self, k: int = 5) -> list[tuple[int, int, float]]:
        """Rolling dominant-function candidates from warm-up statistics.

        Returns up to ``k`` tuples ``(region id, invocations, inclusive
        seconds)``, ordered by inclusive time over the regions
        :meth:`select_now` would choose from — non-sync with at least
        ``2 * num_processes`` observed invocations (the paper's
        eligibility bar, which also rules out once-per-run wrappers
        like ``main``).  Usable at any time, also after selection.
        """
        eligible = np.flatnonzero(
            self._warmup_counts >= 2 * self.num_processes
        )
        ranked = sorted(
            (int(r) for r in eligible if not self._sync_mask[r]),
            key=lambda r: -self._warmup_inclusive[r],
        )
        return [
            (r, int(self._warmup_counts[r]), float(self._warmup_inclusive[r]))
            for r in ranked[: max(int(k), 0)]
        ]

    def segments(self, rank: int) -> list[StreamedSegment]:
        """Completed segments of one rank (retained history)."""
        stream = self._streams.get(rank)
        if stream is None:
            return []
        base = stream.next_index - len(stream.seg_start)
        return [
            StreamedSegment(
                rank=rank, index=base + i, t_start=a, t_stop=b, sync_time=c
            )
            for i, (a, b, c) in enumerate(
                zip(stream.seg_start, stream.seg_stop, stream.seg_sync)
            )
        ]

    def sos_series(self, rank: int) -> np.ndarray:
        """SOS values of one rank's completed (retained) segments."""
        stream = self._streams.get(rank)
        if stream is None or not stream.seg_start:
            return np.asarray([])
        start = np.asarray(stream.seg_start)
        stop = np.asarray(stream.seg_stop)
        sync = np.asarray(stream.seg_sync)
        return (stop - start) - sync

    def per_rank_total(self) -> dict[int, float]:
        """Running total SOS per rank (independent of eviction)."""
        return {
            rank: float(stream.total_sos)
            for rank, stream in sorted(self._streams.items())
        }

    def metric_series(self, rank: int, metric: int) -> tuple[np.ndarray, np.ndarray]:
        """Time-resolved mean of one METRIC stream for one rank.

        Returns ``(bin start times, mean values)`` over the
        ``metric_window``-second bins that received samples, in time
        order.  Empty arrays when the pair produced no samples (or
        ``metric_window`` is off).
        """
        bins = self._metric_bins.get((rank, int(metric)))
        if not bins:
            return np.empty(0), np.empty(0)
        order = sorted(bins)
        width = float(self.metric_window)  # type: ignore[arg-type]
        starts = np.asarray([b * width for b in order])
        means = np.asarray([bins[b][0] / bins[b][1] for b in order])
        return starts, means

    def snapshot_hot_ranks(self, threshold: float = 3.0) -> list[int]:
        """Rank-level anomaly check over the running totals."""
        totals = self.per_rank_total()
        if len(totals) < 3:
            return []
        ranks = np.asarray(sorted(totals))
        values = np.asarray([totals[r] for r in ranks])
        med = float(np.median(values))
        mad = float(np.median(np.abs(values - med))) * _MAD_SCALE
        scale = max(mad, 0.01 * abs(med))
        if scale <= 0:
            return []
        z = (values - med) / scale
        hot = (z > threshold) & (values > med * (1 + self.min_relative_excess))
        order = np.argsort(-z)
        return [int(ranks[i]) for i in order if hot[i]]

    # -- internals -----------------------------------------------------

    def _stream(self, rank: int) -> _RankStream:
        stream = self._streams.get(rank)
        if stream is None:
            stream = _RankStream(rank, self.window)
            self._streams[rank] = stream
        return stream

    # .. warm-up path (per-event reference loop) .......................

    def _feed_warmup(self, stream, times, kinds, refs) -> list[StreamAlert]:
        new_alerts: list[StreamAlert] = []
        for i in range(len(times)):
            t = float(times[i])
            stream.last_time = t
            kind = kinds[i]
            if kind == EventKind.ENTER:
                self._enter(stream, t, int(refs[i]))
            elif kind == EventKind.LEAVE:
                alert = self._leave(stream, t, int(refs[i]))
                if alert is not None:
                    new_alerts.append(alert)
        return new_alerts

    def _enter(self, stream: _RankStream, t: float, region: int) -> None:
        stream.stack.append((region, t))
        if self._sync_mask[region]:
            if stream.sync_nesting == 0:
                stream.sync_start = t
            stream.sync_nesting += 1
        if self.selected and region == self.dominant:
            stream.dominant_nesting += 1
            if stream.dominant_nesting == 1:
                stream.segment_start = t
                stream.segment_sync = 0.0

    def _leave(self, stream: _RankStream, t: float, region: int) -> StreamAlert | None:
        if not stream.stack or stream.stack[-1][0] != region:
            raise StreamStructureError(
                stream.rank, region,
                "TL001" if not stream.stack else "TL003",
            )
        _region, t_enter = stream.stack.pop()
        if self._sync_mask[region]:
            stream.sync_nesting -= 1
            if stream.sync_nesting == 0 and stream.segment_start is not None:
                stream.segment_sync += t - max(
                    stream.sync_start, stream.segment_start
                )

        # Warm-up statistics (inclusive approximated by frame duration,
        # which counts recursion multiply; exact for non-recursive
        # frames, which dominate in practice).
        if not self.selected:
            self._warmup_counts[region] += 1
            self._warmup_inclusive[region] += t - t_enter
            self._warmup_seen += 1
            if self._warmup_seen >= self.warmup_invocations:
                try:
                    self.select_now()
                except ValueError:
                    self.warmup_invocations *= 2  # keep collecting

        if self.selected and region == self.dominant:
            stream.dominant_nesting -= 1
            if stream.dominant_nesting == 0 and stream.segment_start is not None:
                t_start = stream.segment_start
                sync_time = stream.segment_sync
                stream.segment_start = None
                return self._complete_segment(stream, t_start, t, sync_time)
        return None

    # .. steady-state path (vectorised chunk processor) ................

    def _feed_chunk(self, stream, times, kinds, refs) -> list[StreamAlert]:
        """Vectorised equivalent of the per-event loop after selection.

        Stack validation and the carry stack come from one sort by
        frame level (:meth:`_check_structure`); segment and sync
        boundaries from one coded scan of the nesting trajectories.
        The handful of boundary crossings per chunk are applied by a
        scalar loop that performs the *same float operations in the
        same order* as the per-event machine — results are bitwise
        chunk-size invariant.
        """
        keep = kinds <= _LEAVE  # ENTER or LEAVE
        if not keep.all():
            if not keep.any():
                return []
            times, kinds, refs = times[keep], kinds[keep], refs[keep]
        stack = self._check_structure(stream, times, kinds, refs)

        # Crossing codes: bit 0 where the sync nesting crosses 0 <-> 1,
        # bit 1 where the dominant nesting does.  An enter crosses when
        # the nesting after it is 1, a leave when it is 0, i.e. when
        # ``2 * nesting == step + 1`` (never, for a step of 0).
        role = self._role_table().take(refs)
        pm = _STEP.take(kinds)
        sync = pm * (role & 1)
        dom = pm * (role >> 1)
        sync_traj = np.cumsum(sync)
        dom_traj = np.cumsum(dom)
        code = (2 * sync_traj == sync + (1 - 2 * stream.sync_nesting)) | (
            (2 * dom_traj == dom + (1 - 2 * stream.dominant_nesting)) << 1
        )
        stream.sync_nesting += int(sync_traj[-1])
        stream.dominant_nesting += int(dom_traj[-1])
        stream.stack = stack
        hits = code.nonzero()[0]
        sync_start = stream.sync_start
        seg_start = stream.segment_start
        seg_sync = stream.segment_sync
        c_start: list[float] = []
        c_stop: list[float] = []
        c_sync: list[float] = []
        for t, op, leave in zip(
            times[hits].tolist(), code[hits].tolist(), kinds[hits].tolist()
        ):
            # Sync bookkeeping runs before dominant bookkeeping on the
            # same event, as in the per-event machine.
            if op & 1:
                if not leave:  # sync episode begins
                    sync_start = t
                elif seg_start is not None:  # sync episode ends
                    seg_sync += t - max(sync_start, seg_start)
            if op & 2:
                if not leave:  # dominant segment opens
                    seg_start = t
                    seg_sync = 0.0
                elif seg_start is not None:  # segment closes
                    c_start.append(seg_start)
                    c_stop.append(t)
                    c_sync.append(seg_sync)
                    seg_start = None
        stream.sync_start = sync_start
        stream.segment_start = seg_start
        stream.segment_sync = seg_sync
        if not c_start:
            return []
        return self._complete_batch(stream, c_start, c_stop, c_sync)

    def _role_table(self) -> np.ndarray:
        """Per-region roles for the chunk scan: bit 0 sync, bit 1 the
        dominant function (built once per selected dominant)."""
        if self._roles_of != self.dominant:
            roles = self._sync_mask.astype(np.int64)
            if 0 <= self.dominant < roles.size:
                roles[self.dominant] |= 2
            self._roles, self._roles_of = roles, self.dominant
        return self._roles

    def _check_structure(self, stream, times, kinds, refs) -> list:
        """Raise on the first leave that does not close the open region;
        return the frames still open after the chunk (the carry stack).

        The frames carried in from earlier chunks are prepended as
        virtual enters, and the lint engine's depth trick assigns every
        event its frame level.  After one stable sort by level, each
        enter is followed on its level by the leave that closes it, and
        the last enter of a level is a frame left open.  For any prefix
        the per-event loop accepts this pairing *is* the stack pairing,
        so the earliest failing leave is exactly the event the scalar
        loop would have raised on.
        """
        stack = stream.stack
        d0 = len(stack)
        if d0:
            kinds = np.concatenate((np.zeros(d0, kinds.dtype), kinds))
            refs = np.concatenate(([r for r, _ in stack], refs))
        depth = np.cumsum(_STEP.take(kinds))
        limit, error = kinds.size, None
        if depth.min() < 0:  # a leave with nothing open
            limit = int((depth < 0).argmax())
            error = (limit, "TL001")
        level = depth[:limit] + kinds[:limit]
        order = np.argsort(level, kind="stable")
        level = level[order]
        enter = kinds[order] == _ENTER
        ref = refs[order]
        same = level[1:] == level[:-1]
        bad = (same & enter[:-1] & (ref[1:] != ref[:-1])).nonzero()[0]
        if bad.size:
            error = (int(order[bad + 1].min()), "TL003")
        if error is not None:
            raise StreamStructureError(
                stream.rank, int(refs[error[0]]), error[1]
            )
        opened = order[enter & np.concatenate((~same, [True]))].tolist()
        return [
            stack[i] if i < d0 else (int(refs[i]), float(times[i - d0]))
            for i in opened
        ]

    # .. segment completion ............................................

    def _complete_segment(
        self,
        stream: _RankStream,
        t_start: float,
        t_stop: float,
        sync_time: float,
    ) -> StreamAlert | None:
        """Record one completed segment (scalar path: warm-up loop)."""
        stream.seg_start.append(t_start)
        stream.seg_stop.append(t_stop)
        stream.seg_sync.append(sync_time)
        index = stream.next_index
        stream.next_index = index + 1
        sos = (t_stop - t_start) - sync_time
        stream.total_sos += sos
        stream.total_count += 1
        if (
            self.history_limit is not None
            and len(stream.seg_start) > self.history_limit
        ):
            stream.seg_start.popleft()
            stream.seg_stop.popleft()
            stream.seg_sync.popleft()
            self.window_evictions += 1
            _C_EVICTIONS.add()
        return self._test_segment(
            stream, sos, index, t_start, t_stop, sync_time
        )

    def _complete_batch(
        self,
        stream: _RankStream,
        starts: list[float],
        stops: list[float],
        syncs: list[float],
    ) -> list[StreamAlert]:
        """Record the segments one chunk completed, test them in bulk.

        Bitwise identical to running :meth:`_complete_segment` per
        segment: the running total accumulates left-to-right, eviction
        commutes with the history test (they touch disjoint state),
        and the vectorised median/MAD below reproduces the scalar
        window test float-for-float.
        """
        count = len(starts)
        base = stream.next_index
        stream.seg_start.extend(starts)
        stream.seg_stop.extend(stops)
        stream.seg_sync.extend(syncs)
        stream.next_index = base + count
        sos = [(b - a) - c for a, b, c in zip(starts, stops, syncs)]
        total = stream.total_sos
        for value in sos:
            total += value
        stream.total_sos = total
        stream.total_count += count
        if self.history_limit is not None:
            overflow = len(stream.seg_start) - self.history_limit
            if overflow > 0:
                for _ in range(overflow):
                    stream.seg_start.popleft()
                    stream.seg_stop.popleft()
                    stream.seg_sync.popleft()
                self.window_evictions += overflow
                _C_EVICTIONS.add(overflow)

        history = stream.recent_sos
        window = history.maxlen or 0
        alerts: list[StreamAlert] = []
        # Until the rolling window is full, windows grow per segment —
        # run those through the scalar test.  Once full, every
        # remaining segment sees exactly ``window`` predecessors and
        # the median/MAD tests vectorise row-wise.
        n_scalar = min(count, max(0, window - len(history)))
        for j in range(n_scalar):
            alert = self._test_segment(
                stream, sos[j], base + j, starts[j], stops[j], syncs[j]
            )
            if alert is not None:
                alerts.append(alert)
        if n_scalar == count:
            return alerts
        rest = sos[n_scalar:]
        if window >= 8:
            hist = np.array([*history, *rest])
            # Row i is the window segment i is tested against (a view;
            # the ndarray constructor is far cheaper than stride_tricks).
            win = np.ndarray(
                (len(rest), window), hist.dtype, hist, 0, hist.strides * 2
            )
            med = _row_median(win)
            mad = _row_median(np.abs(win - med[:, None])) * _MAD_SCALE
            scale = np.maximum(mad, 0.01 * np.abs(med))
            svals = hist[window:]
            with np.errstate(divide="ignore", invalid="ignore"):
                z = (svals - med) / scale
            flag = (
                (scale > 0)
                & (z > self.alert_threshold)
                & (svals > med * (1 + self.min_relative_excess))
            )
            for j in np.flatnonzero(flag):
                i = n_scalar + int(j)
                segment = StreamedSegment(
                    rank=stream.rank,
                    index=base + i,
                    t_start=starts[i],
                    t_stop=stops[i],
                    sync_time=syncs[i],
                )
                alerts.append(
                    StreamAlert(
                        segment=segment,
                        zscore=float(z[j]),
                        window=window,
                    )
                )
        history.extend(rest)
        return alerts

    def _test_segment(
        self,
        stream: _RankStream,
        sos: float,
        index: int,
        t_start: float,
        t_stop: float,
        sync_time: float,
    ) -> StreamAlert | None:
        history = stream.recent_sos
        alert = None
        if len(history) >= 8:
            # Median/MAD over the short window in pure Python: bitwise
            # identical to np.median (even-length means are (a+b)/2 in
            # both) and ~10x cheaper at window sizes.
            med = _small_median(sorted(history))
            mad = _small_median(sorted([abs(v - med) for v in history]))
            mad *= _MAD_SCALE
            scale = max(mad, 0.01 * abs(med))
            if scale > 0:
                z = (sos - med) / scale
                material = sos > med * (1 + self.min_relative_excess)
                if z > self.alert_threshold and material:
                    alert = StreamAlert(
                        segment=StreamedSegment(
                            rank=stream.rank,
                            index=index,
                            t_start=t_start,
                            t_stop=t_stop,
                            sync_time=sync_time,
                        ),
                        zscore=float(z),
                        window=len(history),
                    )
        history.append(sos)
        return alert

    # .. time-resolved metric series ...................................

    def _feed_metrics(self, rank, times, kinds, refs, events) -> None:
        sel = np.flatnonzero(kinds == _METRIC)
        if not sel.size:
            return
        values = events.value[sel]
        bins = (times[sel] // self.metric_window).astype(np.int64)
        metric_refs = refs[sel]
        for ref in np.unique(metric_refs):
            acc = self._metric_bins.setdefault((rank, int(ref)), {})
            mask = metric_refs == ref
            for b, v in zip(bins[mask], values[mask]):
                slot = acc.setdefault(int(b), [0.0, 0])
                slot[0] += float(v)
                slot[1] += 1
