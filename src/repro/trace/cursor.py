"""Chunked, pull-based event cursors.

The incremental analysis engine (:mod:`repro.core.incremental`)
consumes *cursors*: iterators that yield time-ordered, column-projected
event batches per rank, tagged with an end-of-stream marker.  A cursor
decouples the analysis kernel from where the events come from — the
paper's batch workflow and the in-situ workflow it calls feasible but
unimplemented (Section III) become two drivers of one engine:

* :class:`IndexCursor` — a complete ``.rpt``/``.jsonl`` file through
  the mmap-backed :class:`~repro.trace.reader.TraceIndex`.  For v2
  ``raw`` columns each batch is read (or mmap-viewed) as an exact byte
  range, so peak memory is bounded by the chunk size, not the trace.
* :class:`TailCursor` — a ``.jsonl`` file still being written by a
  live run, polled for complete lines; repeated ``events`` records per
  location are consumed as successive chunks.
* :class:`JsonlStreamCursor` — the same line protocol over any
  file-like object (a pipe, ``socket.makefile()``), read blocking.
* :class:`FeedCursor` — an in-process push queue for producers living
  in the same interpreter.

All cursors share the same contract: batches of one rank arrive in
time order, the batch marked ``final`` is the last one for that rank,
and ``definitions`` exposes a :class:`~repro.trace.trace.Trace`
skeleton (regions, metrics, locations, no events) so consumers can
build classifiers and registries before the first event arrives.
"""

from __future__ import annotations

import json
import os
import time as _time
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterator, Sequence

from .. import obs
from .events import EventList
from .reader import (
    TraceFormatError,
    _add_definition_record,
    _check_header,
    _events_from_record,
    _field,
    _header_attributes,
    _project_columns,
)
from .trace import Trace

__all__ = [
    "EventBatch",
    "EventCursor",
    "FeedCursor",
    "IndexCursor",
    "JsonlStreamCursor",
    "TailCursor",
]

#: Telemetry: events and (approximate) bytes served by each cursor kind.
_C_INDEX_EVENTS = obs.counter("cursor.index.events")
_C_INDEX_BYTES = obs.counter("cursor.index.bytes")
_C_TAIL_EVENTS = obs.counter("cursor.tail.events")
_C_TAIL_BYTES = obs.counter("cursor.tail.bytes")
_C_FEED_EVENTS = obs.counter("cursor.feed.events")


@dataclass(frozen=True, slots=True)
class EventBatch:
    """One time-ordered chunk of one rank's event stream.

    ``final`` marks the last batch of the rank; a rank with no events
    is represented by a single empty final batch, so every rank the
    cursor covers is announced exactly once as finished.
    """

    rank: int
    events: EventList
    final: bool


class EventCursor:
    """Iterator of :class:`EventBatch` (base class / protocol).

    Subclasses implement :meth:`_batches` as a generator and provide
    :attr:`definitions`.  Within one rank, batches arrive in time
    order; ranks may interleave (live feeds) or not (file replay) —
    consumers must not assume either.
    """

    def __iter__(self) -> Iterator[EventBatch]:
        return self._iter()

    def _iter(self) -> Iterator[EventBatch]:
        yield from self._batches()

    def _batches(self) -> Iterator[EventBatch]:  # pragma: no cover
        raise NotImplementedError

    @property
    def definitions(self) -> Trace:  # pragma: no cover - interface
        """Trace skeleton: definitions and locations, empty streams."""
        raise NotImplementedError

    @property
    def ranks(self) -> list[int]:
        """Sorted ids of the ranks this cursor will announce."""
        return self.definitions.ranks


def _chunk_bounds(n: int, chunk_events: int | None):
    """Start offsets of chunk slices over ``n`` events (at least one)."""
    if n == 0:
        return [0]
    if chunk_events is None or chunk_events >= n:
        return [0]
    step = max(int(chunk_events), 1)
    return list(range(0, n, step))


class IndexCursor(EventCursor):
    """Batches of a complete trace file via :class:`TraceIndex`.

    Ranks are yielded in ascending order, each as one or more
    consecutive batches of at most ``chunk_events`` events.  For
    binary files whose requested columns use the ``raw`` codec (the
    v2 layout) each batch is materialised from its exact byte range —
    an mmap view when available, a bounded ``seek``/``read``
    otherwise — so peak memory follows the chunk size.  zlib columns
    and ``.jsonl`` records cannot be partially decoded; those load one
    rank at a time and hand out views into it.
    """

    def __init__(
        self,
        index,
        ranks: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
        chunk_events: int | None = None,
    ) -> None:
        if chunk_events is not None and chunk_events <= 0:
            raise ValueError("chunk_events must be positive")
        self._index = index
        self._ranks = sorted(index.ranks if ranks is None else ranks)
        if len(set(self._ranks)) != len(self._ranks):
            raise ValueError(f"duplicate ranks requested: {self._ranks!r}")
        self._columns = tuple(columns) if columns is not None else None
        self.chunk_events = chunk_events
        self._definitions: Trace | None = None

    @property
    def definitions(self) -> Trace:
        if self._definitions is None:
            self._definitions = self._index.definitions_trace()
        return self._definitions

    @property
    def ranks(self) -> list[int]:
        return list(self._ranks)

    def _batches(self) -> Iterator[EventBatch]:
        index = self._index
        for rank in self._ranks:
            n = index.num_events_of(rank)
            if n == 0:
                yield EventBatch(rank, EventList.empty(), True)
                continue
            starts = _chunk_bounds(n, self.chunk_events)
            if index.supports_slices(rank, self._columns) and len(starts) > 1:
                for i, start in enumerate(starts):
                    stop = min(n, start + int(self.chunk_events))
                    events = index.load_events(
                        rank, columns=self._columns, start=start, stop=stop
                    )
                    self._count(events)
                    yield EventBatch(rank, events, i == len(starts) - 1)
                continue
            whole = index.load(
                [rank], columns=self._columns
            ).events_of(rank)
            if len(starts) == 1:
                self._count(whole)
                yield EventBatch(rank, whole, True)
                continue
            for i, start in enumerate(starts):
                events = whole[start : start + int(self.chunk_events)]
                self._count(events)
                yield EventBatch(rank, events, i == len(starts) - 1)

    @staticmethod
    def _count(events: EventList) -> None:
        _C_INDEX_EVENTS.add(len(events))
        _C_INDEX_BYTES.add(
            sum(getattr(events, c).nbytes for c in events.loaded_columns)
        )


# ---------------------------------------------------------------------------
# Live .jsonl protocol (tail / pipe / socket)
# ---------------------------------------------------------------------------
#
# The live protocol is the writer's .jsonl layout relaxed in two ways:
# a location may carry *multiple* ``events`` records (each one chunk,
# time-contiguous with its predecessor), and an optional
# ``{"record": "end"}`` sentinel marks a clean end of the run.  A file
# written by :func:`repro.trace.writer.write_jsonl` is therefore a
# valid (single-chunk-per-rank) live stream.


class _JsonlProtocol:
    """Shared incremental parser for the live ``.jsonl`` protocol."""

    def __init__(self, columns: Sequence[str] | None = None) -> None:
        from .definitions import MetricRegistry, RegionRegistry

        self._regions = RegionRegistry()
        self._metrics = MetricRegistry()
        self._locations: dict[int, object] = {}
        self._name = "trace"
        self._attributes: dict[str, str] = {}
        self._header_seen = False
        self._definitions: Trace | None = None
        self._project = _project_columns(columns)
        self.ended = False
        #: ranks that have produced at least one events record
        self.seen_ranks: set[int] = set()

    @property
    def definitions(self) -> Trace | None:
        """Frozen definitions, available once the first events record
        (or the end sentinel) has been parsed."""
        return self._definitions

    def _freeze(self) -> Trace:
        if self._definitions is None:
            trace = Trace(
                regions=self._regions,
                metrics=self._metrics,
                name=self._name,
                attributes=self._attributes,
            )
            for loc_id in sorted(self._locations):
                trace.add_process(self._locations[loc_id], EventList.empty())
            self._definitions = trace
        return self._definitions

    def parse_line(self, line: str) -> EventBatch | None:
        """Parse one complete line; an events record yields a batch."""
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            raise TraceFormatError(f"corrupt record: {err}") from err
        if not isinstance(record, dict):
            raise TraceFormatError(f"non-object record: {line[:40]!r}")
        if not self._header_seen:
            _check_header(record)
            self._header_seen = True
            self._name = record.get("name", "trace")
            self._attributes = _header_attributes(record)
            return None
        kind = record.get("record")
        if kind == "end":
            self.ended = True
            self._freeze()
            return None
        if self._definitions is None and _add_definition_record(
            record, self._regions, self._metrics, self._locations
        ):
            return None
        if kind != "events":
            raise TraceFormatError(f"unknown record type {kind!r}")
        self._freeze()
        rank = _field(record, "location", "events record", int)
        if rank not in self._locations:
            raise TraceFormatError(f"events for undefined location {rank}")
        self.seen_ranks.add(rank)
        events = _events_from_record(record, self._project)
        _C_TAIL_EVENTS.add(len(events))
        _C_TAIL_BYTES.add(len(line))
        return EventBatch(rank, events, False)

    def final_batches(self) -> Iterator[EventBatch]:
        """Empty final batches closing every defined rank."""
        defs = self._freeze()
        for rank in defs.ranks:
            yield EventBatch(rank, EventList.empty(), True)


class JsonlStreamCursor(EventCursor):
    """Live-protocol cursor over any file-like object.

    Reads lines with blocking ``readline`` — the natural adapter for a
    pipe or ``socket.makefile("r")``.  The stream ends at the
    ``{"record": "end"}`` sentinel or at EOF.
    """

    def __init__(
        self, fp: IO[str], columns: Sequence[str] | None = None
    ) -> None:
        self._fp = fp
        self._protocol = _JsonlProtocol(columns)

    @property
    def definitions(self) -> Trace:
        defs = self._protocol.definitions
        if defs is None:
            raise RuntimeError(
                "definitions not available yet — iterate the cursor (or "
                "use TailCursor.wait_definitions) before asking for them"
            )
        return defs

    def _batches(self) -> Iterator[EventBatch]:
        proto = self._protocol
        for line in self._fp:
            batch = proto.parse_line(line)
            if batch is not None:
                yield batch
            if proto.ended:
                break
        yield from proto.final_batches()


class TailCursor(EventCursor):
    """Live-protocol cursor tailing a growing ``.jsonl`` file.

    Polls ``path`` every ``poll_interval`` seconds for newly completed
    (newline-terminated) lines; partial lines are buffered until their
    terminator arrives, so a writer flushing mid-record never corrupts
    a batch.  The stream ends when the writer appends the
    ``{"record": "end"}`` sentinel, or — if ``idle_timeout`` is set —
    when no new bytes appear for that many seconds.

    ``backlog_events`` exposes how many events have been parsed but
    not yet yielded to the consumer; :class:`repro.core.streaming.
    StreamingAnalyzer.consume` publishes it as the ``stream.lag_events``
    gauge.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        columns: Sequence[str] | None = None,
        poll_interval: float = 0.05,
        idle_timeout: float | None = None,
    ) -> None:
        self.path = str(path)
        if not self.path.endswith(".jsonl"):
            raise TraceFormatError(
                f"only .jsonl traces can be tailed: {self.path!r}"
            )
        self.poll_interval = float(poll_interval)
        self.idle_timeout = idle_timeout
        self._protocol = _JsonlProtocol(columns)
        self._pending: deque[EventBatch] = deque()
        self._offset = 0
        self._partial = b""
        self._exhausted = False

    @property
    def definitions(self) -> Trace:
        defs = self._protocol.definitions
        if defs is None:
            defs = self.wait_definitions()
        return defs

    @property
    def backlog_events(self) -> int:
        """Events parsed from the file but not yet yielded."""
        return sum(len(b.events) for b in self._pending)

    def wait_definitions(self, timeout: float | None = None) -> Trace:
        """Block (polling) until the definition records are complete.

        Definitions freeze at the first ``events`` record or at the end
        sentinel.  Batches parsed while waiting are queued, not lost.
        """
        deadline = None if timeout is None else _time.monotonic() + timeout
        idle_deadline = self._idle_deadline()
        while self._protocol.definitions is None:
            if self._poll():
                idle_deadline = self._idle_deadline()
            elif self._protocol.ended or (
                idle_deadline is not None
                and _time.monotonic() >= idle_deadline
            ):
                return self._protocol._freeze()
            if self._protocol.definitions is not None:
                break
            if deadline is not None and _time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no definition records in {self.path!r} "
                    f"after {timeout} seconds"
                )
            _time.sleep(self.poll_interval)
        return self._protocol.definitions

    def _idle_deadline(self) -> float | None:
        if self.idle_timeout is None:
            return None
        return _time.monotonic() + self.idle_timeout

    def _poll(self) -> bool:
        """Read newly completed lines; True if any data was consumed."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return False
        if size <= self._offset:
            return False
        with open(self.path, "rb") as fp:
            fp.seek(self._offset)
            data = fp.read(size - self._offset)
        self._offset += len(data)
        data = self._partial + data
        lines = data.split(b"\n")
        self._partial = lines.pop()  # bytes after the last terminator
        consumed = False
        for raw in lines:
            consumed = True
            batch = self._protocol.parse_line(raw.decode("utf-8"))
            if batch is not None:
                self._pending.append(batch)
            if self._protocol.ended:
                break
        return consumed

    def _batches(self) -> Iterator[EventBatch]:
        if self._exhausted:
            return
        idle_deadline = self._idle_deadline()
        while True:
            if self._poll():
                idle_deadline = self._idle_deadline()
            while self._pending:
                yield self._pending.popleft()
            if self._protocol.ended:
                break
            if (
                idle_deadline is not None
                and _time.monotonic() >= idle_deadline
            ):
                break
            _time.sleep(self.poll_interval)
        self._exhausted = True
        yield from self._protocol.final_batches()


class FeedCursor(EventCursor):
    """In-process push-based cursor.

    A producer in the same interpreter pushes batches with
    :meth:`push`, marks ranks done with :meth:`finish_rank` and calls
    :meth:`close` when the run is over; the consumer iterates.  The
    queue is unbounded and non-blocking: iterating past the last
    pushed batch before ``close()`` raises :class:`RuntimeError`
    rather than deadlocking (drive producer and consumer alternately,
    or from separate threads with an external queue if you need
    back-pressure).
    """

    def __init__(self, definitions: Trace) -> None:
        self._definitions = definitions
        self._queue: deque[EventBatch] = deque()
        self._finished: set[int] = set()
        self._closed = False

    @property
    def definitions(self) -> Trace:
        return self._definitions

    @property
    def backlog_events(self) -> int:
        return sum(len(b.events) for b in self._queue)

    def push(self, rank: int, events: EventList, final: bool = False) -> None:
        if self._closed:
            raise RuntimeError("cursor is closed")
        if rank in self._finished:
            raise ValueError(f"rank {rank} is already finished")
        if rank not in self._definitions.ranks:
            raise ValueError(f"rank {rank} is not defined for this cursor")
        if final:
            self._finished.add(rank)
        _C_FEED_EVENTS.add(len(events))
        self._queue.append(EventBatch(rank, events, final))

    def finish_rank(self, rank: int) -> None:
        """Mark ``rank`` complete (an empty final batch)."""
        self.push(rank, EventList.empty(), final=True)

    def close(self) -> None:
        """End the feed; unfinished ranks get empty final batches."""
        if self._closed:
            return
        for rank in self._definitions.ranks:
            if rank not in self._finished:
                self.finish_rank(rank)
        self._closed = True

    def _batches(self) -> Iterator[EventBatch]:
        while True:
            while self._queue:
                yield self._queue.popleft()
            if self._closed:
                return
            raise RuntimeError(
                "feed exhausted before close() — push more batches or "
                "close the cursor"
            )
