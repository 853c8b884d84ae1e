"""The one trace reader: ``.rpt`` and ``.jsonl`` through :class:`TraceIndex`.

:class:`TraceIndex` is the only code that decodes trace files.  Opening
one parses (and strictly validates) the definition records and the
per-rank chunk table; :meth:`TraceIndex.load` then decodes event
columns for exactly the requested ranks and columns.
:func:`read_trace` is ``TraceIndex(path).load()`` — every rank, every
column — so whole-trace commands, the sharded engine
(:mod:`repro.core.shard`) and the cursors (:mod:`repro.trace.cursor`)
meet the same checks and report the same defect the same way.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import zlib
from typing import Iterable, Sequence

import numpy as np

from .. import obs
from .binio import (
    CODECS,
    TraceFormatError,
    mmap_disabled,
    parse_dtype,
    payload_start,
    read_frame,
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
)
from .events import _DTYPES as _CANONICAL_DTYPES
from .events import EventList
from .fingerprint import _DIGEST_SIZE, fingerprint_events
from .trace import Trace
from .writer import FORMAT_VERSION

__all__ = ["TraceFormatError", "TraceIndex", "read_trace"]

#: Telemetry: bytes served zero-copy from the mmap vs. inflated through
#: zlib, and events materialised by the chunked loader.
_C_MMAPPED = obs.counter("io.bytes_mmapped")
_C_DECOMPRESSED = obs.counter("io.bytes_decompressed")
_C_EVENTS_LOADED = obs.counter("io.events_loaded")

_BIN_COLUMNS = ("time", "kind", "ref", "partner", "size", "tag", "value")


def _check_header(header) -> None:
    if not isinstance(header, dict) or header.get("record") != "header":
        raise TraceFormatError("first record must be the header")
    if header.get("version") != FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {header.get('version')!r}"
        )


def _header_attributes(header: dict) -> dict:
    """The header's ``attributes`` object (absent = empty)."""
    attributes = header.get("attributes", {})
    if not isinstance(attributes, dict):
        raise TraceFormatError(
            f"header: 'attributes' must be an object, got {attributes!r}"
        )
    return attributes


def _field(record: dict, key: str, where: str, kind: type | None = None):
    """``record[key]``, or a :class:`TraceFormatError` naming ``where``
    and ``key`` when it is missing (or, given ``kind``, mistyped)."""
    if key not in record:
        raise TraceFormatError(f"{where}: missing key {key!r}")
    value = record[key]
    if kind is not None and (
        not isinstance(value, kind) or isinstance(value, bool)
    ):
        raise TraceFormatError(
            f"{where}: {key!r} must be {kind.__name__}, got {value!r}"
        )
    return value


def _add_definition_record(
    record: dict,
    regions: RegionRegistry,
    metrics: MetricRegistry,
    locations: dict[int, Location],
) -> bool:
    """Apply one region/metric/location record; False if not one."""
    kind = record.get("record")
    if kind not in ("region", "metric", "location"):
        return False
    where = f"{kind} record {record.get('id', '?')}"
    try:
        if kind == "region":
            regions.add(
                Region(
                    id=_field(record, "id", where, int),
                    name=_field(record, "name", where, str),
                    paradigm=Paradigm(_field(record, "paradigm", where)),
                    role=RegionRole(_field(record, "role", where)),
                    source_file=record.get("source_file", ""),
                    line=record.get("line", 0),
                )
            )
        elif kind == "metric":
            metrics.add(
                Metric(
                    id=_field(record, "id", where, int),
                    name=_field(record, "name", where, str),
                    unit=record.get("unit", "#"),
                    mode=MetricMode(record.get("mode", 0)),
                    description=record.get("description", ""),
                )
            )
        else:
            loc = Location(
                id=_field(record, "id", where, int),
                name=_field(record, "name", where, str),
                group=record.get("group", "MPI"),
            )
            locations[loc.id] = loc
    except TraceFormatError:
        raise
    except (TypeError, ValueError) as err:
        raise TraceFormatError(f"{where}: {err}") from err
    return True


def _header_records(header: dict, key: str) -> list:
    """The ``.rpt`` header's ``key`` list (absent = empty), which must
    hold JSON objects only."""
    records = header.get(key, [])
    if not isinstance(records, list) or not all(
        isinstance(rec, dict) for rec in records
    ):
        raise TraceFormatError(f".rpt header: {key!r} must be a list of objects")
    return records


def _project_columns(columns: Sequence[str] | None) -> tuple[str, ...] | None:
    """Canonical-order projection of ``columns`` plus ``time``
    (``None`` = every column)."""
    if columns is None:
        return None
    unknown = sorted(set(columns) - set(_BIN_COLUMNS))
    if unknown:
        raise ValueError(f"unknown event columns: {', '.join(unknown)}")
    keep = set(columns) | {"time"}
    return tuple(col for col in _BIN_COLUMNS if col in keep)


def _event_list(
    arrays: dict[str, np.ndarray], projected: bool, where: str
) -> EventList:
    """Freeze decoded columns; a rejected stream is a format error."""
    try:
        if projected:
            return EventList.projected(arrays)
        return EventList(*(arrays[col] for col in _BIN_COLUMNS))
    except (TypeError, ValueError) as err:
        raise TraceFormatError(f"{where}: {err}") from err


def _events_from_record(
    record: dict, columns: Sequence[str] | None = None
) -> EventList:
    """Decode one ``.jsonl`` events record onto ``columns`` (a
    :func:`_project_columns` result; ``None`` = all), checking ``n``."""
    where = f"location {record.get('location')}"
    arrays = {}
    for col in _BIN_COLUMNS if columns is None else columns:
        if col not in record:
            raise TraceFormatError(
                f"{where}: events record is missing column {col!r}"
            )
        try:
            arrays[col] = np.asarray(record[col], dtype=_CANONICAL_DTYPES[col])
        except (TypeError, ValueError, OverflowError) as err:
            raise TraceFormatError(f"{where} column {col}: {err}") from err
    events = _event_list(arrays, columns is not None, where)
    if len(events) != record.get("n", len(events)):
        raise TraceFormatError(f"{where}: event count mismatch")
    return events


def read_trace(path: str | os.PathLike) -> Trace:
    """Read a whole trace, dispatching on file extension (.jsonl or .rpt)."""
    with obs.span("io.read"):
        return TraceIndex(path).load()


# ---------------------------------------------------------------------------
# Chunked / column-lazy access
# ---------------------------------------------------------------------------

#: Fast path for extracting the location id and event count from an
#: events line without parsing its (potentially huge) column arrays.
#: Matches the key order :mod:`repro.trace.writer` emits; any other
#: layout falls back to a full ``json.loads``.
_EVENTS_PREFIX_RE = re.compile(
    r'^\s*\{"record":\s*"events",\s*"location":\s*(-?\d+),\s*"n":\s*(\d+)'
)


class _RankChunk:
    """Byte extent of one rank's events in the underlying file."""

    __slots__ = ("rank", "n_events", "offset", "length", "columns")

    def __init__(self, rank, n_events, offset, length, columns=None):
        self.rank = rank
        self.n_events = n_events
        self.offset = offset  # absolute file offset of the chunk
        self.length = length
        self.columns = columns  # binary only: per-column manifest


class TraceIndex:
    """Lazy, rank-addressable view of a trace file.

    Parsing the index reads (and strictly validates) only the
    definition records and the per-rank chunk table; event columns are
    read by :meth:`load` for exactly the requested ranks.  Malformed
    chunk tables — chunks that run past the end of the file, overlap
    each other, or duplicate a rank — raise :class:`TraceFormatError`
    at index-construction time rather than corrupting a later read.

    Examples
    --------
    ::

        index = TraceIndex("run.rpt")
        index.ranks            # all location ids, sorted
        part = index.load([0, 1, 2])   # Trace with only these ranks
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self.regions = RegionRegistry()
        self.metrics = MetricRegistry()
        self.locations: dict[int, Location] = {}
        self.name = "trace"
        self.attributes: dict[str, str] = {}
        self._chunks: dict[int, _RankChunk] = {}
        self.version: int | None = None
        self._buf: "mmap.mmap | None | bool" = None
        if self.path.endswith(".rpt"):
            self.format = "rpt"
            self._index_binary()
        elif self.path.endswith(".jsonl"):
            self.format = "jsonl"
            self._index_jsonl()
        else:
            raise TraceFormatError(
                f"cannot infer trace format from extension: {self.path!r}"
            )

    # -- indexing ------------------------------------------------------

    def _index_binary(self) -> None:
        file_size = os.path.getsize(self.path)
        with open(self.path, "rb") as fp:
            version, header_len, header = read_frame(fp)
        self.version = version
        base = payload_start(header_len, version)
        payload_size = max(0, file_size - base)

        self.name = header.get("name", "trace")
        self.attributes = _header_attributes(header)
        for kind in ("region", "metric"):
            for rec in _header_records(header, kind + "s"):
                _add_definition_record({**rec, "record": kind},
                                       self.regions, self.metrics, self.locations)

        intervals: list[tuple[int, int, int, str]] = []
        for loc_rec in _header_records(header, "locations"):
            loc_id = _field(loc_rec, "id", "location record", int)
            if loc_id in self.locations:
                raise TraceFormatError(
                    f"duplicate chunk for location {loc_id}"
                )
            _add_definition_record({**loc_rec, "record": "location"},
                                   self.regions, self.metrics, self.locations)
            where = f"location {loc_id}"
            n = _field(loc_rec, "n", where, int)
            if n < 0:
                raise TraceFormatError(f"{where}: negative event count {n}")
            columns = _field(loc_rec, "columns", where, dict)
            extents = {}
            for col in _BIN_COLUMNS:
                spec = columns.get(col)
                if not isinstance(spec, dict):
                    raise TraceFormatError(f"{where}: missing column {col!r}")
                col_where = f"{where} column {col}"
                dtype = parse_dtype(spec.get("dtype"), col_where)
                codec = spec.get("codec", "zlib")
                if codec not in CODECS:
                    raise TraceFormatError(
                        f"{col_where}: unknown codec {codec!r}"
                    )
                off = _field(spec, "offset", col_where)
                length = _field(spec, "length", col_where)
                if (
                    not isinstance(off, int)
                    or not isinstance(length, int)
                    or off < 0
                    or length < 0
                ):
                    raise TraceFormatError(
                        f"{col_where}: invalid chunk extent "
                        f"(offset={off!r}, length={length!r})"
                    )
                if off + length > payload_size:
                    raise TraceFormatError(
                        f"{col_where}: chunk [{off}, {off + length}) runs "
                        f"past the end of the payload ({payload_size} "
                        f"bytes); file is truncated"
                    )
                if codec == "raw" and length != n * dtype.itemsize:
                    raise TraceFormatError(
                        f"{col_where}: raw blob is {length} bytes, "
                        f"inconsistent with n={n!r}"
                    )
                if length:
                    intervals.append((off, off + length, loc_id, col))
                extents[col] = (base + off, length, spec["dtype"], codec)
            lo = min(extent[0] for extent in extents.values())
            hi = max(extent[0] + extent[1] for extent in extents.values())
            self._chunks[loc_id] = _RankChunk(
                rank=loc_id, n_events=n, offset=lo, length=hi - lo,
                columns=extents,
            )
        intervals.sort()
        for prev, cur in zip(intervals, intervals[1:]):
            if cur[0] < prev[1]:
                raise TraceFormatError(
                    f"overlapping chunks: location {prev[2]} column "
                    f"{prev[3]} [{prev[0]}, {prev[1]}) overlaps location "
                    f"{cur[2]} column {cur[3]} [{cur[0]}, {cur[1]})"
                )

    def _index_jsonl(self) -> None:
        with open(self.path, "rb") as fp:
            header_line = fp.readline()
            if not header_line:
                raise TraceFormatError("empty trace file")
            try:
                header = json.loads(header_line)
            except (UnicodeDecodeError, json.JSONDecodeError) as err:
                raise TraceFormatError(f"corrupt header line: {err}") from err
            _check_header(header)
            self.name = header.get("name", "trace")
            self.attributes = _header_attributes(header)

            while True:
                offset = fp.tell()
                raw = fp.readline()
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                match = _EVENTS_PREFIX_RE.match(line.decode("utf-8", "replace"))
                if match:
                    loc_id, n = int(match.group(1)), int(match.group(2))
                else:
                    try:
                        record = json.loads(line)
                    except (UnicodeDecodeError, json.JSONDecodeError) as err:
                        raise TraceFormatError(
                            f"corrupt record at byte {offset}: {err}"
                        ) from err
                    if not isinstance(record, dict):
                        raise TraceFormatError(
                            f"non-object record: {line[:40]!r}"
                        )
                    if _add_definition_record(
                        record, self.regions, self.metrics, self.locations
                    ):
                        continue
                    if record.get("record") != "events":
                        raise TraceFormatError(
                            f"unknown record type {record.get('record')!r}"
                        )
                    loc_id = _field(record, "location", "events record", int)
                    time = record.get("time", [])
                    n = record.get("n", len(time) if isinstance(time, list) else -1)
                    if not isinstance(n, int) or n < 0:
                        raise TraceFormatError(
                            f"location {loc_id}: invalid event count {n!r}"
                        )
                if loc_id in self._chunks:
                    raise TraceFormatError(
                        f"overlapping chunks: duplicate events record for "
                        f"location {loc_id}"
                    )
                self._chunks[loc_id] = _RankChunk(
                    rank=loc_id, n_events=n, offset=offset, length=len(raw)
                )
        for loc_id in self._chunks:
            if loc_id not in self.locations:
                raise TraceFormatError(
                    f"events for undefined location {loc_id}"
                )

    # -- queries -------------------------------------------------------

    @property
    def ranks(self) -> list[int]:
        """Sorted list of location ids defined in the file."""
        return sorted(self.locations)

    @property
    def num_events(self) -> int:
        return sum(c.n_events for c in self._chunks.values())

    def num_events_of(self, rank: int) -> int:
        chunk = self._chunks.get(rank)
        return chunk.n_events if chunk is not None else 0

    def event_counts(self) -> dict[int, int]:
        """``rank -> event count`` for every defined location."""
        return {rank: self.num_events_of(rank) for rank in self.ranks}

    def _new_trace(self) -> Trace:
        return Trace(
            regions=self.regions,
            metrics=self.metrics,
            name=self.name,
            attributes=self.attributes,
        )

    def definitions_trace(self) -> Trace:
        """Trace with all locations but empty event streams.

        Enough for region/metric lookups, classifier masks and the
        ``num_processes`` used by the dominant-function criterion.
        """
        trace = self._new_trace()
        for rank in self.ranks:
            trace.add_process(self.locations[rank], EventList.empty())
        return trace

    # -- lifetime ------------------------------------------------------

    def close(self) -> None:
        """Release the shared mmap backing zero-copy column views.

        The map normally lives until the last view into it is
        garbage-collected, which on Windows locks the trace file
        against deletion or in-place replacement for the whole time.
        ``close()`` drops the map eagerly; it raises :class:`BufferError`
        if zero-copy views served by :meth:`load` are still alive (the
        index itself stays usable — a later load simply re-maps).
        """
        buf, self._buf = self._buf, None
        if buf:
            try:
                buf.close()
            except BufferError:
                self._buf = buf
                raise

    def __enter__(self) -> "TraceIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- loading -------------------------------------------------------

    def _buffer(self) -> "mmap.mmap | None":
        """Shared read-only mmap of the file (binary format only).

        Created lazily on the first load; ``None`` when mmap is
        unavailable or disabled via ``REPRO_NO_MMAP=1``.  Zero-copy
        column views keep the map alive through their ``.base``
        reference; use :meth:`close` (or the context-manager form) to
        drop it eagerly once no views are outstanding, otherwise the
        OS reclaims it when the last view is garbage-collected.
        """
        if self._buf is None:
            self._buf = False
            if self.format == "rpt" and not mmap_disabled():
                try:
                    with open(self.path, "rb") as fp:
                        self._buf = mmap.mmap(
                            fp.fileno(), 0, access=mmap.ACCESS_READ
                        )
                except (ValueError, OSError):
                    self._buf = False
        return self._buf or None

    def _read_column_blob(self, fp, offset: int, length: int, where: str):
        """Raw on-disk bytes of one column blob (mmap view or read)."""
        buf = self._buffer()
        if buf is not None:
            blob = memoryview(buf)[offset:offset + length]
        else:
            fp.seek(offset)
            blob = fp.read(length)
        if len(blob) != length:
            raise TraceFormatError(f"{where}: chunk is truncated")
        return blob

    def _load_events_binary(
        self, fp, chunk: _RankChunk, columns: Sequence[str] | None = None
    ) -> EventList:
        buf = self._buffer()
        arrays: dict[str, np.ndarray] = {}
        for col in (_BIN_COLUMNS if columns is None else columns):
            offset, length, dtype_str, codec = chunk.columns[col]
            where = f"location {chunk.rank} column {col}"
            dtype = parse_dtype(dtype_str, where)
            if codec == "raw":
                # Blob length == n * itemsize was validated at index
                # time, so a view over the mmap is safe and zero-copy.
                if buf is not None:
                    try:
                        arr = np.frombuffer(
                            buf, dtype=dtype, count=chunk.n_events,
                            offset=offset,
                        )
                    except ValueError as err:
                        raise TraceFormatError(f"{where}: {err}") from err
                    _C_MMAPPED.add(length)
                else:
                    arr = np.frombuffer(
                        self._read_column_blob(fp, offset, length, where),
                        dtype=dtype,
                    )
            else:
                blob = self._read_column_blob(fp, offset, length, where)
                try:
                    data = zlib.decompress(blob)
                except zlib.error as err:
                    raise TraceFormatError(
                        f"{where}: corrupt zlib blob: {err}"
                    ) from err
                arr = np.frombuffer(data, dtype=dtype)
                _C_DECOMPRESSED.add(len(data))
            if len(arr) != chunk.n_events:
                raise TraceFormatError(
                    f"{where}: expected "
                    f"{chunk.n_events} entries, found {len(arr)}"
                )
            arrays[col] = arr
        return _event_list(arrays, columns is not None, f"location {chunk.rank}")

    def _load_events_jsonl(
        self, fp, chunk: _RankChunk, columns: Sequence[str] | None = None
    ) -> EventList:
        fp.seek(chunk.offset)
        raw = fp.read(chunk.length)
        try:
            record = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise TraceFormatError(
                f"location {chunk.rank}: corrupt events record: {err}"
            ) from err
        if record.get("location") != chunk.rank:
            raise TraceFormatError(
                f"location {chunk.rank}: chunk table out of sync"
            )
        return _events_from_record(record, columns)

    def supports_slices(
        self, rank: int, columns: Sequence[str] | None = None
    ) -> bool:
        """True when ``load_events`` can read sub-ranges of ``rank``
        as exact byte ranges (binary format, ``raw`` column codec)."""
        chunk = self._chunks.get(rank)
        if chunk is None or self.format != "rpt":
            return False
        project = _project_columns(columns) or _BIN_COLUMNS
        return all(chunk.columns[col][3] == "raw" for col in project)

    def load_events(
        self,
        rank: int,
        columns: Sequence[str] | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> EventList:
        """Events ``[start, stop)`` of one rank.

        For ``raw`` binary columns the slice is served from its exact
        byte range (mmap view or a bounded read), so memory is bounded
        by the slice, not the rank.  Other layouts
        (zlib columns, ``.jsonl`` records) cannot be partially
        decoded; asking for a strict sub-range of one raises
        :class:`ValueError` — check :meth:`supports_slices` first, or
        load the whole rank and slice the returned views.
        """
        chunk = self._chunks.get(rank)
        n = chunk.n_events if chunk is not None else 0
        stop = n if stop is None else min(stop, n)
        start = max(int(start), 0)
        if start == 0 and stop >= n:
            return self.load([rank], columns=columns).events_of(rank)
        if not self.supports_slices(rank, columns):
            raise ValueError(
                f"rank {rank} of {self.path!r} does not support sliced "
                "reads (zlib/jsonl storage); load the whole rank instead"
            )
        project = _project_columns(columns) or _BIN_COLUMNS
        count = max(stop - start, 0)
        buf = self._buffer()
        arrays: dict[str, np.ndarray] = {}
        with obs.span("io.load"), open(self.path, "rb") as fp:
            for col in project:
                offset, _length, dtype_str, _codec = chunk.columns[col]
                where = f"location {rank} column {col}"
                dtype = parse_dtype(dtype_str, where)
                byte_off = offset + start * dtype.itemsize
                if buf is not None:
                    try:
                        arr = np.frombuffer(
                            buf, dtype=dtype, count=count, offset=byte_off
                        )
                    except ValueError as err:
                        raise TraceFormatError(f"{where}: {err}") from err
                    _C_MMAPPED.add(count * dtype.itemsize)
                else:
                    blob = self._read_column_blob(
                        fp, byte_off, count * dtype.itemsize, where
                    )
                    arr = np.frombuffer(blob, dtype=dtype)
                arrays[col] = arr
        _C_EVENTS_LOADED.add(count)
        return _event_list(
            arrays, len(project) < len(_BIN_COLUMNS), f"location {rank}"
        )

    def cursor(
        self,
        ranks: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
        chunk_events: int | None = None,
    ):
        """Pull-based :class:`~repro.trace.cursor.IndexCursor` over
        this file: ranks ascending, at most ``chunk_events`` events per
        batch (``None`` = one whole-rank batch per rank)."""
        from .cursor import IndexCursor

        return IndexCursor(
            self, ranks=ranks, columns=columns, chunk_events=chunk_events
        )

    def load(
        self,
        ranks: Sequence[int] | None = None,
        columns: Sequence[str] | None = None,
    ) -> Trace:
        """Materialise a trace containing only ``ranks``.

        ``None`` loads every rank (this is :func:`read_trace`).
        Requested ranks must be defined in the
        file; locations without an events record yield empty streams.

        ``columns`` projects the load onto a subset of event columns
        (``time`` is always included).  Unprojected columns become
        placeholders that raise
        :class:`~repro.trace.events.ColumnNotLoadedError` on use, so a
        pass that touches an undeclared column fails loudly.  For
        zlib-coded columns the projection skips their decompression
        entirely; for v2 raw columns the full load is already a
        zero-copy view, but projecting still skips validation work.
        """
        project = _project_columns(columns)
        wanted: Iterable[int] = self.ranks if ranks is None else ranks
        wanted = list(wanted)
        for rank in wanted:
            if rank not in self.locations:
                raise TraceFormatError(
                    f"rank {rank} is not defined in {self.path!r}"
                )
        if len(set(wanted)) != len(wanted):
            raise ValueError(f"duplicate ranks requested: {wanted!r}")
        trace = self._new_trace()
        with obs.span("io.load"), open(self.path, "rb") as fp:
            for rank in sorted(wanted):
                chunk = self._chunks.get(rank)
                if chunk is None:
                    events = EventList.empty()
                elif self.format == "rpt":
                    events = self._load_events_binary(fp, chunk, project)
                else:
                    events = self._load_events_jsonl(fp, chunk, project)
                _C_EVENTS_LOADED.add(len(events))
                trace.add_process(self.locations[rank], events)
        return trace

    # -- content digests ----------------------------------------------

    def rank_digest(self, rank: int) -> str:
        """Per-rank event digest, equal to
        :func:`~repro.trace.fingerprint.fingerprint_events` over the
        rank's loaded :class:`EventList`.

        For binary files whose manifest dtypes are canonical (always
        true for files we write), the digest is computed straight from
        the column bytes — for v2 raw columns that means hashing mmap
        slices with no array materialisation at all.  Anything else
        falls back to loading the rank.
        """
        chunk = self._chunks.get(rank)
        if chunk is None:
            return fingerprint_events(EventList.empty())
        if self.format != "rpt" or any(
            chunk.columns[col][2] != np.dtype(_CANONICAL_DTYPES[col]).str
            for col in _BIN_COLUMNS
        ):
            return fingerprint_events(self.load([rank]).events_of(rank))
        h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        with open(self.path, "rb") as fp:
            for col in _BIN_COLUMNS:
                offset, length, _dtype_str, codec = chunk.columns[col]
                where = f"location {chunk.rank} column {col}"
                blob = self._read_column_blob(fp, offset, length, where)
                h.update(col.encode("ascii"))
                if codec == "raw":
                    h.update(blob)
                else:
                    try:
                        h.update(zlib.decompress(blob))
                    except zlib.error as err:
                        raise TraceFormatError(
                            f"{where}: corrupt zlib blob: {err}"
                        ) from err
        return h.hexdigest()

