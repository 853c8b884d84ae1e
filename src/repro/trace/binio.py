"""Compact binary trace format (``.rpt``), versions 1 and 2.

Version 1 layout::

    magic       b"RPTR"
    version     u16 little-endian (= 1)
    header_len  u32 little-endian
    header      UTF-8 JSON (definitions + per-location column manifest)
    blobs       concatenated zlib-compressed column arrays

Version 2 keeps the same frame but adds a per-column ``codec`` field
(``"raw"`` or ``"zlib"``) to the manifest and aligns the payload::

    magic       b"RPTR"
    version     u16 little-endian (= 2)
    header_len  u32 little-endian
    header      UTF-8 JSON (adds "align": 64 and per-column "codec")
    padding     zero bytes up to the next 64-byte file offset
    blobs       raw blobs at 64-byte-aligned offsets; zlib blobs packed

``raw`` blobs are the little-endian array bytes verbatim, so a reader
can serve them as zero-copy :func:`numpy.frombuffer` views straight out
of an ``mmap`` — no read, no decompress, no copy.  The 64-byte
alignment (one cache line, and a multiple of every column itemsize)
guarantees those views are aligned for any vectorised kernel.  The
payload start is *not* stored: both sides derive it as
``align64(10 + header_len)``, keeping the header free of self-sizing
circularity.  Offsets in the manifest are relative to the payload
start on both versions.

All columns of one location stay adjacent on disk in canonical column
order, so projecting a column subset still reads a contiguous-ish
region and sharded readers can map one rank without touching others.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .trace import Trace

__all__ = [
    "write_binary",
    "write_binary_arrays",
    "TraceFormatError",
    "BIN_VERSION",
    "BIN_ALIGN",
    "CODECS",
]

MAGIC = b"RPTR"
#: Newest format version the writer emits (and the writer default).
BIN_VERSION = 2
#: Format versions the reader accepts.
SUPPORTED_VERSIONS = (1, 2)
#: Alignment (bytes) of the payload start and of raw blobs in v2 files.
BIN_ALIGN = 64
#: Per-column codecs understood by the v2 reader.
CODECS = ("raw", "zlib")
#: ``codec="auto"`` keeps zlib only when it shrinks a column below this
#: fraction of its raw size; otherwise the column is stored raw so
#: readers get the zero-copy mmap path.
_AUTO_ZLIB_RATIO = 0.75
_COLUMNS = ("time", "kind", "ref", "partner", "size", "tag", "value")


def _align_up(offset: int, align: int = BIN_ALIGN) -> int:
    return (offset + align - 1) // align * align


def mmap_disabled() -> bool:
    """True when the ``REPRO_NO_MMAP`` environment switch is active."""
    return os.environ.get("REPRO_NO_MMAP", "").strip() not in ("", "0")


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or has the wrong version."""


def parse_dtype(spec, where: str):
    """Resolve a manifest dtype string, containing numpy's failures.

    ``np.dtype`` on attacker-controlled strings can raise surprising
    exception types (the comma-string parser even raises SyntaxError);
    all of them surface as :class:`TraceFormatError`.
    """
    try:
        return np.dtype(spec)
    except Exception as err:
        raise TraceFormatError(f"{where}: invalid dtype {spec!r}: {err}") from err


def _column_codec(col: str, codec) -> str:
    """Resolve the requested codec policy for one column."""
    if codec is None:
        codec = "auto"
    if isinstance(codec, dict):
        codec = codec.get(col, "auto")
    if codec not in ("auto", "raw", "zlib"):
        raise ValueError(f"unknown codec {codec!r} for column {col!r}")
    return codec


def write_binary(
    trace: Trace,
    path: str | os.PathLike,
    compresslevel: int = 6,
    *,
    version: int = BIN_VERSION,
    codec=None,
) -> None:
    """Serialise ``trace`` to ``path`` in the binary ``.rpt`` format.

    Parameters
    ----------
    version:
        1 for the legacy all-zlib format, 2 (default) for the
        codec-per-column, 64-byte-aligned format.
    codec:
        v2 only — ``"raw"``, ``"zlib"``, ``"auto"`` (the default:
        zlib is kept only when it beats raw by a clear margin), or a
        ``{column: codec}`` dict for per-column control.
    """
    write_binary_arrays(
        path,
        name=trace.name,
        attributes=trace.attributes,
        regions=trace.regions,
        metrics=trace.metrics,
        locations=(
            (p.location, len(p.events), {c: getattr(p.events, c) for c in _COLUMNS})
            for p in trace.processes()
        ),
        compresslevel=compresslevel,
        version=version,
        codec=codec,
    )


def write_binary_arrays(
    path: str | os.PathLike,
    *,
    name: str,
    attributes: dict,
    regions,
    metrics,
    locations,
    compresslevel: int = 6,
    version: int = BIN_VERSION,
    codec=None,
) -> int:
    """Serialise raw column arrays to ``path``; returns total file bytes.

    ``locations`` yields ``(Location, n, {column: ndarray})`` triples in
    the order they should appear on disk.  This is the array-level core
    of :func:`write_binary` — sinks that already hold column buffers
    (e.g. the simulator's ``ColumnarTraceSink``) call it directly and
    skip ``Trace``/``EventList`` construction entirely; the bytes
    produced are identical either way.
    """
    if version not in SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported binary version {version}")
    if version == 1 and codec not in (None, "zlib", "auto"):
        raise ValueError("per-column codecs require version 2")

    blobs: list[bytes] = []
    pads: list[int] = []
    offset = 0
    location_manifest = []
    for location, n, cols in locations:
        columns = {}
        for col in _COLUMNS:
            arr = cols[col]
            raw = arr.tobytes()
            spec = {"dtype": arr.dtype.str}
            if version == 1:
                blob, chosen = zlib.compress(raw, compresslevel), "zlib"
            else:
                want = _column_codec(col, codec)
                if want == "raw":
                    blob, chosen = raw, "raw"
                else:
                    z = zlib.compress(raw, compresslevel)
                    if want == "zlib" or len(z) <= len(raw) * _AUTO_ZLIB_RATIO:
                        blob, chosen = z, "zlib"
                    else:
                        blob, chosen = raw, "raw"
                spec["codec"] = chosen
            pad = 0
            if version == 2 and chosen == "raw":
                pad = _align_up(offset) - offset
            spec["offset"] = offset + pad
            spec["length"] = len(blob)
            columns[col] = spec
            pads.append(pad)
            blobs.append(blob)
            offset += pad + len(blob)
        location_manifest.append(
            {
                "id": location.id,
                "name": location.name,
                "group": location.group,
                "n": int(n),
                "columns": columns,
            }
        )

    header = {
        "name": name,
        "attributes": attributes,
        "regions": [
            {
                "id": r.id,
                "name": r.name,
                "paradigm": int(r.paradigm),
                "role": int(r.role),
                "source_file": r.source_file,
                "line": r.line,
            }
            for r in regions
        ],
        "metrics": [
            {
                "id": m.id,
                "name": m.name,
                "unit": m.unit,
                "mode": int(m.mode),
                "description": m.description,
            }
            for m in metrics
        ],
        "locations": location_manifest,
    }
    if version == 2:
        header["align"] = BIN_ALIGN
    header_bytes = json.dumps(header).encode("utf-8")

    with open(path, "wb") as fp:
        fp.write(MAGIC)
        fp.write(struct.pack("<HI", version, len(header_bytes)))
        fp.write(header_bytes)
        if version == 2:
            fp.write(b"\0" * (payload_start(len(header_bytes), 2) - 10 - len(header_bytes)))
        for pad, blob in zip(pads, blobs):
            if pad:
                fp.write(b"\0" * pad)
            fp.write(blob)
        return fp.tell()


def payload_start(header_len: int, version: int) -> int:
    """Absolute file offset of the blob payload.

    Derived, never stored: v1 payload begins right after the header;
    v2 pads the 10-byte frame + header up to the next 64-byte boundary
    so that raw-blob offsets stay aligned in absolute file terms too.
    """
    base = 10 + header_len
    return base if version == 1 else _align_up(base)


def read_frame(fp) -> tuple[int, int, dict]:
    """Read and validate the fixed frame; return (version, header_len, header)."""
    magic = fp.read(4)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}; not an .rpt trace")
    head = fp.read(6)
    if len(head) != 6:
        raise TraceFormatError("truncated .rpt header")
    version, header_len = struct.unpack("<HI", head)
    if version not in SUPPORTED_VERSIONS:
        raise TraceFormatError(f"unsupported binary version {version}")
    header_bytes = fp.read(header_len)
    if len(header_bytes) != header_len:
        raise TraceFormatError("truncated .rpt header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise TraceFormatError(f"corrupt .rpt header: {err}") from err
    if not isinstance(header, dict):
        raise TraceFormatError("corrupt .rpt header: not a JSON object")
    return version, header_len, header


# Kept only because perfbench/tracer.py wraps this name (its TARGETS
# table); drop it together with that entry.  Nothing here calls it.
def read_binary(path: str | os.PathLike) -> Trace:
    """Read a ``.rpt`` trace: ``TraceIndex(path).load()``."""
    from .reader import TraceIndex

    return TraceIndex(path).load()
