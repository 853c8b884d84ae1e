"""Fuzz/robustness tests for the trace reader.

A reader fed corrupted bytes must raise a controlled exception (our
format errors, zlib/JSON/value errors), never crash the interpreter,
hang, or silently return garbage that later explodes in analysis.
"""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.paper import figure3_trace
from repro.trace import read_trace, write_binary, write_jsonl
from repro.trace.reader import TraceFormatError

ACCEPTABLE = (
    TraceFormatError,
    ValueError,
    KeyError,
    TypeError,
    EOFError,
    IndexError,
    zlib.error,
    json.JSONDecodeError,
    UnicodeDecodeError,
    struct_error := __import__("struct").error,
    OverflowError,
    MemoryError,
)


@pytest.fixture(scope="module")
def binary_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.rpt"
    write_binary(figure3_trace(), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def jsonl_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
    write_jsonl(figure3_trace(), path)
    return path.read_text()


class TestBinaryFuzz:
    @given(st.integers(min_value=0, max_value=4095), st.integers(0, 255))
    @settings(max_examples=120, deadline=None)
    def test_single_byte_flip(self, binary_bytes, tmp_path_factory, pos, value):
        data = bytearray(binary_bytes)
        pos = pos % len(data)
        if data[pos] == value:
            value = (value + 1) % 256
        data[pos] = value
        path = tmp_path_factory.mktemp("flip") / "c.rpt"
        path.write_bytes(bytes(data))
        try:
            trace = read_trace(path)
        except ACCEPTABLE:
            return
        # If it still parses, the result must be structurally sound or
        # the validator must catch it; no crash either way.
        from repro.trace import validate_trace

        validate_trace(trace)

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_truncation(self, binary_bytes, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("trunc") / "c.rpt"
        path.write_bytes(binary_bytes[: max(len(binary_bytes) - cut, 0)])
        with pytest.raises(ACCEPTABLE):
            read_trace(path)

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_random_garbage(self, tmp_path_factory, blob):
        path = tmp_path_factory.mktemp("junk") / "c.rpt"
        path.write_bytes(blob)
        with pytest.raises(ACCEPTABLE):
            read_trace(path)


class TestJsonlFuzz:
    @given(st.integers(min_value=0, max_value=10_000), st.characters())
    @settings(max_examples=80, deadline=None)
    def test_single_char_substitution(self, jsonl_text, tmp_path_factory,
                                      pos, char):
        text = list(jsonl_text)
        pos = pos % len(text)
        text[pos] = char
        path = tmp_path_factory.mktemp("sub") / "c.jsonl"
        path.write_text("".join(text))
        try:
            trace = read_trace(path)
        except ACCEPTABLE:
            return
        from repro.trace import validate_trace

        validate_trace(trace)

    @given(st.lists(st.text(max_size=40), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_lines(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("lines") / "c.jsonl"
        path.write_text("\n".join(lines))
        with pytest.raises(ACCEPTABLE):
            read_trace(path)

    def test_dropped_lines_detected_or_benign(self, jsonl_text, tmp_path):
        lines = jsonl_text.splitlines()
        for drop in range(1, min(len(lines), 6)):
            subset = lines[:drop] + lines[drop + 1 :]
            path = tmp_path / f"drop{drop}.jsonl"
            path.write_text("\n".join(subset))
            try:
                trace = read_trace(path)
            except ACCEPTABLE:
                continue
            from repro.trace import validate_trace

            validate_trace(trace)


def _rewrite_rpt_header(data: bytes, mutate) -> bytes:
    """Decode an .rpt header JSON, apply ``mutate``, re-encode.

    Re-derives the (version-dependent) payload start so the rewritten
    header's payload-relative offsets still point at the same bytes.
    """
    import struct

    from repro.trace.binio import payload_start

    assert data[:4] == b"RPTR"
    version, hlen = struct.unpack_from("<HI", data, 4)
    header = json.loads(data[10 : 10 + hlen])
    mutate(header)
    hb = json.dumps(header).encode("utf-8")
    pad = b"\0" * (payload_start(len(hb), version) - 10 - len(hb))
    return (
        data[:4]
        + struct.pack("<HI", version, len(hb))
        + hb
        + pad
        + data[payload_start(hlen, version) :]
    )


class TestTraceIndexStrictness:
    """The chunked reader must reject malformed per-rank chunk tables.

    These are the failure modes a sharded worker would otherwise hit
    deep inside replay: a manifest entry pointing past the end of a
    truncated file, two entries claiming the same payload bytes, or a
    rank appearing twice.  All must surface as ``TraceFormatError`` at
    index or load time, never as silent garbage.
    """

    from repro.trace.reader import TraceIndex  # class attr for brevity

    def _write(self, tmp_path, data: bytes):
        path = tmp_path / "c.rpt"
        path.write_bytes(data)
        return path

    def test_truncated_chunk_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            col = header["locations"][0]["columns"]["time"]
            col["length"] = col["length"] + 10_000_000

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="truncated"):
            self.TraceIndex(path)

    def test_truncated_payload_rejected(self, binary_bytes, tmp_path):
        # Manifest intact, payload bytes cut off at the end.
        path = self._write(tmp_path, binary_bytes[:-17])
        with pytest.raises(TraceFormatError, match="truncated"):
            self.TraceIndex(path)

    def test_overlapping_chunks_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            locs = header["locations"]
            a = locs[0]["columns"]["time"]
            b = locs[1]["columns"]["time"]
            b["offset"] = a["offset"]  # second rank claims first's bytes

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="overlap"):
            self.TraceIndex(path)

    def test_duplicate_location_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            header["locations"].append(header["locations"][0])

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="duplicate"):
            self.TraceIndex(path)

    def test_negative_offset_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            header["locations"][0]["columns"]["time"]["offset"] = -4

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="invalid chunk extent"):
            self.TraceIndex(path)

    def test_missing_column_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            del header["locations"][0]["columns"]["kind"]

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        with pytest.raises(TraceFormatError, match="missing column"):
            self.TraceIndex(path)

    def test_wrong_event_count_rejected(self, binary_bytes, tmp_path):
        def mutate(header):
            header["locations"][0]["n"] += 1

        path = self._write(tmp_path, _rewrite_rpt_header(binary_bytes, mutate))
        # v2 raw columns are caught at index time (blob length must be
        # n * itemsize); zlib columns only at load/decompress time.
        with pytest.raises(TraceFormatError, match="expected|inconsistent"):
            index = self.TraceIndex(path)
            index.load([index.ranks[0]])

    def test_duplicate_jsonl_events_record_rejected(self, jsonl_text, tmp_path):
        lines = jsonl_text.splitlines()
        events_lines = [
            ln for ln in lines if '"record": "events"' in ln
            or '"record":"events"' in ln
        ]
        assert events_lines, "fixture trace has no events records"
        path = tmp_path / "dup.jsonl"
        path.write_text("\n".join([*lines, events_lines[0]]))
        from repro.trace.reader import TraceIndex

        with pytest.raises(TraceFormatError, match="duplicate"):
            TraceIndex(path)

    def test_requesting_unknown_rank_rejected(self, binary_bytes, tmp_path):
        path = self._write(tmp_path, binary_bytes)
        index = self.TraceIndex(path)
        with pytest.raises(TraceFormatError, match="unknown"):
            index.load([max(index.ranks) + 1])


def _blob_cuts(data: bytes) -> list[int]:
    """File offsets that fall mid-way into the first, a middle and the
    last compressed column blob of an ``.rpt`` file."""
    import struct

    from repro.trace.binio import payload_start

    version, hlen = struct.unpack_from("<HI", data, 4)
    header = json.loads(data[10 : 10 + hlen])
    base = payload_start(hlen, version)
    specs = sorted(
        (spec for loc in header["locations"] for spec in loc["columns"].values()),
        key=lambda spec: spec["offset"],
    )
    picks = (specs[0], specs[len(specs) // 2], specs[-1])
    return [base + spec["offset"] + spec["length"] // 2 for spec in picks]


class TestTruncatedZlibColumns:
    """A trace cut inside a zlib column blob is a bad input, not a
    crash: every reading command exits 2 with one ``error:`` line."""

    COMMANDS = ("analyze", "info", "profile", "stats", "monitor")

    @pytest.fixture(scope="class", params=[1, 2], ids=["v1", "v2-zlib"])
    def rpt_bytes(self, request, tmp_path_factory):
        path = tmp_path_factory.mktemp("trunc") / "t.rpt"
        codec = "zlib" if request.param == 2 else None
        write_binary(figure3_trace(), path, version=request.param, codec=codec)
        return path.read_bytes()

    def test_reader_raises_format_error(self, rpt_bytes, tmp_path):
        path = tmp_path / "cut.rpt"
        for cut in _blob_cuts(rpt_bytes):
            path.write_bytes(rpt_bytes[:cut])
            with pytest.raises(TraceFormatError, match="file is truncated"):
                read_trace(path)

    def test_corrupt_blob_raises_format_error(self, rpt_bytes, tmp_path):
        data = bytearray(rpt_bytes)
        cut = _blob_cuts(rpt_bytes)[0]
        data[cut - 4 : cut + 4] = b"\xff" * 8
        path = tmp_path / "bad.rpt"
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="zlib"):
            read_trace(path)

    def test_cli_exits_2_without_traceback(self, rpt_bytes, tmp_path):
        for i, cut in enumerate(_blob_cuts(rpt_bytes)):
            path = tmp_path / f"cut{i}.rpt"
            path.write_bytes(rpt_bytes[:cut])
            for command in self.COMMANDS:
                _assert_bad_input(
                    [command, str(path)], f"{command} on a cut at byte {cut}"
                )


def _run_repro(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``repro argv`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _assert_bad_input(argv: list[str], where: str) -> None:
    """Run ``repro argv`` in a fresh interpreter; it must exit 2 with
    one ``error:`` line and no traceback."""
    proc = _run_repro(argv)
    assert proc.returncode == 2, (where, proc.stderr)
    assert "Traceback" not in proc.stderr, where
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), (where, proc.stderr)


class TestJsonlEndSentinel:
    """A finished live stream ends in the ``{"record": "end"}`` sentinel
    that ``monitor --follow`` stops at; the one reader takes it as the
    end of the trace on every command."""

    END = '{"record": "end"}\n'

    def test_commands_accept_the_sentinel(self, jsonl_text, tmp_path):
        plain = tmp_path / "plain" / "t.jsonl"
        ended = tmp_path / "ended" / "t.jsonl"
        for path, text in ((plain, jsonl_text), (ended, jsonl_text + self.END)):
            path.parent.mkdir()
            path.write_text(text)
            proc = _run_repro(
                ["analyze", str(path), "--json", str(path.parent / "r.json")]
            )
            assert proc.returncode == 0, proc.stderr
        report = (ended.parent / "r.json").read_bytes()
        assert report == (plain.parent / "r.json").read_bytes()
        for command in ("info", "lint", "monitor"):
            proc = _run_repro([command, str(ended)])
            assert proc.returncode == 0, (command, proc.stderr)

    def test_record_after_the_sentinel_is_rejected(self, jsonl_text, tmp_path):
        lines = jsonl_text.splitlines(keepends=True)
        path = tmp_path / "t.jsonl"
        for tail in (lines[-1], self.END):
            path.write_text("".join(lines[:-1]) + self.END + tail)
            with pytest.raises(TraceFormatError, match="after the end sentinel"):
                read_trace(path)


class TestTornJsonlRecord:
    """A ``.jsonl`` trace whose last events record was cut short.

    The chunk index reads only each record's prefix, so the defect
    surfaces mid-run in the commands that read lazily — which must
    still report it as bad input."""

    def test_lazy_readers_exit_2_without_traceback(self, jsonl_text, tmp_path):
        good = tmp_path / "good.jsonl"
        torn = tmp_path / "torn.jsonl"
        good.write_text(jsonl_text)
        torn.write_text(jsonl_text.rstrip("\n")[:-20])
        for argv in (
            ["monitor", str(torn)],
            ["analyze", str(torn), "--shards", "2"],
            ["compare", str(torn), str(good), "--shards", "2"],
        ):
            _assert_bad_input(argv, " ".join(argv[:1] + argv[2:]))


def _rewrite_jsonl_record(text: str, kind: str, mutate) -> str:
    """Apply ``mutate`` to the first ``kind`` record of a ``.jsonl`` text."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("record") == kind:
            mutate(record)
            lines[i] = json.dumps(record)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"fixture trace has no {kind} record")


#: Malformed definition/manifest records: (file name, mutation of the
#: figure-3 trace's bytes, key the one-line diagnostic must name).
_MALFORMED = {
    "rpt-location-without-n": ("c.rpt", lambda b, t: _rewrite_rpt_header(
        b, lambda h: h["locations"][0].pop("n")), "'n'"),
    "rpt-column-without-offset": ("c.rpt", lambda b, t: _rewrite_rpt_header(
        b, lambda h: h["locations"][1]["columns"]["ref"].pop("offset")), "'offset'"),
    "rpt-locations-not-objects": ("c.rpt", lambda b, t: _rewrite_rpt_header(
        b, lambda h: h.update(locations=[1, 2])), "'locations'"),
    "rpt-attributes-not-object": ("c.rpt", lambda b, t: _rewrite_rpt_header(
        b, lambda h: h.update(attributes=[1])), "'attributes'"),
    "jsonl-region-without-name": ("c.jsonl", lambda b, t: _rewrite_jsonl_record(
        t, "region", lambda r: r.pop("name")).encode(), "'name'"),
    "jsonl-location-without-id": ("c.jsonl", lambda b, t: _rewrite_jsonl_record(
        t, "location", lambda r: r.pop("id")).encode(), "'id'"),
}


class TestMalformedRecords:
    """A malformed definition or manifest record is bad input for every
    command that reads a trace: exit 2 with one ``error:`` line naming
    the record and key.  Driven in-process to keep the matrix cheap."""

    COMMANDS = (
        ["info"],
        ["analyze"],
        ["lint"],
        ["monitor"],
        ["analyze", "--shards", "2"],
    )

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_every_command_exits_2(self, case, binary_bytes, jsonl_text,
                                   tmp_path, capsys):
        from repro.cli import main

        name, build, key = _MALFORMED[case]
        path = tmp_path / name
        path.write_bytes(build(binary_bytes, jsonl_text))
        for command, *flags in self.COMMANDS:
            argv = [command, str(path), *flags]
            assert main(argv) == 2, argv
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
            assert key in lines[0], (argv, lines)

    def test_follow_exits_2(self, jsonl_text, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "c.jsonl"
        path.write_bytes(_MALFORMED["jsonl-location-without-id"][1](b"", jsonl_text))
        assert main(["monitor", str(path), "--follow", "--idle-timeout", "0.2"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "missing key 'id'" in lines[0], lines

    def test_subprocess_exits_2_without_traceback(self, binary_bytes, tmp_path):
        path = tmp_path / "c.rpt"
        path.write_bytes(_MALFORMED["rpt-location-without-n"][1](binary_bytes, ""))
        _assert_bad_input(["analyze", str(path)], "analyze on a location without n")


def test_follow_rejects_event_count_mismatch(jsonl_text, tmp_path, capsys):
    """``monitor`` and ``monitor --follow`` decode events records with
    the same code, so both reject a record whose ``n`` is wrong."""
    from repro.cli import main

    path = tmp_path / "c.jsonl"
    path.write_text(
        _rewrite_jsonl_record(jsonl_text, "events", lambda r: r.update(n=r["n"] + 1))
    )
    for flags in ([], ["--follow", "--idle-timeout", "0.5"]):
        assert main(["monitor", str(path), *flags]) == 2, flags
        err = capsys.readouterr().err
        assert "event count mismatch" in err, (flags, err)
