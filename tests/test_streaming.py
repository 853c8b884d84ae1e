"""Tests for the streaming (in-situ) analyzer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import analyze_trace
from repro.core.streaming import StreamingAnalyzer, StreamStructureError
from repro.sim.workloads.synthetic import SyntheticConfig, generate
from repro.trace.builder import TraceBuilder
from repro.trace.definitions import Paradigm, RegionRegistry
from repro.trace.events import EventKind, EventList


@pytest.fixture(scope="module")
def stream_trace():
    config = SyntheticConfig(
        ranks=6,
        iterations=20,
        slow_ranks={4: 1.5},
        outliers={(2, 14): 0.08},
        seed=11,
    )
    return generate(config)


def feed_all(analyzer, trace, chunk=64):
    for rank in trace.ranks:
        events = trace.events_of(rank)
        for i in range(0, len(events), chunk):
            analyzer.feed(rank, events[i : i + chunk])


class TestBatchEquivalence:
    def test_sos_values_match_batch(self, stream_trace):
        batch = analyze_trace(stream_trace)
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant=batch.dominant_name,
        )
        feed_all(analyzer, stream_trace)
        for rank in stream_trace.ranks:
            np.testing.assert_allclose(
                analyzer.sos_series(rank), batch.sos[rank].sos
            )

    def test_chunk_size_does_not_matter(self, stream_trace):
        results = []
        for chunk in (1, 7, 1000):
            analyzer = StreamingAnalyzer(
                stream_trace.regions, stream_trace.num_processes,
                dominant="iteration",
            )
            feed_all(analyzer, stream_trace, chunk=chunk)
            results.append(analyzer.sos_series(0))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_segment_metadata(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        segments = analyzer.segments(3)
        assert len(segments) == 20
        assert all(s.rank == 3 for s in segments)
        assert [s.index for s in segments] == list(range(20))
        assert all(s.duration >= s.sos >= 0 for s in segments)


class TestOnlineAlerts:
    def test_outlier_alerts_immediately(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        assert len(analyzer.alerts) >= 1
        alert = analyzer.alerts[0]
        assert alert.segment.rank == 2
        assert alert.segment.index == 14
        assert alert.zscore > analyzer.alert_threshold

    def test_clean_run_produces_no_alerts(self):
        trace = generate(SyntheticConfig(ranks=4, iterations=15, seed=1))
        analyzer = StreamingAnalyzer(
            trace.regions, trace.num_processes, dominant="iteration"
        )
        feed_all(analyzer, trace)
        assert analyzer.alerts == []

    def test_alert_str(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        assert "rank 2" in str(analyzer.alerts[0])

    def test_snapshot_hot_ranks(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(analyzer, stream_trace)
        assert 4 in analyzer.snapshot_hot_ranks()


class TestWarmupSelection:
    def test_auto_selects_dominant(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            warmup_invocations=60,
        )
        feed_all(analyzer, stream_trace)
        assert analyzer.dominant_name == "iteration"
        # Segments only from the selection point onward.
        total = sum(len(analyzer.segments(r)) for r in stream_trace.ranks)
        assert 0 < total <= 6 * 20

    def test_select_now_without_data(self):
        from repro.trace.definitions import RegionRegistry

        regions = RegionRegistry()
        regions.register("f")
        analyzer = StreamingAnalyzer(regions, 4)
        with pytest.raises(ValueError, match="no dominant-function candidate"):
            analyzer.select_now()

    def test_select_now_idempotent(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        assert analyzer.select_now() == stream_trace.regions.id_of("iteration")

    def test_sync_regions_never_selected(self):
        tb = TraceBuilder()
        tb.region("MPI_Allreduce", paradigm=Paradigm.MPI)
        tb.region("step")
        p = tb.process(0)
        for i in range(30):
            p.call(2.0 * i, 2.0 * i + 1.6, "MPI_Allreduce")
            p.call(2.0 * i + 1.6, 2.0 * i + 2.0, "step")
        trace = tb.freeze()
        analyzer = StreamingAnalyzer(trace.regions, 1, warmup_invocations=40)
        analyzer.feed(0, trace.events_of(0))
        analyzer.select_now()
        assert analyzer.dominant_name == "step"


class TestStreamValidation:
    def test_out_of_order_chunk_rejected(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        events = stream_trace.events_of(0)
        analyzer.feed(0, events[10:20])
        with pytest.raises(ValueError, match="not time-ordered"):
            analyzer.feed(0, events[0:5])

    def test_mismatched_leave_rejected(self):
        tb = TraceBuilder()
        tb.region("a")
        tb.region("b")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.enter(1.0, "b")
        p.leave(2.0)
        p.leave(3.0)
        trace = tb.freeze()
        analyzer = StreamingAnalyzer(trace.regions, 1, dominant="a")
        events = trace.events_of(0)
        # Corrupt: drop the inner leave so the outer one mismatches.
        import numpy as np

        keep = np.asarray([True, True, False, True])
        with pytest.raises(ValueError, match="does not match"):
            analyzer.feed(0, events.select(keep))

    def test_bad_process_count(self, stream_trace):
        with pytest.raises(ValueError):
            StreamingAnalyzer(stream_trace.regions, 0)


class TestStreamDiagnostics:
    """Malformed streams raise the offline validator's diagnostics."""

    def test_out_of_order_after_empty_chunk(self, stream_trace):
        """Regression: an empty ``feed()`` must not reset the rank's
        time horizon — a later out-of-order chunk still fails."""
        from repro.core.streaming import StreamOrderError

        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        events = stream_trace.events_of(0)
        analyzer.feed(0, events[10:20])
        analyzer.feed(0, events[0:0])  # empty chunk: a no-op
        with pytest.raises(StreamOrderError, match="not time-ordered") as err:
            analyzer.feed(0, events[0:5])
        assert err.value.code == "TL004"
        assert err.value.legacy_code == "time-order"

    def test_mismatched_leave_code(self):
        from repro.core.streaming import StreamStructureError

        tb = TraceBuilder()
        tb.region("a")
        tb.region("b")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.enter(1.0, "b")
        p.leave(2.0)
        p.leave(3.0)
        events = tb.freeze().events_of(0)
        keep = np.asarray([True, True, False, True])
        for dominant in ("a", None):  # vectorised and warm-up paths
            analyzer = StreamingAnalyzer(tb.freeze().regions, 1,
                                         dominant=dominant)
            with pytest.raises(StreamStructureError, match="does not match") as err:
                analyzer.feed(0, events.select(keep))
            assert err.value.code == "TL003"
            assert err.value.legacy_code == "mismatched-leave"

    def test_unmatched_leave_code(self):
        from repro.core.streaming import StreamStructureError

        tb = TraceBuilder()
        tb.region("a")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.leave(1.0)
        events = tb.freeze().events_of(0)
        for dominant in ("a", None):
            analyzer = StreamingAnalyzer(tb.freeze().regions, 1,
                                         dominant=dominant)
            with pytest.raises(StreamStructureError) as err:
                analyzer.feed(0, events[1:])  # bare leave, empty stack
            assert err.value.code == "TL001"
            assert err.value.legacy_code == "unmatched-leave"

    def test_mismatch_across_chunk_boundary(self):
        """A leave closing a frame carried over from an earlier chunk
        is checked against that carried frame."""
        from repro.core.streaming import StreamStructureError

        tb = TraceBuilder()
        tb.region("a")
        tb.region("b")
        p = tb.process(0)
        p.enter(0.0, "a")
        p.enter(1.0, "b")
        p.leave(2.0)
        p.leave(3.0)
        events = tb.freeze().events_of(0)
        keep = np.asarray([True, True, False, True])
        bad = events.select(keep)
        analyzer = StreamingAnalyzer(tb.freeze().regions, 1, dominant="a")
        analyzer.feed(0, bad[:2])  # open a, b in one chunk
        with pytest.raises(StreamStructureError) as err:
            analyzer.feed(0, bad[2:])  # leave of a against open b
        assert err.value.code == "TL003"


class TestBoundedHistory:
    def test_eviction_keeps_totals_and_indices(self, stream_trace):
        bounded = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration", history_limit=5,
        )
        unbounded = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(bounded, stream_trace)
        feed_all(unbounded, stream_trace)
        for rank in stream_trace.ranks:
            segments = bounded.segments(rank)
            assert len(segments) == 5
            # Indices keep counting globally across evictions.
            assert [s.index for s in segments] == list(range(15, 20))
        # 20 segments per rank, 5 retained -> 15 evictions per rank.
        assert bounded.window_evictions == 15 * len(stream_trace.ranks)
        # Running totals (and hence hot-rank snapshots) are unaffected.
        assert bounded.per_rank_total() == unbounded.per_rank_total()
        assert bounded.snapshot_hot_ranks() == unbounded.snapshot_hot_ranks()

    def test_alerts_survive_eviction(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration", history_limit=2,
        )
        feed_all(analyzer, stream_trace)
        assert analyzer.alerts
        assert analyzer.alerts[0].segment.rank == 2
        assert analyzer.alerts[0].segment.index == 14

    def test_invalid_limit(self, stream_trace):
        with pytest.raises(ValueError, match="history_limit"):
            StreamingAnalyzer(
                stream_trace.regions, stream_trace.num_processes,
                history_limit=0,
            )


class TestCandidates:
    def test_rolling_candidates_from_warmup(self, stream_trace):
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            warmup_invocations=10**9,  # never auto-select
        )
        feed_all(analyzer, stream_trace)
        ranked = analyzer.candidates(3)
        assert ranked
        names = [stream_trace.regions[r].name for r, _, _ in ranked]
        assert names[0] == "iteration"
        # Inclusive-descending, non-sync only, counts positive.
        inclusive = [t for _, _, t in ranked]
        assert inclusive == sorted(inclusive, reverse=True)
        assert all(count > 0 for _, count, _ in ranked)
        mask = analyzer._sync_mask
        assert not any(mask[r] for r, _, _ in ranked)


class TestConsumeCursor:
    def test_feed_cursor_equivalent(self, stream_trace):
        from repro.trace.cursor import FeedCursor

        reference = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(reference, stream_trace)

        from repro.trace import Trace
        from repro.trace.events import EventList

        skeleton = Trace(regions=stream_trace.regions,
                         metrics=stream_trace.metrics)
        for rank in stream_trace.ranks:
            skeleton.add_process(
                stream_trace.process(rank).location, EventList.empty()
            )
        cursor = FeedCursor(skeleton)
        for rank in stream_trace.ranks:
            events = stream_trace.events_of(rank)
            for i in range(0, len(events), 64):
                cursor.push(rank, events[i : i + 64])
        cursor.close()
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        fed = analyzer.consume(cursor)
        assert fed == stream_trace.num_events
        for rank in stream_trace.ranks:
            np.testing.assert_array_equal(
                analyzer.sos_series(rank), reference.sos_series(rank)
            )

    def test_index_cursor_equivalent(self, stream_trace, tmp_path):
        from repro.core.streaming import STREAM_COLUMNS
        from repro.trace import write_binary
        from repro.trace.reader import TraceIndex

        reference = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        feed_all(reference, stream_trace)

        path = tmp_path / "run.rpt"
        write_binary(stream_trace, path, version=2, codec="raw")
        cursor = TraceIndex(path).cursor(
            columns=STREAM_COLUMNS, chunk_events=128
        )
        analyzer = StreamingAnalyzer(
            stream_trace.regions, stream_trace.num_processes,
            dominant="iteration",
        )
        analyzer.consume(cursor)
        for rank in stream_trace.ranks:
            np.testing.assert_array_equal(
                analyzer.sos_series(rank), reference.sos_series(rank)
            )


class TestMetricWindow:
    def _metric_trace(self):
        from repro.trace import Location, Trace
        from repro.trace.events import EventKind, EventListBuilder

        trace = Trace(name="metrics")
        trace.regions.register("step")
        trace.metrics.register("flops")
        b = EventListBuilder()
        for i in range(8):
            b.append(float(i), EventKind.ENTER, ref=0)
            b.metric(i + 0.25, metric=0, value=float(10 * i))
            b.metric(i + 0.75, metric=0, value=float(10 * i + 2))
            b.append(i + 0.9, EventKind.LEAVE, ref=0)
        trace.add_process(Location(0, "P0"), b.freeze())
        return trace

    def test_binned_means(self):
        trace = self._metric_trace()
        analyzer = StreamingAnalyzer(
            trace.regions, 1, dominant="step", metric_window=2.0
        )
        analyzer.feed(0, trace.events_of(0))
        starts, means = analyzer.metric_series(0, 0)
        np.testing.assert_array_equal(starts, [0.0, 2.0, 4.0, 6.0])
        # Bin [0, 2): samples 0, 2, 10, 12 -> mean 6.
        np.testing.assert_allclose(means[0], 6.0)

    def test_chunking_invariant(self):
        trace = self._metric_trace()
        whole = StreamingAnalyzer(
            trace.regions, 1, dominant="step", metric_window=2.0
        )
        whole.feed(0, trace.events_of(0))
        chunked = StreamingAnalyzer(
            trace.regions, 1, dominant="step", metric_window=2.0
        )
        events = trace.events_of(0)
        for i in range(0, len(events), 3):
            chunked.feed(0, events[i : i + 3])
        for got, want in zip(
            chunked.metric_series(0, 0), whole.metric_series(0, 0)
        ):
            np.testing.assert_array_equal(got, want)

    def test_disabled_by_default(self):
        trace = self._metric_trace()
        analyzer = StreamingAnalyzer(trace.regions, 1, dominant="step")
        analyzer.feed(0, trace.events_of(0))
        starts, means = analyzer.metric_series(0, 0)
        assert starts.size == 0 and means.size == 0

    def test_invalid_window(self):
        trace = self._metric_trace()
        with pytest.raises(ValueError, match="metric_window"):
            StreamingAnalyzer(trace.regions, 1, metric_window=0.0)


# -- chunk processor against the per-event machine ---------------------------

_REGIONS = RegionRegistry()
_MAIN = _REGIONS.register("main")
_ITER = _REGIONS.register("iter")
_WORK = _REGIONS.register("work")
_ALLREDUCE = _REGIONS.register("MPI_Allreduce", paradigm=Paradigm.MPI)
_WAIT = _REGIONS.register("MPI_Wait", paradigm=Paradigm.MPI)
_E, _L, _M = int(EventKind.ENTER), int(EventKind.LEAVE), int(EventKind.METRIC)


def _program(rng, n_iter):
    """``main { iter { work | sync { sync } | iter { sync } }* }*`` with
    integer durations from a few values, so SOS values tie often, and
    a few large outliers, so windows alert."""
    events, t = [], 0
    def call(region, body=()):
        nonlocal t
        events.append((t, _E, region))
        for inner in body:
            inner()
        t += int(rng.choice([0, 1, 1, 2]))
        events.append((t, _L, region))
    def child():
        nonlocal t
        pick = rng.integers(4)
        if pick == 0:
            call(_WORK)
            if rng.random() < 0.05:
                t += int(rng.integers(20, 60))
                events[-1] = (t, _L, _WORK)
        elif pick == 1:
            call(_ALLREDUCE, [lambda: call(_WAIT)] * int(rng.integers(2)))
        elif pick == 2:
            call(_ITER, [lambda: call(_ALLREDUCE)])
        else:
            events.append((t, _M, 0))  # skipped by the segment machine
    call(_MAIN, [lambda: call(_ITER, [child] * int(rng.integers(1, 5)))] * n_iter)
    return events


def _mutate(events, rng, how):
    events = list(events)
    leaves = [i for i, e in enumerate(events) if e[1] == _L]
    if how == "drop-enter":  # TL001 once main unwinds past empty
        del events[0]
    elif how == "stray-leave":  # TL001 or TL003, wherever it lands
        i = int(rng.integers(len(events)))
        events.insert(i, (events[i][0], _L, int(rng.integers(5))))
    elif how == "retarget-leave":  # TL003
        i = leaves[int(rng.integers(len(leaves)))]
        region = events[i][2]
        events[i] = (events[i][0], _L, (region + 1 + int(rng.integers(4))) % 5)
    return events


def _event_list(events):
    arr = np.asarray(events, dtype=np.float64).reshape(-1, 3)
    return EventList.projected({
        "time": arr[:, 0], "kind": arr[:, 1].astype(np.uint8),
        "ref": arr[:, 2].astype(np.int32),
    })


def _observe(streams, dominant, window, history_limit, cuts_of):
    """Feed every rank's stream in the pieces ``cuts_of(n)`` delimits;
    ``cuts_of=None`` drives the per-event machine instead."""
    analyzer = StreamingAnalyzer(
        _REGIONS, len(streams), dominant=dominant, window=window,
        history_limit=history_limit,
    )
    try:
        for rank, events in enumerate(streams):
            if cuts_of is None:
                stream = analyzer._stream(rank)
                analyzer.alerts.extend(analyzer._feed_warmup(
                    stream, events.time, events.kind, events.ref))
                continue
            bounds = [0, *cuts_of(len(events)), len(events)]
            for lo, hi in zip(bounds, bounds[1:]):
                analyzer.feed(rank, events[lo:hi])
    except StreamStructureError as err:
        return ("error", type(err), str(err), err.code, err.rank)
    segments = {
        rank: [(s.index, s.t_start, s.t_stop, s.sync_time)
               for s in analyzer.segments(rank)]
        for rank in range(len(streams))
    }
    alerts = [
        (a.segment.rank, a.segment.index, a.segment.t_start,
         a.segment.t_stop, a.segment.sync_time, a.zscore, a.window)
        for a in analyzer.alerts
    ]
    return (segments, alerts, analyzer.per_rank_total(),
            analyzer.window_evictions)


@st.composite
def _stream_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    how = draw(st.sampled_from(
        ["clean", "clean", "drop-enter", "stray-leave", "retarget-leave"]))
    streams = []
    for rank in range(2):
        events = _program(rng, draw(st.integers(5, 60)))
        if rank == 1 and how != "clean":
            events = _mutate(events, rng, how)
        streams.append(_event_list(events))
    cuts = draw(st.lists(st.integers(0, 10**6), max_size=12))
    return streams, how, cuts


class TestChunkProcessorMatchesPerEventMachine:
    """``feed`` at any chunking equals the scalar ``_enter``/``_leave``
    machine bitwise: segments, alerts, totals, evictions and errors."""

    @settings(max_examples=60, deadline=None)
    @given(
        case=_stream_cases(),
        dominant=st.sampled_from(["iter", "MPI_Allreduce"]),
        window=st.sampled_from([9, 32, 33]),
        history_limit=st.sampled_from([None, 4, 40]),
    )
    def test_bitwise_equal_at_any_chunking(
        self, case, dominant, window, history_limit
    ):
        streams, how, cuts = case
        reference = _observe(streams, dominant, window, history_limit, None)
        if how == "clean":
            assert reference[0] and any(reference[0].values())
        else:
            assert reference[0] == "error"
        chunkings = [
            lambda n, k=k: range(k, n, k) for k in (1, 3, 64, 256)
        ] + [lambda n: [], lambda n: sorted({c % (n + 1) for c in cuts})]
        for cuts_of in chunkings:
            got = _observe(streams, dominant, window, history_limit, cuts_of)
            assert got == reference

    def test_error_codes_reached(self):
        """The mutations above reach both structure diagnostics, and a
        mismatch whose enter sits in an earlier chunk."""
        rng = np.random.default_rng(5)
        clean = _program(rng, 20)
        codes = set()
        for how in ("drop-enter", "retarget-leave"):
            streams = [_event_list(_mutate(clean, rng, how))]
            ref = _observe(streams, "iter", 32, None, None)
            assert ref == _observe(
                streams, "iter", 32, None, lambda n: range(1, n))
            codes.add(ref[3])
        assert codes == {"TL001", "TL003"}

    @pytest.mark.parametrize("cycle", [(2,), (2, 3)])
    def test_tied_values_alert_identically(self, cycle):
        """Windows of one repeated SOS value (MAD 0), and of two values
        whose even-window median falls between them."""
        events, t = [], 0
        for i in range(80):
            d = 30 if i in (40, 70) else cycle[i % len(cycle)]
            events += [(t, _E, _ITER), (t + d, _L, _ITER)]
            t += d
        streams = [_event_list(events)]
        for window in (9, 32, 33):
            ref = _observe(streams, "iter", window, 10, None)
            assert len(ref[1]) >= 2  # the two outliers at least
            for k in (1, 3, 64):
                assert _observe(streams, "iter", window, 10,
                                lambda n, k=k: range(k, n, k)) == ref

    @pytest.mark.parametrize("width", [9, 32, 33])
    def test_row_median_matches_numpy(self, width):
        from repro.core.streaming import _row_median

        rng = np.random.default_rng(width)
        rows = rng.integers(0, 4, size=(40, width)).astype(np.float64)
        rows[1:, :3] = rng.normal(size=(39, 3))
        rows[5, 7] = np.nan
        rows[6, :] = np.nan
        rows[7, 2] = np.inf
        rows[8, 1:3] = (-np.inf, np.inf)
        got = _row_median(rows)
        want = np.median(rows, axis=1)
        assert np.isnan(got[[5, 6]]).all()
        assert got.tobytes() == want.tobytes()
