"""Differential tests: columnar sink vs legacy object sink vs fast path.

The vectorized emission pipeline is only allowed to exist because it is
bitwise-indistinguishable from the original per-event builder.  These
tests pin that equivalence three ways — trace fingerprints across
engines and sinks, file bytes across ``.rpt`` versions and codecs, and
error messages of the recorder protocol — plus the topology network
models feeding the congestion workload.
"""

import pytest

from repro.sim.engine import simulate, use_sink
from repro.sim.fuzz import build_trace, generate_spec
from repro.sim.network import (
    DragonflyTopology,
    FatTreeTopology,
    NetworkModel,
    TopologyNetworkModel,
    TorusTopology,
)
from repro.sim.sink import ColumnarTraceSink
from repro.sim.workloads import congestion, idle_wave, late_sender, serialization
from repro.sim.workloads.synthetic import SyntheticConfig, generate_result
from repro.trace import read_trace, write_binary
from repro.trace.builder import TraceBuilder
from repro.trace.fingerprint import fingerprint_trace


SYNTHETIC_VARIANTS = {
    "w1": SyntheticConfig(ranks=8, iterations=12),
    "outliers": SyntheticConfig(
        ranks=6, iterations=10, outliers={(2, 3): 0.05, (5, 7): 0.02}
    ),
    "slow-trend": SyntheticConfig(
        ranks=6, iterations=10, slow_ranks={1: 1.5}, trend_per_step=0.01
    ),
    "subiters": SyntheticConfig(ranks=5, iterations=8, subiters=3),
    "barrier": SyntheticConfig(ranks=6, iterations=8, collective="barrier"),
    "no-collective": SyntheticConfig(ranks=6, iterations=8, collective="none"),
    "no-halo": SyntheticConfig(ranks=6, iterations=8, use_halo=False),
    "two-ranks": SyntheticConfig(ranks=2, iterations=6),
    "one-rank": SyntheticConfig(ranks=1, iterations=6),
    "jitter": SyntheticConfig(ranks=6, iterations=10, jitter_sigma=0.001),
}


def _fingerprints(trace):
    fp = fingerprint_trace(trace)
    return fp.hexdigest, tuple(fp.rank_digest(r) for r in trace.ranks)


def _general(fn, monkeypatch):
    """Run ``fn`` with the vectorized fast path disabled."""
    monkeypatch.setenv("REPRO_SIM_NO_FASTPATH", "1")
    try:
        return fn()
    finally:
        monkeypatch.delenv("REPRO_SIM_NO_FASTPATH")


class TestSinkParity:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_VARIANTS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synthetic_three_way(self, name, seed, monkeypatch):
        """fast+columnar == general+columnar == general+objects."""
        from dataclasses import replace

        config = replace(SYNTHETIC_VARIANTS[name], seed=seed)
        fast = generate_result(config)
        fast_fp = _fingerprints(fast.trace)

        general = _general(lambda: generate_result(config), monkeypatch)
        assert _fingerprints(general.trace) == fast_fp
        assert general.events == fast.events
        assert general.makespan == fast.makespan
        assert general.messages == fast.messages
        assert general.collectives == fast.collectives

        def objects():
            with use_sink("objects"):
                return generate_result(config)

        legacy = _general(objects, monkeypatch)
        assert _fingerprints(legacy.trace) == fast_fp
        assert legacy.events == fast.events

    @pytest.mark.parametrize(
        "module,kwargs",
        [
            (idle_wave, {"ranks": 12, "iterations": 10}),
            (late_sender, {"ranks": 8, "iterations": 10}),
            (serialization, {}),
            (congestion, {"ranks": 24, "iterations": 6}),
        ],
    )
    def test_phenomenon_workloads(self, module, kwargs, monkeypatch):
        fast_fp = _fingerprints(module.generate(**kwargs))
        general_fp = _fingerprints(
            _general(lambda: module.generate(**kwargs), monkeypatch)
        )
        assert general_fp == fast_fp

        def objects():
            with use_sink("objects"):
                return module.generate(**kwargs)

        assert _fingerprints(_general(objects, monkeypatch)) == fast_fp

    @pytest.mark.parametrize("seed", [0, 11, 29])
    def test_fuzz_scenarios(self, seed):
        spec = generate_spec(seed)
        columnar = build_trace(spec)
        with use_sink("objects"):
            legacy = build_trace(spec)
        assert _fingerprints(columnar) == _fingerprints(legacy)

    def test_use_sink_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            with use_sink("parquet"):
                pass


class TestDirectWrite:
    """SimResult.write streams buffers to .rpt without Trace objects."""

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("codec", [None, "raw", "zlib"])
    def test_bytes_identical_to_legacy_writer(self, tmp_path, version, codec):
        if version == 1 and codec is not None:
            pytest.skip("v1 has no codecs")
        config = SyntheticConfig(ranks=6, iterations=10)
        result = generate_result(config)
        assert isinstance(result.sink, ColumnarTraceSink)

        direct = tmp_path / "direct.rpt"
        kwargs = {"version": version}
        if codec is not None:
            kwargs["codec"] = codec
        total = result.write(direct, **kwargs)
        assert total == direct.stat().st_size

        staged = tmp_path / "staged.rpt"
        write_binary(result.trace, staged, **kwargs)
        assert direct.read_bytes() == staged.read_bytes()

    def test_written_trace_round_trips(self, tmp_path):
        result = idle_wave.generate_result()
        path = tmp_path / "iw.rpt"
        result.write(path)
        loaded = read_trace(path)
        assert _fingerprints(loaded) == _fingerprints(result.trace)


class TestRecorderErrorParity:
    """ColumnarRecorder raises the exact ProcessBuilder messages."""

    def _pair(self):
        tb_obj, tb_col = TraceBuilder(), TraceBuilder()
        for tb in (tb_obj, tb_col):
            tb.region("main")
            tb.region("work")
        return tb_obj.process(0), ColumnarTraceSink(tb_col).recorder(0)

    def _messages(self, drive):
        out = []
        for rec in self._pair():
            with pytest.raises(ValueError) as err:
                drive(rec)
            out.append(str(err.value))
        assert out[0] == out[1]
        return out[0]

    def test_leave_on_empty_stack(self):
        msg = self._messages(lambda rec: rec.leave(1.0))
        assert "stack is empty" in msg

    def test_leave_mismatch(self):
        def drive(rec):
            rec.enter(0.0, "main")
            rec.leave(1.0, "work")

        msg = self._messages(drive)
        assert "does not match open region" in msg

    def test_non_monotonic_time(self):
        def drive(rec):
            rec.enter(1.0, "main")
            rec.enter(0.5, "work")

        msg = self._messages(drive)
        assert "non-monotonic" in msg

    def test_negative_call_duration(self):
        msg = self._messages(lambda rec: rec.call(2.0, 1.0, "main"))
        assert "negative duration" in msg

    def test_unclosed_regions_at_freeze(self):
        def run():
            def program(rank, size):
                from repro.sim import ops

                yield ops.Enter("main")

            return simulate(1, program).trace

        with pytest.raises(ValueError, match="unclosed regions"):
            run()
        with use_sink("objects"):
            with pytest.raises(ValueError, match="unclosed regions"):
                run()


class TestTopologies:
    def test_fat_tree_hop_counts(self):
        topo = FatTreeTopology(leaf_arity=4, spines=2)
        assert topo.route(3, 3) == ()
        assert topo.hops(0, 1) == 2  # same leaf
        assert topo.hops(0, 5) == 4  # via spine
        assert len(topo.route(0, 5)) == topo.hops(0, 5)

    def test_torus_shortest_wrap(self):
        topo = TorusTopology(dims=(4, 4))
        assert topo.hops(0, 0) == 0
        assert topo.hops(0, 3) == 1  # wrap is shorter than 3 steps
        assert topo.hops(0, 5) == 2  # one step per axis
        assert topo.diameter == 4
        assert len(topo.route(0, 5)) == 2

    def test_dragonfly_max_hops(self):
        topo = DragonflyTopology(groups=3, routers=3, hosts_per_router=2)
        ranks = 3 * 3 * 2
        for src in range(ranks):
            for dst in range(ranks):
                assert len(topo.route(src, dst)) <= topo.diameter

    def test_routes_are_deterministic(self):
        for topo in (
            FatTreeTopology(leaf_arity=4, spines=2),
            TorusTopology(dims=(3, 3)),
            DragonflyTopology(groups=2, routers=2, hosts_per_router=2),
        ):
            assert topo.route(1, 6) == topo.route(1, 6)

    def test_congestion_queues_on_shared_link(self):
        net = TopologyNetworkModel(
            topology=FatTreeTopology(leaf_arity=8, spines=2),
            link_bandwidth=1e9,
        )
        net.reset()
        first = net.eager_completion(1, 0, 64 * 1024, 0.0)
        second = net.eager_completion(2, 0, 64 * 1024, 0.0)
        # Both payloads share the root's down-link: the second queues.
        assert second > first
        # Without congestion both finish together.
        free = TopologyNetworkModel(
            topology=FatTreeTopology(leaf_arity=8, spines=2),
            link_bandwidth=1e9,
            congestion=False,
        )
        assert free.eager_completion(1, 0, 64 * 1024, 0.0) == pytest.approx(
            free.eager_completion(2, 0, 64 * 1024, 0.0)
        )

    def test_reset_restores_determinism(self):
        net = TopologyNetworkModel(
            topology=TorusTopology(dims=(4, 4)), link_bandwidth=1e9
        )
        net.reset()
        a = net.transfer_completion(0, 5, 1 << 20, 0.0)
        net.reset()
        b = net.transfer_completion(0, 5, 1 << 20, 0.0)
        assert a == b

    def test_flat_model_hooks_match_classic_formulas(self):
        net = NetworkModel()
        assert net.path_latency(0, 1) == net.latency
        assert net.eager_completion(0, 1, 4096, 2.5) == 2.5 + net.transfer_time(4096)
        assert net.transfer_completion(0, 1, 4096, 2.5) == 2.5 + 4096 / net.bandwidth

    def test_congestion_workload_deterministic(self):
        cfg = congestion.CongestionConfig(ranks=16, iterations=4)
        a = congestion.generate_result(cfg).trace
        b = congestion.generate_result(cfg).trace
        assert _fingerprints(a) == _fingerprints(b)

    def test_congestion_collapse_slower_than_flat(self):
        cfg = congestion.CongestionConfig(ranks=32, iterations=6)
        topo = congestion.generate_result(cfg).trace
        flat = congestion.generate_result(cfg, network=NetworkModel()).trace
        assert topo.duration > flat.duration


class TestObsCounters:
    @pytest.fixture
    def obs_collector(self):
        from repro import obs

        col = obs.enable()
        yield col
        obs.disable()

    def test_simulation_emits_counters(self, obs_collector):
        result = generate_result(SyntheticConfig(ranks=4, iterations=6))
        counters = obs_collector.counters()
        assert counters.get("sim.events_emitted") == result.events
        assert counters.get("sim.heap_ops") == result.sched_ops

    def test_direct_write_counts_bytes(self, tmp_path, obs_collector):
        result = generate_result(SyntheticConfig(ranks=4, iterations=6))
        total = result.write(tmp_path / "t.rpt")
        assert obs_collector.counters().get("sim.bytes_written") == total
