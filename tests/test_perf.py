"""Tests for repro.perf: benchmark history, variation detection, CLI.

The regression fixtures under ``tests/perf_history/`` are also the CI
gate's self-test: ``regression.jsonl`` carries an injected 2x slowdown
the checker must flag by name, ``steady.jsonl`` the same series without
it — the checker must stay quiet.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.perf import (
    Finding,
    PerfHistory,
    check_history,
    format_findings,
    format_report,
    machine_fingerprint,
    record_bench_files,
)

FIXTURES = Path(__file__).parent / "perf_history"


def _row(
    bench="fastpath",
    test="t",
    wall_s=0.1,
    sha="abc1234",
    machine="m1",
    recorded_at=0.0,
):
    return {
        "bench": bench,
        "test": test,
        "wall_s": wall_s,
        "git_sha": sha,
        "machine": machine,
        "recorded_at": recorded_at,
    }


class TestHistory:
    def test_load_save_round_trip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        history = PerfHistory()
        history.add(_row())
        history.add(_row(test="u", wall_s=0.2))
        history.save(path)
        again = PerfHistory.load(path)
        assert again.rows == history.rows
        # Atomic write: no .tmp left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.jsonl"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert PerfHistory.load(tmp_path / "nope.jsonl").rows == []

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            PerfHistory.load(path)

    def test_add_replaces_same_key(self):
        history = PerfHistory()
        history.add(_row(wall_s=0.1))
        history.add(_row(wall_s=0.3))  # same (bench, test, sha, machine)
        assert len(history.rows) == 1
        assert history.rows[0]["wall_s"] == 0.3
        history.add(_row(sha="def5678", wall_s=0.2))
        assert len(history.rows) == 2

    def test_series_groups_and_sorts_by_time(self):
        history = PerfHistory()
        history.add(_row(sha="b", wall_s=0.2, recorded_at=2.0))
        history.add(_row(sha="a", wall_s=0.1, recorded_at=1.0))
        history.add(_row(test="u", sha="a", wall_s=0.5, recorded_at=1.0))
        series = history.series()
        assert set(series) == {
            ("fastpath", "t", "m1"), ("fastpath", "u", "m1"),
        }
        assert [r["wall_s"] for r in series[("fastpath", "t", "m1")]] == [
            0.1, 0.2,
        ]

    def test_record_bench_files(self, tmp_path):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({
            "bench": "demo",
            "git_sha": "cafe123",
            "results": {
                "test_a": {"wall_s": 0.5, "timer": "benchmark"},
                "test_b": {"wall_s": 1.5},
                "not_a_result": "skipped",
            },
        }))
        history = PerfHistory()
        n = record_bench_files(
            history, [bench], machine="m1", timestamp=42.0
        )
        assert n == 2
        by_test = {r["test"]: r for r in history.rows}
        assert by_test["test_a"]["wall_s"] == 0.5
        assert by_test["test_a"]["git_sha"] == "cafe123"
        assert by_test["test_a"]["recorded_at"] == 42.0
        # Re-record is idempotent (same key -> in-place replace).
        assert record_bench_files(
            history, [bench], machine="m1", timestamp=43.0
        ) == 2
        assert len(history.rows) == 2

    def test_record_files_rows_under_the_measuring_machine(self, tmp_path):
        """A BENCH file's own ``machine`` wins over the fingerprint of
        the machine ingesting it; an explicit ``machine`` wins over both."""
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({
            "bench": "demo", "git_sha": "cafe123", "machine": "measurer",
            "results": {"test_a": {"wall_s": 0.5}},
        }))
        history = PerfHistory()
        record_bench_files(history, [bench], timestamp=1.0)
        assert [r["machine"] for r in history.rows] == ["measurer"]
        record_bench_files(history, [bench], machine="ci", timestamp=1.0)
        assert [r["machine"] for r in history.rows] == ["measurer", "ci"]
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({
            "bench": "old", "git_sha": "cafe123",
            "results": {"test_a": {"wall_s": 0.5}},
        }))
        record_bench_files(history, [legacy], timestamp=1.0)
        assert history.rows[-1]["machine"] == machine_fingerprint()

    def test_machine_fingerprint_is_stable(self):
        fp = machine_fingerprint()
        assert fp == machine_fingerprint()
        assert len(fp) == 12


class TestDetection:
    def _history(self, walls, bench="b", test="t"):
        history = PerfHistory()
        for i, w in enumerate(walls):
            history.add(_row(
                bench=bench, test=test, wall_s=w,
                sha=f"{i:07x}", machine="m1", recorded_at=float(i),
            ))
        return history

    def test_quiet_on_stable_series(self):
        walls = [0.100, 0.102, 0.099, 0.101, 0.098, 0.100, 0.103]
        assert check_history(self._history(walls)) == []

    def test_outlier_flags_latest_doubling(self):
        walls = [0.100, 0.102, 0.099, 0.101, 0.098, 0.100, 0.205]
        findings = check_history(self._history(walls))
        assert len(findings) == 1
        f = findings[0]
        assert f.kind == "outlier"
        assert (f.bench, f.test) == ("b", "t")
        assert f.latest_s == pytest.approx(0.205)
        assert "b::t" in f.format()

    def test_outlier_needs_min_points(self):
        walls = [0.1, 0.1, 0.1, 0.2]  # only 4 points
        assert check_history(self._history(walls)) == []

    def test_small_blip_below_min_relative_ignored(self):
        # 5% above median: big z on a near-zero-MAD series, but below
        # the 10% relative floor.
        walls = [0.100] * 8 + [0.105]
        assert check_history(self._history(walls)) == []

    def test_drift_flags_steady_growth(self):
        walls = [0.100 * (1.02 ** i) for i in range(14)]  # +2% each run
        findings = check_history(self._history(walls))
        assert any(f.kind == "drift" for f in findings)

    def test_drift_ignores_improvement(self):
        walls = [0.100 * (0.98 ** i) for i in range(14)]
        assert not [
            f for f in check_history(self._history(walls))
            if f.kind == "drift"
        ]

    def test_series_are_checked_independently(self):
        history = self._history(
            [0.100, 0.102, 0.099, 0.101, 0.098, 0.100, 0.205],
            bench="fast", test="slowed",
        )
        for row in self._history(
            [0.050, 0.051, 0.049, 0.050, 0.052, 0.051, 0.050],
            bench="lint", test="healthy",
        ).rows:
            history.add(row)
        findings = check_history(history)
        assert [(f.bench, f.test) for f in findings] == [("fast", "slowed")]

    def test_format_helpers(self):
        f = Finding(
            bench="b", test="t", machine="m1", kind="outlier",
            message="latest 0.2s vs median 0.1s",
            latest_s=0.2, baseline_s=0.1,
        )
        assert "[outlier]" in format_findings([f])
        assert "no variations" in format_findings([])
        history = self._history([0.1, 0.11, 0.1])
        report = format_report(history)
        assert "b::t" in report


class TestPerfCLI:
    def test_check_regression_fixture_exits_1_and_names_bench(self, capsys):
        rc = main([
            "perf", "check", "--history", str(FIXTURES / "regression.jsonl"),
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "fastpath::test_fused_analyze_speedup" in out
        # The healthy series sharing the file is not blamed.
        assert "lint::test_lint_throughput" not in out

    def test_check_steady_fixture_green(self, capsys):
        assert main([
            "perf", "check", "--history", str(FIXTURES / "steady.jsonl"),
        ]) == 0
        assert "no variations detected" in capsys.readouterr().out

    def test_check_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "findings.json"
        rc = main([
            "perf", "check", "--history", str(FIXTURES / "regression.jsonl"),
            "--json", str(out_path),
        ])
        capsys.readouterr()
        assert rc == 1
        findings = json.loads(out_path.read_text())
        assert findings[0]["bench"] == "fastpath"
        assert findings[0]["kind"] == "outlier"

    def test_record_then_check_then_report(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({
            "bench": "demo", "git_sha": "cafe123",
            "results": {"test_a": {"wall_s": 0.5}},
        }))
        history = tmp_path / "history.jsonl"
        assert main([
            "perf", "record", str(bench), "--history", str(history),
            "--machine", "ci", "--timestamp", "1.0",
        ]) == 0
        assert main(["perf", "check", "--history", str(history)]) == 0
        assert main(["perf", "report", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "demo::test_a" in out

    def test_record_without_inputs_exit_2(self, tmp_path, capsys):
        assert main([
            "perf", "record", "--history", str(tmp_path / "h.jsonl"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_record_missing_bench_exit_2(self, tmp_path, capsys):
        assert main([
            "perf", "record", str(tmp_path / "nope.json"),
            "--history", str(tmp_path / "h.jsonl"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_history_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage\n")
        assert main(["perf", "check", "--history", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_real_bench_records_stay_green(self, tmp_path, capsys):
        """The committed BENCH_*.json files produce a quiet history."""
        repo = Path(__file__).parent.parent
        benches = sorted(repo.glob("BENCH_*.json"))
        assert benches, "repo-root benchmark records missing"
        history = tmp_path / "history.jsonl"
        assert main([
            "perf", "record", *map(str, benches),
            "--history", str(history), "--machine", "ci",
            "--timestamp", "1.0",
        ]) == 0
        assert main(["perf", "check", "--history", str(history)]) == 0
        capsys.readouterr()
