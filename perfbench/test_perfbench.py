"""Self-test of the benchmark at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    synthetic_ranks=4, synthetic_iterations=300, fd4_ranks=200, fd4_iterations=10
)


@pytest.fixture(autouse=True)
def _private_work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.workloads(0)))
def test_every_declared_metric_is_emitted_with_its_unit(capsys, workload, trace):
    end_to_end, per_layer = run.declared_metrics()
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == (per_layer if trace else end_to_end)
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        record = json.loads(
            (run.WORK / f"BENCH_perfbench_{workload}.json").read_text())
        assert set(record) == {"bench", "git_sha", "machine", "results"}
        assert set(record["results"][workload]) == {"wall_s", "events_per_s"}


def test_truncated_input_is_counted_not_raised(tmp_path):
    workload = workloads.workloads(5, TINY)["analyze"]
    bench = run.Run(workload, tmp_path, time.monotonic() + 120)
    (tmp_path / "logs").mkdir()
    rounds, _sims = bench.setup(1)
    trace = Path(bench.paths["S"])
    trace.write_bytes(trace.read_bytes()[: trace.stat().st_size // 2])
    metrics = run.end_to_end(bench, rounds, bench.repeat(0))
    assert (bench.attempted, bench.failed) == (2, 1)
    assert metrics["ok_frac"] == 0.5
    assert bench.problems[0].startswith("analyze ")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "analyze",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_scales_by_the_kernel_times_around_a_command(monkeypatch):
    times = iter([0.5, 0.2, 0.4])  # warm-up, before the command, after it
    monkeypatch.setattr(run.Reference, "kernel", lambda self: next(times))
    reference = run.Reference()
    assert reference.scale() == pytest.approx(run.Reference.SECONDS / 0.3)


def test_self_time_subtracts_direct_children():
    spans = [
        ["AnalysisSession.analysis", 0.0, 10.0, -1],
        ["AnalysisSession.sos", 1.0, 4.0, 0],
        ["AnalysisSession.segmentation", 2.0, 3.0, 1],
        ["import", 5.0, 6.0, 0],
        ["read_trace", 11.0, 12.0, -1],
    ]
    own, roots = tracer.self_times(spans)
    assert own == {"AnalysisSession.analysis": 6.0, "AnalysisSession.sos": 2.0,
                   "AnalysisSession.segmentation": 1.0, "import": 1.0,
                   "read_trace": 1.0}
    assert roots == 11.0


def test_every_span_has_a_declared_metric():
    _end_to_end, per_layer = run.declared_metrics()
    assert set(tracer.SPAN_METRIC.values()) <= set(per_layer)
