"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark regenerates one paper artifact (figure/table) and both
prints and persists the rows/series the paper reports, so a
``pytest benchmarks/ --benchmark-only`` run leaves a full
paper-versus-measured record under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

#: Benchmarks whose records are additionally mirrored to a canonical
#: repo-root copy (the cross-PR perf trajectory lives there).  Keys are
#: the ``bench_<module>`` suffix, values the root file name — the two
#: copies are written from the same serialized payload in the same
#: teardown, so they cannot diverge.  ``scripts/check_bench_sync.py``
#: keeps this mapping honest in CI.
CANONICAL_ROOT_COPIES = {
    "fastpath": "BENCH_fastpath.json",
    "lint": "BENCH_lint.json",
    "sim": "BENCH_sim.json",
    "hb": "BENCH_hb.json",
    "streaming": "BENCH_stream.json",
}


@pytest.fixture(scope="session")
def report():
    """Callable writing one experiment's result table to disk + stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(experiment: str, lines: list[str]) -> None:
        text = "\n".join(lines) + "\n"
        (RESULTS_DIR / f"{experiment}.txt").write_text(text)
        print(f"\n=== {experiment} ===")
        print(text)

    return emit


# ---------------------------------------------------------------------------
# Machine-readable benchmark records (BENCH_<name>.json)
# ---------------------------------------------------------------------------

_GIT_SHA: str | None = None
_BENCH_RECORDS: dict[str, dict[str, dict]] = {}


def _git_sha() -> str | None:
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            _GIT_SHA = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).parent,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        except Exception:
            _GIT_SHA = ""
    return _GIT_SHA or None


@pytest.fixture
def bench_meta(request):
    """Attach metadata (events, trace_bytes, ...) to this test's record.

    ``bench_meta(events=n, trace_bytes=m, **anything)`` merges the
    fields into the test's entry in ``BENCH_<module>.json``; an
    ``events`` count additionally derives ``events_per_s`` from the
    recorded wall-clock.
    """

    def attach(**fields) -> None:
        merged = getattr(request.node, "_bench_meta", {})
        merged.update(fields)
        request.node._bench_meta = merged

    return attach


@pytest.fixture(autouse=True)
def _bench_record(request):
    """Persist one JSON entry per benchmark test, keyed by module.

    Every ``bench_<name>.py`` run leaves a ``BENCH_<name>.json`` next
    to the text reports: wall-clock (pytest-benchmark's best round when
    the ``benchmark`` fixture was used, the test duration otherwise),
    optional events/s and trace size from :func:`bench_meta`, plus the
    git revision — the cross-PR perf trajectory in machine form.
    """
    import repro.obs as obs
    from repro.perf import machine_fingerprint

    # Record telemetry counters alongside the timings: each test runs
    # under its own collector (unless one is already active) and its
    # counter totals land in the JSON record.  Only flag-guarded
    # counters fire on the hot paths, so the timed sections stay
    # representative.
    fresh = not obs.enabled()
    col = obs.enable() if fresh else obs.collector()
    # Resolve the benchmark fixture *now* — requesting it during
    # teardown is rejected once fixtures start finalising, but the
    # object stays readable (its stats fill in as the test runs).
    bench = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    t0 = time.perf_counter()
    try:
        yield
    finally:
        wall = time.perf_counter() - t0
        if fresh:
            col = obs.disable()
    module = request.module.__name__.rpartition(".")[2]
    if not module.startswith("bench_"):
        return
    name = module[len("bench_"):]
    entry: dict = {"wall_s": wall, "timer": "test"}
    stats = getattr(bench, "stats", None)
    if stats is not None:
        entry = {"wall_s": float(stats.stats.min), "timer": "benchmark"}
    counters = col.counters() if col is not None else {}
    if counters:
        entry["counters"] = {
            key: round(value, 9) for key, value in sorted(counters.items())
        }
    entry.update(getattr(request.node, "_bench_meta", {}))
    events = entry.get("events")
    if events and entry["wall_s"] > 0 and "events_per_s" not in entry:
        entry["events_per_s"] = events / entry["wall_s"]
    record = _BENCH_RECORDS.setdefault(name, {})
    record[request.node.name] = entry
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": name,
        "git_sha": _git_sha(),
        "machine": machine_fingerprint(),
        "results": record,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(text)
    root_name = CANONICAL_ROOT_COPIES.get(name)
    if root_name:
        (REPO_ROOT / root_name).write_text(text)


@pytest.fixture(scope="session")
def cosmo_trace():
    from repro.sim.workloads import cosmo_specs

    return cosmo_specs.generate(processes=100, iterations=60)


@pytest.fixture(scope="session")
def cosmo_analysis(cosmo_trace):
    from repro.core import analyze_trace

    return analyze_trace(cosmo_trace)


@pytest.fixture(scope="session")
def fd4_trace():
    from repro.sim.workloads import cosmo_specs_fd4

    return cosmo_specs_fd4.generate()


@pytest.fixture(scope="session")
def fd4_analysis(fd4_trace):
    from repro.core import analyze_trace

    return analyze_trace(fd4_trace)


@pytest.fixture(scope="session")
def wrf_trace():
    from repro.sim.workloads import wrf

    return wrf.generate()


@pytest.fixture(scope="session")
def wrf_analysis(wrf_trace):
    from repro.core import analyze_trace

    return analyze_trace(wrf_trace)
