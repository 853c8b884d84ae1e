"""End-to-end benchmark of the ``repro`` CLI with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Every command is a fresh ``python3 -m repro`` process, started one after
another, so interpreter start-up and imports count.  The inputs are made
by ``repro simulate`` from ``--seed``; the program only sees the ``.rpt``
files.  Every command's output is checked against the generators' ground
truth (see ``workloads.py``); a failed command or check is counted, never
raised.

``--trace 0`` measures the end-to-end metrics with tracing off.  Its times
are walls scaled to a reference machine speed (see ``Reference``).
``--trace 1`` is the traced run: each command runs under ``tracer.py``,
which wraps the public functions of the ``repro`` layers from outside, and
the per-layer metrics are the self times and counts of those spans.

Metric names and units are declared in ``BENCHMARK.json``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each ``--trace 0`` run also writes its raw
``wall_s``/``events_per_s`` to ``.perfbench_work/BENCH_perfbench_<workload>.json``,
stamped with the git SHA and machine fingerprint, in the shape
``repro perf record`` ingests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import FULL, Sizes, Workload, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 3
RUN_LIMIT_S = 165.0  # a run must end within 180 s
OUTPUTS = ("J", "R", "D", "C")  # per-iteration outputs, removed before each


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


@dataclass
class Proc:
    """One finished ``repro`` process."""

    args: list[str]
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    spans: dict | None = None
    problems: list[str] = field(default_factory=list)
    ref_wall: float = 0.0  # ``wall`` at the reference speed (see Reference)


#: One thread per BLAS/OpenMP pool: the benchmark runs on a few shared cores,
#: and idle pool threads spinning beside the main one add noise, not speed.
SINGLE_THREADED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **SINGLE_THREADED,
                PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_repro(args: list[str], log: Path, deadline: float,
              spans: Path | None = None) -> Proc:
    """Run one ``repro`` command to completion; wall time and max RSS."""
    if spans is None:
        cmd = [sys.executable, "-m", "repro", *args]
    else:
        cmd = [sys.executable, str(Path(tracer.__file__)), str(spans), "--", *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    with open(log.with_suffix(".out"), "w+", encoding="utf-8") as out, \
            open(log.with_suffix(".err"), "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        err.seek(0)
        result = Proc(args, wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      out.read(), err.read())
    if spans is not None and spans.is_file():
        with open(spans, encoding="utf-8") as fp:
            result.spans = json.load(fp)
    if result.code != 0:
        last = result.stderr.strip().splitlines()[-1:] or ["no stderr"]
        result.problems.append(f"exit code {result.code}: {last[0]}")
    return result


class Reference:
    """The machine's speed, from a fixed NumPy kernel timed around commands.

    A shared host's speed drifts by a quarter or more for seconds to
    minutes, so raw walls of the same code spread wider between runs than
    most regressions.  Timing the same kernel before and after every command
    and scaling the command's wall by ``SECONDS / kernel time`` cancels most
    of that drift: the result is the wall the command would take at the
    speed where the kernel takes ``SECONDS``.  In slow, steady stretches the
    commands slow somewhat more than the kernel, so some drift remains.  The
    kernel is NumPy sorting and scanning, because its times followed those
    of the ``repro`` commands more closely than pure Python loops did.
    """

    SECONDS = 0.170  # the kernel's median time on the baseline machine

    def __init__(self) -> None:
        self.data = np.random.default_rng(0).random(4_000_000)
        self.kernel()  # warm-up: first-touch page faults
        self.times = [self.kernel()]

    def kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            np.cumsum(np.sort(self.data))
            float((self.data * 2.0 + 1.0).sum())
        return time.perf_counter() - start

    def scale(self) -> float:
        """Reference seconds per second over the command that just ended."""
        self.times.append(self.kernel())
        return self.SECONDS / statistics.mean(self.times[-2:])


# -- one workload ------------------------------------------------------------


@dataclass
class Run:
    """Paths and bookkeeping of one benchmark run of one workload."""

    workload: Workload
    dir: Path
    deadline: float
    reference: Reference = field(default_factory=Reference)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _serial: int = 0

    @property
    def paths(self) -> dict[str, str]:
        names = {"S": "synthetic.rpt", "F": "fd4.rpt", "J": "analysis.json",
                 "R": "report.html", "D": "views", "C": "cache"}
        return {key: str(self.dir / name) for key, name in names.items()}

    def execute(self, args: list[str], traced: bool = False, check=None) -> Proc:
        """Run one command, check its output unless it failed, count it."""
        self._serial += 1
        log = self.dir / "logs" / f"{self._serial:04d}"
        proc = run_repro(args, log, self.deadline,
                         log.with_suffix(".spans.json") if traced else None)
        proc.ref_wall = proc.wall * self.reference.scale()
        if check is not None and not proc.problems:
            try:
                proc.problems += check(self.paths, proc.stdout)
            except Exception as err:  # a broken output must not stop the run
                proc.problems.append(f"check raised {type(err).__name__}: {err}")
        self.attempted += 1
        if proc.problems:
            self.failed += 1
            self.problems.append(f"{' '.join(proc.args[:2])}: {proc.problems[0]}")
        return proc

    def setup(self, repeats: int, traced: bool = False) -> tuple[list[float], list[Proc]]:
        """Make the inputs ``repeats`` times; scaled wall of each round."""
        rounds, procs = [], []
        for _ in range(repeats):
            total = 0.0
            for name, simulate in self.workload.inputs.items():
                proc = self.execute(
                    ["simulate", *simulate, "-o", self.paths[name]], traced)
                if proc.problems:
                    raise BenchError(f"setup failed: {proc.problems[0]}")
                total += proc.ref_wall
                procs.append(proc)
            rounds.append(total)
        return rounds, procs

    def iteration(self, traced: bool = False) -> list[Proc]:
        """Run the workload's commands once, in order, and check them."""
        for key in OUTPUTS:
            shutil.rmtree(self.paths[key], ignore_errors=True)
            Path(self.paths[key]).unlink(missing_ok=True)
        procs = []
        for command in self.workload.commands:
            args = [arg.format(**self.paths) for arg in command.args]
            if traced and command.stats:
                args.append("--stats")
            procs.append(self.execute(args, traced, command.check))
        return procs

    def repeat(self, seconds: float, traced: bool = False) -> list[list[Proc]]:
        """Iterations that fit in ``seconds``, judged by the last one's
        length; always at least one."""
        end = min(time.monotonic() + seconds, self.deadline)
        done: list[list[Proc]] = []
        while True:
            began = time.monotonic()
            done.append(self.iteration(traced))
            now = time.monotonic()
            if 2 * now - began > end:  # the next one would overrun
                return done


# -- metrics -----------------------------------------------------------------


def end_to_end(run: Run, setup_rounds: list[float],
               iterations: list[list[Proc]]) -> dict[str, float]:
    wall = statistics.median(sum(p.ref_wall for p in it) for it in iterations)
    return {
        "ref_wall_s": wall,
        "ref_events_per_s": run.workload.events / wall,
        "peak_rss_mb": max(p.rss_mb for it in iterations for p in it),
        "setup_s": statistics.median(setup_rounds),
        "ok_frac": (run.attempted - run.failed) / run.attempted,
    }


def _stats_self_s(stdout: str) -> float:
    """Summed self time of the ``--stats`` phase table (all spans)."""
    total, in_table = 0.0, False
    for line in stdout.splitlines():
        if line.startswith("phase ") and "self s" in line:
            in_table = True
        elif in_table:
            if not line.strip():
                break
            total += float(line.split()[-2])
    return total


def _output_sizes(paths: dict[str, str]) -> dict[str, float]:
    views, report = Path(paths["D"]), Path(paths["R"])
    svgs = list(views.glob("*.svg"))
    return {
        "viz.svg_rects": sum(p.read_bytes().count(b"<rect") for p in svgs),
        "viz.svg_bytes": sum(p.stat().st_size for p in svgs),
        "viz.png_bytes": sum(p.stat().st_size for p in views.glob("*.png")),
        "htmlreport.bytes": report.stat().st_size if report.is_file() else 0,
    }


def _analysis_counts(path: str) -> dict[str, float]:
    try:
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
    except (OSError, ValueError):
        return {}
    return {
        "core.segments": doc.get("segments", {}).get("total", 0),
        "core.hot_ranks": len(doc.get("hot_ranks", [])),
        "core.hot_segments": len(doc.get("hot_segments", [])),
    }


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def _charge(m: dict[str, float], spans: list) -> float:
    """Add the spans' self times to their layer metrics; root span total."""
    own, roots = tracer.self_times(spans)
    for name, value in own.items():
        m[tracer.SPAN_METRIC[name]] += value
    return roots


def traced_layers(run: Run, procs: list[Proc], names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    m = dict.fromkeys(names, 0.0)
    counts: dict[str, float] = {}
    instrumented = stats_wall = 0.0
    for command, proc in zip(run.workload.commands, procs):
        if proc.spans is None:
            continue
        m["bench.unattributed_s"] += proc.wall - _charge(m, proc.spans["spans"])
        for key, value in proc.spans["counts"].items():
            counts[key] = counts.get(key, 0) + value
        if command.role:
            m[f"session.{command.role}_s"] += sum(
                end - start for name, start, end, _parent in proc.spans["spans"]
                if name == "AnalysisSession.analysis")
        if command.stats:
            instrumented += _stats_self_s(proc.stdout)
            stats_wall += proc.wall
    for key, value in counts.items():
        if key in m:
            m[key] = value
    m.update(_analysis_counts(run.paths["J"]))
    m.update(_output_sizes(run.paths))
    lookups = counts.get("session.hits", 0) + counts.get("session.misses", 0)
    m["session.hit_ratio"] = _rate(counts.get("session.hits", 0), lookups)
    m["cli.processes"] = len(procs)
    m["core.replay_events_per_s"] = _rate(run.workload.events, m["core.replay_s"])
    m["streaming.events_per_s"] = _rate(counts.get("streaming.events", 0),
                                        m["streaming.feed_s"])
    m["lint.events_per_s"] = _rate(
        run.workload.events if m["lint.path_s"] else 0, m["lint.path_s"])
    m["obs.span_coverage"] = _rate(instrumented, stats_wall)
    m["bench.traced_wall_s"] = sum(p.wall for p in procs)
    return m


def per_layer(run: Run, seconds: float, names: list[str]) -> dict[str, float]:
    """The traced run: start-up, traced setup, one untraced and the traced
    iterations; medians over the traced iterations."""
    startup = [run.execute(["--version"]).wall for _ in range(STARTUP_REPEATS)]
    _rounds, sims = run.setup(1, traced=True)
    untraced = sum(p.wall for p in run.iteration())
    layers = [traced_layers(run, procs, names)
              for procs in run.repeat(seconds, traced=True)]
    m = {name: statistics.median(it[name] for it in layers) for name in names}
    setup = dict.fromkeys(names, 0.0)
    for proc in sims:
        _charge(setup, proc.spans["spans"])
    m["sim.generate_s"] = setup["sim.generate_s"]
    m["sim.write_s"] = setup["sim.write_s"]
    m["sim.events_per_s"] = _rate(
        sum(p.spans["counts"].get("sim.events", 0) for p in sims), m["sim.generate_s"])
    m["cli.startup_s"] = statistics.median(startup)
    m["bench.trace_overhead_frac"] = m["bench.traced_wall_s"] / untraced - 1.0
    return m


# -- records -----------------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _machine() -> str:
    sys.path.insert(0, str(SRC))
    try:
        from repro.perf import machine_fingerprint
    finally:
        sys.path.remove(str(SRC))
    return machine_fingerprint()


def record(run: Run, iterations: list[list[Proc]], stamp: dict) -> None:
    """Write this run's raw wall as a ``repro perf record`` input."""
    name = run.workload.name
    wall = statistics.median(sum(p.wall for p in it) for it in iterations)
    doc = {
        "bench": "perfbench_e2e",
        **stamp,
        "results": {name: {"wall_s": wall,
                           "events_per_s": run.workload.events / wall}},
    }
    path = WORK / f"BENCH_perfbench_{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")


# -- entry point ---------------------------------------------------------------


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` name -> unit maps from BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
            spec = json.load(fp)
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read BENCHMARK.json: {err}")
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads(0)))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process, its kernel and every command on one CPU.

    The commands are single-threaded.  On one CPU the reference kernel
    feels the same neighbours as the command it brackets, and no command
    migrates mid-run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _terminate(signum, _frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through run_repro's cleanup


def main(argv: list[str] | None = None, sizes: Sizes = FULL) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    try:
        if not (SRC / "repro" / "cli.py").is_file():
            raise BenchError(f"no repro sources under {SRC}")
        e2e_units, layer_units = declared_metrics()
        workload = workloads(args.seed % 2**31, sizes)[args.workload]
        run_dir = WORK / f"run-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        (run_dir / "logs").mkdir(parents=True)
        run = Run(workload, run_dir, started + RUN_LIMIT_S)
        stamp = {"git_sha": _git_sha(), "machine": _machine()}
        print(f"# {workload.name} seed={args.seed} trace={args.trace} "
              f"git_sha={stamp['git_sha']} machine={stamp['machine']}")
        try:
            if args.trace:
                units = layer_units
                values = per_layer(run, args.seconds, list(layer_units))
            else:
                units = e2e_units
                rounds, _sims = run.setup(SETUP_REPEATS)
                iterations = run.repeat(args.seconds)
                values = end_to_end(run, rounds, iterations)
                for key in ("wall", "ref_wall"):
                    walls = [round(sum(getattr(p, key) for p in it), 4)
                             for it in iterations]
                    print(f"# iteration {key}s: {walls}")
                print(f"# setup rounds: {[round(r, 4) for r in rounds]}; "
                      f"reference kernel: median "
                      f"{statistics.median(run.reference.times):.4f} s of "
                      f"{len(run.reference.times)}")
                record(run, iterations, stamp)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    for problem in run.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    pin_to_one_cpu()
    sys.exit(main())
