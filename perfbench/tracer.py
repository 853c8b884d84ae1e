"""Run one ``repro`` CLI command in-process with spans around layer calls.

Usage::

    python3 perfbench/tracer.py SPANS.json -- analyze trace.rpt --json out.json

The program is not edited: public functions of each ``repro`` module are
wrapped from outside as their modules are imported, and every call records
a span ``(name, start, end, parent)`` in memory.  Imports that load modules
are spans too (``import``), so lazy subcommand imports show up where they
happen.  When the command ends the spans and counters are written to
``SPANS.json`` and the process exits with the command's exit code.

:data:`SPAN_METRIC` maps span names to the per-layer metric their self time
is charged to; :func:`self_times` turns a span list into those sums.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import json
import os
import sys
import threading
import time
import traceback

#: ``module:qualname`` of every wrapped callable -> per-layer time metric.
#: The span name is the qualname (two ``generate`` functions share a name).
TARGETS = {
    "repro.trace.reader:read_trace": "trace.read_s",
    "repro.trace.reader:TraceIndex.__init__": "trace.read_s",
    "repro.trace.reader:TraceIndex.load": "trace.read_s",
    "repro.trace.reader:TraceIndex.definitions_trace": "trace.read_s",
    "repro.trace.binio:read_binary": "trace.read_s",
    "repro.trace.fingerprint:fingerprint_trace": "trace.fingerprint_s",
    "repro.trace.cursor:EventCursor.__iter__": "trace.cursor_s",
    "repro.trace.validate:validate_trace": "core.replay_s",
    "repro.profiles.replay:replay_trace": "core.replay_s",
    "repro.core.fused:fused_bootstrap": "core.replay_s",
    "repro.core.session:AnalysisSession.replay": "core.replay_s",
    "repro.core.session:AnalysisSession.profile": "core.profile_s",
    "repro.core.session:AnalysisSession.selection": "core.profile_s",
    "repro.core.session:AnalysisSession.segmentation": "core.segmentation_s",
    "repro.core.session:AnalysisSession.sos": "core.sos_s",
    "repro.core.session:AnalysisSession.trend": "core.trend_s",
    "repro.core.session:AnalysisSession.detections": "core.detections_s",
    "repro.core.session:AnalysisSession.heat_matrix": "core.heat_s",
    "repro.core.variation:binned_matrix": "core.heat_s",
    "repro.core.session:AnalysisSession.analysis": "core.analysis_s",
    "repro.core.session:AnalysisSession.analysis_for": "core.analysis_s",
    "repro.core.pipeline:VariationAnalysis.report": "core.report_s",
    "repro.core.pipeline:VariationAnalysis.to_dict": "core.report_s",
    "repro.core.explain:explain_segment": "core.explain_s",
    "repro.core.session:ArtifactCache.load": "session.io_s",
    "repro.core.session:ArtifactCache.store": "session.io_s",
    "repro.core.streaming:StreamingAnalyzer.feed": "streaming.feed_s",
    "repro.lint.engine:lint_path": "lint.path_s",
    "repro.viz:render_analysis": "viz.render_analysis_s",
    "repro.viz.timeline:render_timeline_png": "viz.timeline_png_s",
    "repro.viz.heatmap:render_heat_png": "viz.sos_heatmap_png_s",
    "repro.viz.heatmap:render_sos_svg": "viz.sos_svg_s",
    "repro.viz.timeline_svg:render_timeline_svg": "viz.timeline_svg_s",
    "repro.viz.profilebar:render_profile_png": "viz.profile_png_s",
    "repro.core.activity:activity_shares": "viz.activity_s",
    "repro.viz.areachart:render_area_png": "viz.activity_s",
    "repro.viz.counterchart:render_counter_png": "viz.counter_png_s",
    "repro.htmlreport:render_html_report": "htmlreport.render_s",
    "repro.sim.workloads.synthetic:generate": "sim.generate_s",
    "repro.sim.workloads.cosmo_specs_fd4:generate": "sim.generate_s",
    "repro.trace.binio:write_binary": "sim.write_s",
}

#: Span name -> metric; the import span and the one renderer whose metric
#: depends on its output path are added by hand.
SPAN_METRIC = {target.split(":", 1)[1]: metric for target, metric in TARGETS.items()}
SPAN_METRIC["import"] = "cli.import_s"
SPAN_METRIC["render_heat_png[duration]"] = "viz.duration_heatmap_s"

_ITERATORS = {"EventCursor.__iter__"}


def self_times(spans: list) -> tuple[dict[str, float], float]:
    """Per-name self time and the summed duration of root spans.

    ``spans`` holds ``[name, start, end, parent]`` rows, ``parent`` being
    the index of the enclosing span or -1.  Self time is a span's duration
    minus the durations of its direct children.
    """
    own = [end - start for _name, start, end, _parent in spans]
    roots = 0.0
    for (_name, start, end, parent) in spans:
        if parent >= 0:
            own[parent] -= end - start
        else:
            roots += end - start
    totals: dict[str, float] = {}
    for (name, *_rest), value in zip(spans, own):
        totals[name] = totals.get(name, 0.0) + value
    return totals, roots


class Recorder:
    """Spans and counters of one traced process (main thread only)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._seen: set[str] = set()
        self._wrapped: dict[int, object] = {}  # id(original) -> wrapper
        self._import_depth = 0

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        namer = _NAMERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            index = self._open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _wrap_iter(self, name: str, fn):
        def batches(iterator):
            while True:
                index = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                self.count("trace.cursor_batches")
                yield item

        @functools.wraps(fn)
        def wrapper(cursor):
            if threading.get_ident() != self._main:
                return fn(cursor)
            return batches(fn(cursor))

        return wrapper

    # -- patching ------------------------------------------------------

    def patch_loaded(self) -> None:
        """Wrap targets in newly loaded modules and rebind stale copies.

        Target modules are patched first; then every new ``repro`` module
        has module-level references to an original (``from x import f``
        made before ``x`` was patched) replaced by the wrapper.
        """
        new = [name for name in list(sys.modules) if name not in self._seen]
        if not new:
            return
        self._seen.update(new)
        for target in TARGETS:
            module_name, qualname = target.split(":", 1)
            if module_name not in new:
                continue
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            make = self._wrap_iter if qualname in _ITERATORS else self._wrap
            wrapper = make(qualname, original)
            self._wrapped[id(original)] = wrapper
            setattr(owner, attr, wrapper)
        for name in new:
            module = sys.modules.get(name)
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapped.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _timed_import(self, real):
        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._main or self._import_depth:
                return real(*args, **kwargs)
            before = len(sys.modules)
            index = self._open("import")
            self._import_depth += 1
            try:
                return real(*args, **kwargs)
            finally:
                self._import_depth -= 1
                self._close(index)
                if len(sys.modules) == before and index == len(self.spans) - 1:
                    self.spans.pop()  # nothing was loaded: not an import cost
                else:
                    self.patch_loaded()

        return wrapper

    def install(self) -> None:
        builtins.__import__ = self._timed_import(builtins.__import__)
        importlib.import_module = self._timed_import(importlib.import_module)
        self.patch_loaded()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": self.spans, "counts": self.counts}, fp)


# -- per-call counters ---------------------------------------------------


def _count_read(rec: Recorder, args, trace) -> None:
    rec.count("trace.events", trace.num_events)
    rec.count("trace.read_bytes", os.path.getsize(args[0]))


def _count_load(rec: Recorder, _args, trace) -> None:
    rec.count("trace.events", trace.num_events)


def _count_index(rec: Recorder, args, _result) -> None:
    rec.count("trace.read_bytes", os.path.getsize(args[1]))


def _count_feed(rec: Recorder, args, alerts) -> None:
    rec.count("streaming.chunks")
    rec.count("streaming.events", len(args[2]))
    rec.count("streaming.alerts", len(alerts))


def _count_lint(rec: Recorder, _args, report) -> None:
    rec.count("lint.rules", len(report.rules_run))
    rec.count("lint.diagnostics", len(report.diagnostics))


def _count_cache_load(rec: Recorder, _args, arrays) -> None:
    rec.count("session.hits" if arrays is not None else "session.misses")


def _count_store(rec: Recorder, args, _result) -> None:
    cache, key = args[0], args[1]
    rec.count("session.artifacts")
    rec.count("session.stored_bytes", os.path.getsize(cache._path(key)))


def _count_generate(rec: Recorder, _args, trace) -> None:
    rec.count("sim.events", trace.num_events)


_HOOKS = {
    "read_trace": _count_read,
    "TraceIndex.load": _count_load,
    "TraceIndex.__init__": _count_index,
    "StreamingAnalyzer.feed": _count_feed,
    "lint_path": _count_lint,
    "ArtifactCache.load": _count_cache_load,
    "ArtifactCache.store": _count_store,
    "generate": _count_generate,
}


def _heat_name(args, kwargs) -> str:
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    if path is not None and os.path.basename(str(path)).startswith("duration"):
        return "render_heat_png[duration]"
    return "render_heat_png"


_NAMERS = {"render_heat_png": _heat_name}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <repro arguments>", file=sys.stderr)
        return 2
    out, command = argv[0], argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        from repro.cli import main as cli_main

        code = cli_main(command)
    except SystemExit as exc:  # argparse errors and --version
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
