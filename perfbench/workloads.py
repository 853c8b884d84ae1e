"""Workloads of the end-to-end benchmark and the checks on their outputs.

A workload is a list of ``repro`` commands run one after another over
inputs made by ``repro simulate``.  Expected values come from the
generators' construction, not from the program's own output:

* ``synthetic``: every rank enters ``setup`` once, then each iteration
  emits 21 events (``iteration`` > ``work`` compute, halo exchange,
  ``MPI_Allreduce``), plus 6 framing events per rank.  The generator
  documents ``iteration`` as the region the dominant-function heuristic
  must select, so a rank has one segment per iteration.
* ``cosmo_specs_fd4``: 108 events per rank and iteration plus 10 per rank.
  One OS interruption is planted on rank ``20 * processes // 200`` during
  iteration ``iterations * 3 // 5``: rank 20, segment 18 at the paper's
  200 ranks x 30 iterations (the FD4 case, Fig. 5).
"""

from __future__ import annotations

import json
import os
import re
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from html.parser import HTMLParser
from pathlib import Path
from typing import Callable

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"

#: Files ``analyze --views`` must write (``counter_*.png`` come on top).
VIEW_FILES = (
    "timeline.png",
    "sos_heatmap.png",
    "sos_heatmap.svg",
    "timeline.svg",
    "duration_heatmap.png",
    "profile.png",
    "activity.png",
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the benchmark uses :data:`FULL`, the self-test tiny ones."""

    synthetic_ranks: int = 64
    synthetic_iterations: int = 2000
    fd4_ranks: int = 200
    fd4_iterations: int = 30

    @property
    def synthetic_events(self) -> int:
        return self.synthetic_ranks * (21 * self.synthetic_iterations + 6)

    @property
    def fd4_events(self) -> int:
        return self.fd4_ranks * (108 * self.fd4_iterations + 10)

    @property
    def fd4_hot_rank(self) -> int:
        return 20 * self.fd4_ranks // 200

    @property
    def fd4_hot_segment(self) -> int:
        return self.fd4_iterations * 3 // 5


FULL = Sizes()

#: A check takes the run's paths and the command's stdout and returns the
#: problems it found (empty when the output is correct).
Check = Callable[[dict, str], list]


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # repro arguments; ``{name}`` is a run path
    check: Check
    stats: bool = True  # accepts ``--stats`` (used by the traced run)
    role: str = ""  # "cold" / "warm" analysis, for the session metrics


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict[str, tuple[str, ...]]  # path name -> simulate arguments
    commands: tuple[Command, ...]
    events: int  # events in the input trace


# -- output checks ---------------------------------------------------------


def _load_json(path: str) -> tuple[dict | None, list]:
    try:
        with open(path, encoding="utf-8") as fp:
            return json.load(fp), []
    except (OSError, ValueError) as err:
        return None, [f"{os.path.basename(path)}: {err}"]


def check_synthetic_json(sizes: Sizes) -> Check:
    def check(paths: dict, _stdout: str) -> list:
        doc, problems = _load_json(paths["J"])
        if doc is None:
            return problems
        segments = doc.get("segments", {})
        per_rank = segments.get("total", 0) / max(doc.get("processes", 0), 1)
        expected = {
            "events": (doc.get("events"), sizes.synthetic_events),
            "processes": (doc.get("processes"), sizes.synthetic_ranks),
            "dominant": (doc.get("dominant", {}).get("name"), "iteration"),
            "segments per rank": (per_rank, sizes.synthetic_iterations),
        }
        return [
            f"analysis JSON {key} is {got!r}, expected {want!r}"
            for key, (got, want) in expected.items()
            if got != want
        ]

    return check


def check_fd4_json(sizes: Sizes) -> Check:
    def check(paths: dict, _stdout: str) -> list:
        doc, problems = _load_json(paths["J"])
        if doc is None:
            return problems
        hot_ranks = doc.get("hot_ranks") or [{}]
        hot_segments = doc.get("hot_segments") or [{}]
        got = (
            doc.get("events"),
            hot_ranks[0].get("rank"),
            hot_segments[0].get("rank"),
            hot_segments[0].get("segment_index"),
        )
        want = (sizes.fd4_events, sizes.fd4_hot_rank, sizes.fd4_hot_rank,
                sizes.fd4_hot_segment)
        if got != want:
            return [
                "analysis JSON (events, top hot rank, top hot segment rank, "
                f"segment) is {got}, expected {want}"
            ]
        return []

    return check


def check_png(path: Path) -> list:
    with open(path, "rb") as fp:
        head = fp.read(24)
    if not head.startswith(PNG_SIGNATURE):
        return [f"{path.name}: no PNG signature"]
    if len(head) < 24:
        return [f"{path.name}: truncated before IHDR"]
    length, kind, width, height = struct.unpack(">I4sII", head[8:24])
    if kind != b"IHDR" or length != 13 or width == 0 or height == 0:
        return [f"{path.name}: first chunk is not a valid IHDR"]
    return []


def check_svg(path: Path) -> list:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as err:
        return [f"{path.name}: {err}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []


class _TagBalance(HTMLParser):
    """Checks that every non-void element is closed in order."""

    VOID = {"area", "base", "br", "col", "embed", "hr", "img", "input",
            "link", "meta", "source", "track", "wbr"}

    def __init__(self) -> None:
        super().__init__()
        self.stack: list[str] = []
        self.problems: list[str] = []

    def handle_starttag(self, tag, attrs) -> None:
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag) -> None:
        if tag in self.VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.problems.append(f"unexpected </{tag}> at line {self.getpos()[0]}")
            return
        self.stack.pop()


def check_html(path: Path) -> list:
    text = path.read_text(encoding="utf-8")
    if not text.lstrip().lower().startswith("<!doctype html>"):
        return [f"{path.name}: no <!DOCTYPE html>"]
    parser = _TagBalance()
    parser.feed(text)
    parser.close()
    problems = parser.problems[:3]
    if parser.stack:
        problems.append(f"unclosed elements {parser.stack[-3:]}")
    return [f"{path.name}: {p}" for p in problems]


def check_views(paths: dict, _stdout: str) -> list:
    views = Path(paths["D"])
    problems = [f"{name}: not written" for name in VIEW_FILES
                if not (views / name).is_file()]
    for path in sorted(views.glob("*.png")):
        problems += check_png(path)
    for path in sorted(views.glob("*.svg")):
        problems += check_svg(path)
    report = Path(paths["R"])
    problems += check_html(report) if report.is_file() else ["report not written"]
    return problems


def check_hot_rect(sizes: Sizes) -> Check:
    title = f"<title>rank {sizes.fd4_hot_rank}, segment {sizes.fd4_hot_segment}:"

    def check(paths: dict, _stdout: str) -> list:
        svg = Path(paths["D"]) / "sos_heatmap.svg"
        if svg.is_file() and title not in svg.read_text(encoding="utf-8"):
            return [f"sos_heatmap.svg draws no rect for {title[7:-1]}"]
        return []

    return check


def check_monitor(sizes: Sizes) -> Check:
    line = re.compile(r"^streamed (\d+) events; dominant '([^']*)'", re.M)

    def check(_paths: dict, stdout: str) -> list:
        match = line.search(stdout)
        if match is None:
            return ["monitor printed no 'streamed ...' summary"]
        events, dominant = int(match.group(1)), match.group(2)
        problems = []
        if events != sizes.synthetic_events:
            problems.append(f"monitor streamed {events} events, expected "
                            f"{sizes.synthetic_events}")
        # The stream selects its dominant function from a warm-up window,
        # where the loop body ``work`` and its wrapper ``iteration`` are
        # both eligible; batch equivalence is promised only when pinned.
        if dominant not in ("iteration", "work"):
            problems.append(f"monitor dominant {dominant!r} is not a loop region")
        return problems

    return check


def check_lint(_paths: dict, stdout: str) -> list:
    if not re.search(r"^0 errors, ", stdout, re.M):
        return ["lint reported errors on a generated trace"]
    return []


def check_explain(sizes: Sizes) -> Check:
    want = f"segment {sizes.fd4_hot_segment} on rank {sizes.fd4_hot_rank} "

    def check(_paths: dict, stdout: str) -> list:
        if not stdout.startswith(want):
            first = stdout.splitlines()[0] if stdout else ""
            return [f"explain names {first!r}, expected {want.strip()!r}"]
        return []

    return check


def both(*checks: Check) -> Check:
    return lambda paths, stdout: [p for c in checks for p in c(paths, stdout)]


# -- workloads -------------------------------------------------------------


def workloads(seed: int, sizes: Sizes = FULL) -> dict[str, Workload]:
    """The benchmark's workloads, with inputs made from ``seed``."""
    synthetic = (
        "synthetic", "--processes", str(sizes.synthetic_ranks),
        "--iterations", str(sizes.synthetic_iterations), "--seed", str(seed),
    )
    fd4 = (
        "cosmo_specs_fd4", "--processes", str(sizes.fd4_ranks),
        "--iterations", str(sizes.fd4_iterations), "--seed", str(seed),
    )
    synthetic_json = check_synthetic_json(sizes)
    fd4_json = check_fd4_json(sizes)
    found = [
        Workload(
            "analyze",
            {"S": synthetic},
            (Command(("analyze", "{S}", "--json", "{J}"), synthetic_json),),
            sizes.synthetic_events,
        ),
        Workload(
            "monitor",
            {"S": synthetic},
            (Command(("monitor", "{S}"), check_monitor(sizes)),),
            sizes.synthetic_events,
        ),
        Workload(
            "triage",
            {"F": fd4},
            (
                Command(("lint", "{F}"), check_lint),
                Command(("analyze", "{F}", "--cache-dir", "{C}", "--json",
                         "{J}"), fd4_json, role="cold"),
                Command(("analyze", "{F}", "--cache-dir", "{C}", "--json",
                         "{J}", "--views", "{D}", "--html", "{R}"),
                        both(fd4_json, check_views, check_hot_rect(sizes)),
                        role="warm"),
                Command(("explain", "{F}", "--cache-dir", "{C}"),
                        check_explain(sizes), stats=False),
            ),
            sizes.fd4_events,
        ),
    ]
    return {w.name: w for w in found}
