"""The runtime needs numpy only.

``scipy`` is a test-time reference (see ``test_imbalance_variation``),
never a runtime import: loading it costs more than a whole ``analyze``
of a mid-size trace.  A fresh interpreter imports every public
subpackage, runs ``analyze`` end to end and must not have loaded any
``scipy`` module.  Holds whether or not scipy is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

CHILD = """
import sys

import repro.cli
import repro.core
import repro.core.streaming
import repro.htmlreport
import repro.lint
import repro.perf
import repro.viz
from repro.cli import main

trace, out = sys.argv[1], sys.argv[2]
assert main(["simulate", "synthetic", "--processes", "4", "--iterations", "6",
             "-o", trace]) == 0
assert main(["analyze", trace, "--json", out + ".json", "--html", out + ".html"]) == 0
print("scipy modules:", sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_analyze_loads_no_scipy(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "t.rpt"), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []", proc.stdout
