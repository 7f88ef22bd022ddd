"""Benchmark: cold start of the command-line interface.

Every CLI verb, a restarted ``repro serve`` and its estimation child
start by importing the package.  This times ``python -c "import
repro.cli"`` in a fresh interpreter from spawn to exit, as the minimum
of 10 runs after one unmeasured run that fills the bytecode cache, and
reads the peak resident memory of one more interpreter that has done the
same import.  That interpreter also reports whether scipy was loaded:
only a confidence interval or an LP partition imports it, so the import
must not.  The result is ``BENCH_startup.json`` at the repo root, gated
by ``benchmarks/check_bench_regression.py`` on ``import_seconds`` and
``peak_rss_mb``.

The timed runs are spread out, 1 s apart: on a 2-vCPU VM, host-wide
slow phases of about 10 s make every import inside one about 35%
slower, so back-to-back runs (about 2 s in all) could all land in one
and fail the 25% gate on unchanged code.  Spread over some 14 s, the
minimum comes from outside such a phase.

The peak is ``VmHWM`` from ``/proc/self/status`` (Linux only), not
``ru_maxrss``: Linux carries the spawning process's high-water mark
across fork and exec into ``ru_maxrss``, so under pytest it would read
pytest's own resident size.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_startup.py -s
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_startup.json"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

#: Timed runs, each after a pause; the minimum is the least disturbed one.
REPEATS = 10
PAUSE_SECONDS = 1.0

_PROBE = """
import json, sys
import repro.cli
with open("/proc/self/status") as status:
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({
    "peak_rss_mb": peak_kb / 1024,
    "scipy_loaded": any(m == "scipy" or m.startswith("scipy.") for m in sys.modules),
}))
"""


def _import_seconds() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], env=ENV, check=True)
    return time.perf_counter() - start


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_cli_cold_start():
    _import_seconds()  # unmeasured: fills the bytecode cache
    times = []
    for _ in range(REPEATS):
        time.sleep(PAUSE_SECONDS)
        times.append(_import_seconds())
    probe = json.loads(subprocess.run(
        [sys.executable, "-c", _PROBE], env=ENV, check=True,
        capture_output=True, text=True,
    ).stdout)
    assert probe["scipy_loaded"] is False
    doc = {
        "benchmark": 'cold start: python -c "import repro.cli" in a fresh interpreter',
        "python": sys.version.split()[0],
        "repeats": REPEATS,
        "pause_seconds": PAUSE_SECONDS,
        "import_seconds": round(min(times), 6),
        "import_seconds_all": [round(t, 6) for t in times],
        "peak_rss_mb": round(probe["peak_rss_mb"], 1),
        "scipy_loaded": probe["scipy_loaded"],
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nimport repro.cli, min of {REPEATS}: {doc['import_seconds']:.3f} s, "
          f"peak RSS {doc['peak_rss_mb']:.1f} MB, scipy loaded: no "
          f"-> {RESULT_PATH.name}")
