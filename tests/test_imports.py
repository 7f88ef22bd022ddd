"""What a fresh interpreter loads: the import guards of every entry point.

Each test runs its code in a new interpreter, because this one has
already imported whatever the rest of the suite needed.  scipy is
imported only by the two functions that call it: the Student-t quantile
of a confidence interval (``repro.stats.ci``) and the linear program of
``optimal_partition``.  Serving, estimating and running a campaign
compute neither, so they start without scipy's import time and memory.
"""

import json
import os
import subprocess
import sys

import pytest

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Prepended to every child's code: ``scipy_modules()`` lists what it loaded.
_PRELUDE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""


def _run(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", _PRELUDE + code], capture_output=True, text=True,
        timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    return out.stdout.strip()


@pytest.mark.campaign
def test_importing_the_api_leaves_the_process_pool_unloaded():
    """The pool is imported inside ``run``, so ``import repro.api`` does
    not pay for it."""
    code = "import repro.api; print('concurrent.futures.process' in sys.modules)"
    assert _run(code) == "False"


def test_importing_the_api_leaves_scipy_unloaded():
    """``import repro.api`` loads no scipy module at all."""
    assert _run("import repro.api; print(scipy_modules())") == "[]"


_ENTRY_POINTS = """
import json, os, tempfile
import repro.api, repro.cli, repro.serve.server, repro.estimation.parallel
import repro.experiments
from repro import api

loaded = {"imports": scipy_modules()}
outcome = api.estimate(api.load_cluster(nodes=4), reps=1)
api.predict(outcome.model, "gather", "linear", 32768)
api.optimize_gather(outcome.model, [1024.0, 65536.0])
with tempfile.TemporaryDirectory() as tmp:
    result = api.run_campaign(api.load_cluster(nodes=4), os.path.join(tmp, "c.jsonl"))
loaded["served_and_campaign"] = scipy_modules()

from repro.cluster import synthesize_ground_truth, table1_cluster
from repro.models import ExtendedLMOModel
from repro.optimize import optimal_partition
from repro.stats.ci import summarize

summary = summarize([1.0, 2.0, 4.0, 8.0, 16.0])
loaded["after_summarize"] = scipy_modules()
gt = synthesize_ground_truth(table1_cluster())
part = optimal_partition(
    ExtendedLMOModel.from_ground_truth(gt), 1_000_000, 50e-9 * gt.C / gt.C.min(),
)
loaded["after_partition"] = scipy_modules()
print(json.dumps({
    "loaded": loaded,
    "coverage": result.coverage,
    "halfwidth": summary.ci_halfwidth,
    "counts": list(part.counts),
    "makespan": part.predicted_makespan,
}))
"""


@pytest.mark.campaign
def test_entry_points_serve_estimate_and_campaign_without_scipy():
    """Importing every entry point, one estimate, one predict, one gather
    optimization and a serial DES campaign load no scipy; the first
    confidence interval and the first LP partition then load it and
    return the values they returned with scipy imported up front."""
    out = json.loads(_run(_ENTRY_POINTS))
    loaded = out["loaded"]
    assert loaded["imports"] == []
    assert loaded["served_and_campaign"] == []
    assert out["coverage"] == 1.0
    assert "scipy.special" in loaded["after_summarize"]
    assert "scipy.optimize" not in loaded["after_summarize"]
    assert "scipy.optimize" in loaded["after_partition"]
    # t(0.975, 4) * std / sqrt(5) of the five samples.
    assert out["halfwidth"] == pytest.approx(7.573132563278903, rel=1e-12)
    assert out["makespan"] == pytest.approx(0.014857080004479963, rel=1e-9)
    expected = [91764, 64031, 61609, 61617, 61563, 61512, 61585, 61528,
                64430, 64401, 57058, 59526, 44678, 61564, 61528, 61606]
    assert sum(out["counts"]) == 1_000_000
    assert all(abs(a - b) <= 1 for a, b in zip(out["counts"], expected))


_EXPORTS = """
import importlib, json, pkgutil
import repro

names = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
                     if info.name.rsplit(".", 1)[-1] != "__main__"]
exported, missing = 0, []
for name in names:
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", ()):
        exported += 1
        if not hasattr(module, attr):
            missing.append(f"{name}.{attr}")
print(json.dumps({"modules": len(names), "exported": exported, "missing": missing,
                  "scipy": scipy_modules()}))
"""


def test_every_exported_name_resolves():
    """Every name in a module's ``__all__`` is an attribute of that
    module, across every module of the package, and importing them all
    loads no scipy."""
    out = json.loads(_run(_EXPORTS))
    assert out["modules"] >= 100 and out["exported"] >= 500, out
    assert out["missing"] == []
    assert out["scipy"] == []
