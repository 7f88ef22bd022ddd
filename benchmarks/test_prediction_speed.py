"""Microbenchmark: one sweep over all sizes vs a loop of one-size calls.

The claim of the batched prediction engine: evaluating a full algorithm
menu over a message-size sweep as array ops is >= 10x faster than calling
the scalar predictors size by size.  The scalar predictors are one-size
sweeps, so this measures the per-call cost a size loop pays (16-node
model, 200 sizes, the whole menu), asserts the floor, and writes
``BENCH_prediction.json`` at the repo root so the numbers are committed
alongside the code that produced them.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_prediction_speed.py -s
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.cluster import synthesize_ground_truth, table1_cluster
from repro.models import (
    ExtendedLMOModel,
    GatherIrregularity,
    GatherPrediction,
    predict_binomial_gather,
    predict_binomial_scatter,
    predict_linear_gather,
    predict_linear_scatter,
)
from repro.models.collectives.formulas_ext import _PREDICTORS, predict_collective
from repro.predict_service import clear_cache, predict_sweep

KB = 1024
N_SIZES = 200
REPEATS = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_prediction.json"

_CORE_SCALAR = {
    ("scatter", "linear"): lambda model, m, root: float(
        predict_linear_scatter(model, m, root=root)),
    ("scatter", "binomial"): lambda model, m, root: float(
        predict_binomial_scatter(model, m, root=root)),
    ("gather", "linear"): lambda model, m, root: _gather_value(model, m, root),
    ("gather", "binomial"): lambda model, m, root: float(
        predict_binomial_gather(model, m, root=root)),
}


def _gather_value(model, m, root):
    value = predict_linear_gather(model, m, root=root)
    return value.expected if isinstance(value, GatherPrediction) else float(value)


def _menu(model):
    return sorted(_CORE_SCALAR) + sorted(_PREDICTORS)


def _scalar_pass(model, menu, sizes):
    out = {}
    for (operation, algorithm) in menu:
        core = _CORE_SCALAR.get((operation, algorithm))
        if core is not None:
            out[(operation, algorithm)] = [core(model, m, 0) for m in sizes]
        else:
            out[(operation, algorithm)] = [
                float(predict_collective(model, operation, algorithm, m, root=0))
                if operation == "bcast"
                else float(predict_collective(model, operation, algorithm, m))
                for m in sizes
            ]
    return out


def _batch_pass(model, menu, sizes):
    clear_cache()  # time cold sweeps, not cache hits
    return {
        (operation, algorithm): predict_sweep(model, operation, algorithm, sizes)
        for (operation, algorithm) in menu
    }


def _best_of(fn, *args):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_batched_menu_sweep_is_10x_faster():
    gt = synthesize_ground_truth(table1_cluster(), seed=0)
    model = ExtendedLMOModel.from_ground_truth(
        gt, GatherIrregularity(m1=4 * KB, m2=64 * KB, escalation_value=0.25)
    )
    sizes = np.logspace(0, np.log10(1 << 20), N_SIZES)
    menu = _menu(model)

    scalar_s, scalar_out = _best_of(_scalar_pass, model, menu, sizes)
    batch_s, batch_out = _best_of(_batch_pass, model, menu, sizes)

    # Same numbers, not just faster numbers.
    for key in menu:
        assert np.array_equal(np.array(scalar_out[key]), batch_out[key]), key

    speedup = scalar_s / batch_s
    payload = {
        "benchmark": "full-menu sweep, scalar loop vs vectorized batch",
        "nodes": model.n,
        "n_sizes": N_SIZES,
        "menu_entries": len(menu),
        "predictions": N_SIZES * len(menu),
        "scalar_seconds": round(scalar_s, 6),
        "batch_seconds": round(batch_s, 6),
        "speedup": round(speedup, 2),
        "floor": 10.0,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nscalar {scalar_s * 1e3:.1f} ms, batch {batch_s * 1e3:.1f} ms, "
          f"speedup {speedup:.1f}x -> {RESULT_PATH.name}")
    assert speedup >= 10.0, f"batched sweep only {speedup:.1f}x faster"
