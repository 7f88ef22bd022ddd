"""Golden values: every collective formula, pinned to the last bit.

``golden_formulas.json`` holds predictions as ``float.hex`` strings, so
the comparison is exact:

* the four core collectives of Table II for the seven models of
  :func:`tests.models.test_batch.all_models`, with both assumptions for
  the two Hockney models;
* the ten menu entries of :mod:`repro.models.collectives.formulas_ext`
  on the n=8 extended-LMO model of the same list.

A change that moves any prediction by one ulp fails here.  Only when a
formula is meant to change, rewrite the file with::

    PYTHONPATH=src python -m tests.models.test_golden_formulas
"""

import json
from pathlib import Path

import numpy as np

from repro.models import (
    GatherPrediction,
    HeterogeneousHockneyModel,
    HockneyModel,
    predict_binomial_gather,
    predict_binomial_gather_sweep,
    predict_binomial_scatter,
    predict_binomial_scatter_sweep,
    predict_collective,
    predict_collective_sweep,
    predict_linear_gather,
    predict_linear_gather_sweep,
    predict_linear_scatter,
    predict_linear_scatter_sweep,
)
from repro.models.collectives.formulas_ext import _PREDICTORS
from tests.models.test_batch import all_models

KB = 1024
SIZES = [0.0, 1.0, 4.0 * KB, 64.0 * KB, 300.0 * KB]
GOLDEN = Path(__file__).with_name("golden_formulas.json")

#: "operation/algorithm" -> (sweep, scalar) of the four core collectives.
_CORE = {
    "scatter/linear": (predict_linear_scatter_sweep, predict_linear_scatter),
    "gather/linear": (predict_linear_gather_sweep, predict_linear_gather),
    "scatter/binomial": (predict_binomial_scatter_sweep, predict_binomial_scatter),
    "gather/binomial": (predict_binomial_gather_sweep, predict_binomial_gather),
}


def _core_cases():
    """(model name, key, sweep, scalar, kwargs) for every core value row."""
    for model in all_models():
        name = type(model).__name__
        for key, (sweep, scalar) in _CORE.items():
            if key.endswith("linear") and isinstance(
                model, (HockneyModel, HeterogeneousHockneyModel)
            ):
                for assumption in ("sequential", "parallel"):
                    yield (model, name, f"{key}/{assumption}", sweep, scalar,
                           {"assumption": assumption})
            else:
                yield model, name, key, sweep, scalar, {}


def _menu_model():
    return all_models(n=8)[-2]


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _seconds(value) -> float:
    return value.expected if isinstance(value, GatherPrediction) else float(value)


def compute_golden() -> dict:
    """The document stored in ``golden_formulas.json``."""
    sizes = np.array(SIZES)
    core: dict = {}
    for model, name, key, sweep, _scalar, kwargs in _core_cases():
        core.setdefault(name, {})[key] = _hex(sweep(model, sizes, **kwargs))
    model = _menu_model()
    menu = {
        f"{operation}/{algorithm}": _hex(
            predict_collective_sweep(model, operation, algorithm, sizes)
        )
        for operation, algorithm in sorted(_PREDICTORS)
    }
    return {"sizes": SIZES, "core": core, "menu": menu}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_formula():
    golden = _golden()
    assert golden["sizes"] == SIZES
    assert len(golden["core"]) == 7
    assert sum(len(rows) for rows in golden["core"].values()) == 7 * 4 + 2 * 2
    assert len(golden["menu"]) == len(_PREDICTORS) == 10


def test_core_formulas_match_golden_values():
    golden = _golden()["core"]
    sizes = np.array(SIZES)
    for model, name, key, sweep, scalar, kwargs in _core_cases():
        expected = golden[name][key]
        assert _hex(sweep(model, sizes, **kwargs)) == expected, (name, key)
        one_size = [_seconds(scalar(model, m, **kwargs)) for m in SIZES]
        assert _hex(one_size) == expected, (name, key, "scalar")


def test_menu_formulas_match_golden_values():
    golden = _golden()["menu"]
    model = _menu_model()
    sizes = np.array(SIZES)
    for operation, algorithm in sorted(_PREDICTORS):
        expected = golden[f"{operation}/{algorithm}"]
        sweep = predict_collective_sweep(model, operation, algorithm, sizes)
        assert _hex(sweep) == expected, (operation, algorithm)
        one_size = [predict_collective(model, operation, algorithm, m) for m in SIZES]
        assert _hex(one_size) == expected, (operation, algorithm, "scalar")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
