"""Central batched prediction service.

Everything that wants a predicted communication time — the CLI, the
benchmark suite, the experiments, the optimizer — routes through this
module, so there is exactly one cache and one code path for turning a
(model, collective, size) request into seconds.

Two entry points:

* :func:`predict_sweep` — one collective, a whole array of message
  sizes, evaluated by the vectorized formulas of
  :mod:`repro.models.collectives` in one pass of NumPy ops;
* :func:`predict_many` — a heterogeneous batch of
  :class:`PredictRequest` objects, grouped by (operation, algorithm,
  root) and dispatched to :func:`predict_sweep` per group.

Results are memoized in an LRU cache keyed on the *model fingerprint*
(a content hash of the serialized parameters — models are frozen
dataclasses holding arrays, so identity is by value, not by object),
the collective, the root, and the requested sizes.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs import runtime as _obs

from repro.models.base import ArrayLike, validate_nbytes_batch
from repro.models.collectives.formulas import (
    predict_binomial_gather_sweep,
    predict_binomial_scatter_sweep,
    predict_linear_gather_sweep,
    predict_linear_scatter_sweep,
)
from repro.models.collectives.formulas_ext import _PREDICTORS, predict_collective_sweep

__all__ = [
    "PREDICTION_MENU",
    "PredictRequest",
    "available_algorithms",
    "cache_info",
    "clear_cache",
    "model_fingerprint",
    "model_label",
    "predict_many",
    "predict_one",
    "predict_sweep",
]

#: Collectives every model supports, via the Table II formulas.
_CORE_SWEEPS = {
    ("scatter", "linear"): predict_linear_scatter_sweep,
    ("scatter", "binomial"): predict_binomial_scatter_sweep,
    ("gather", "linear"): predict_linear_gather_sweep,
    ("gather", "binomial"): predict_binomial_gather_sweep,
}

#: Every predictable (operation, algorithm) pair in menu order: the
#: collectives every model supports, then the extended-LMO menu.
PREDICTION_MENU = (*_CORE_SWEEPS, *_PREDICTORS)

_CACHE_MAXSIZE = 256
_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0


@dataclass(frozen=True)
class PredictRequest:
    """One prediction request for :func:`predict_many`.

    ``operation="p2p"`` predicts a point-to-point transfer from ``root``
    to ``dest``; every other operation is a collective rooted at
    ``root`` (``dest`` unused).
    """

    operation: str
    algorithm: str
    nbytes: float
    root: int = 0
    dest: Optional[int] = None


def model_fingerprint(model) -> str:
    """Content hash identifying a model's type and parameter values.

    Memoized on the instance (models are frozen/immutable), so repeated
    cache lookups don't re-serialize the parameter arrays.
    """
    cached = model.__dict__.get("_repro_fingerprint")
    if cached is not None:
        return cached
    doc = {"model": type(model).__name__, "params": model.to_dict()}
    digest = hashlib.sha1(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    # Plain __dict__ write: works on frozen dataclasses (same mechanism
    # as functools.cached_property).
    model.__dict__["_repro_fingerprint"] = digest
    return digest


def model_label(model) -> str:
    """Short, stable, human-readable identity for one model instance.

    ``<class>:<fingerprint prefix>`` — distinct parameter values get
    distinct labels, so residual scorecards keyed on it never mix a
    re-estimated model with its predecessor.  Used by
    :func:`repro.api.measure` when the caller passes models without
    naming them.
    """
    return f"{type(model).__name__}:{model_fingerprint(model)[:8]}"


def available_algorithms(model) -> list[tuple[str, str]]:
    """All (operation, algorithm) pairs predictable for ``model``."""
    pairs = [("p2p", "direct")] + sorted(_CORE_SWEEPS)
    if type(model).__name__ == "ExtendedLMOModel":
        pairs += sorted(_PREDICTORS)
    return pairs


def clear_cache() -> None:
    """Drop all memoized sweeps (e.g. after re-estimating models)."""
    global _hits, _misses, _evictions
    _cache.clear()
    _hits = 0
    _misses = 0
    _evictions = 0


def cache_info() -> dict:
    """Hit/miss/eviction/size counters of the sweep cache."""
    return {"hits": _hits, "misses": _misses, "evictions": _evictions,
            "size": len(_cache), "maxsize": _CACHE_MAXSIZE}


def _compute_sweep(model, operation, algorithm, sizes, root, kwargs):
    if operation == "p2p":
        if algorithm != "direct":
            raise KeyError(f"no predictor for p2p/{algorithm}; available: p2p/direct")
        dest = kwargs.get("dest")
        if dest is None:
            raise ValueError("p2p prediction needs dest")
        return model.p2p_time_batch(root, dest, sizes)
    core = _CORE_SWEEPS.get((operation, algorithm))
    if core is not None:
        return core(model, sizes, root=root, **kwargs)
    if (operation, algorithm) not in available_algorithms(model):
        raise KeyError(
            f"no predictor for {operation}/{algorithm} with {type(model).__name__}"
        )
    return predict_collective_sweep(model, operation, algorithm, sizes, root=root, **kwargs)


def predict_sweep(
    model,
    operation: str,
    algorithm: str,
    sizes: ArrayLike,
    root: int = 0,
    **kwargs,
) -> np.ndarray:
    """Predicted times for one collective over an array of message sizes.

    The result is memoized; the returned array is a copy, safe to
    mutate.  Extra ``kwargs`` (e.g. ``segment_nbytes`` for pipelined
    bcast, ``dest`` for p2p) become part of the cache key, list and
    array values (``participants``) as tuples.
    """
    global _hits, _misses, _evictions
    tel = _obs.ACTIVE
    start = time.perf_counter() if tel is not None else 0.0
    nb = validate_nbytes_batch(sizes)
    key = (
        model_fingerprint(model),
        operation,
        algorithm,
        root,
        nb.shape,
        nb.tobytes(),
        tuple(sorted(
            (name, tuple(value) if isinstance(value, (list, np.ndarray)) else value)
            for name, value in kwargs.items()
        )),
    )
    hit = _cache.get(key)
    if hit is not None:
        _hits += 1
        _cache.move_to_end(key)
        if tel is not None:
            tel.registry.counter(
                "predict_cache_total", help="sweep cache lookups", result="hit"
            ).inc()
        return hit.copy()
    _misses += 1
    result = np.asarray(_compute_sweep(model, operation, algorithm, nb, root, kwargs),
                        dtype=float)
    _cache[key] = result
    if len(_cache) > _CACHE_MAXSIZE:
        _cache.popitem(last=False)
        _evictions += 1
        if tel is not None:
            tel.registry.counter(
                "predict_cache_evictions_total", help="sweep cache LRU evictions"
            ).inc()
    if tel is not None:
        tel.registry.counter(
            "predict_cache_total", help="sweep cache lookups", result="miss"
        ).inc()
        tel.registry.histogram(
            "predict_sweep_batch_size", help="sizes per sweep evaluation",
            lo=0, hi=20,
        ).observe(float(nb.size))
        tel.registry.histogram(
            "predict_sweep_seconds", help="wall latency of one uncached sweep"
        ).observe(time.perf_counter() - start)
    return result.copy()


def predict_one(
    model, operation: str, algorithm: str, nbytes: float, root: int = 0, **kwargs
) -> float:
    """Scalar convenience wrapper over :func:`predict_sweep`."""
    return float(predict_sweep(model, operation, algorithm, nbytes, root=root, **kwargs))


def predict_many(model, requests: Sequence[PredictRequest]) -> np.ndarray:
    """Predicted times for a heterogeneous batch of requests.

    Requests are grouped by (operation, algorithm, root, dest) and each
    group is evaluated as one vectorized sweep; the output array matches
    the input order.
    """
    out = np.empty(len(requests), dtype=float)
    groups: "OrderedDict[tuple, tuple[list[int], list[float]]]" = OrderedDict()
    for idx, req in enumerate(requests):
        key = (req.operation, req.algorithm, req.root, req.dest)
        indices, sizes = groups.setdefault(key, ([], []))
        indices.append(idx)
        sizes.append(req.nbytes)
    for (operation, algorithm, root, dest), (indices, sizes) in groups.items():
        kwargs = {"dest": dest} if operation == "p2p" else {}
        values = predict_sweep(model, operation, algorithm, np.asarray(sizes, dtype=float),
                               root=root, **kwargs)
        out[np.asarray(indices)] = values
    return out
