"""Closed-form collective predictions per model — the paper's Table II.

================  =====================================================
Model             Linear scatter / gather prediction
================  =====================================================
hom. Hockney      sequential ``(n-1)(a + bM)`` or parallel ``a + bM``
het. Hockney      sequential ``sum (a_ri + b_ri M)`` or parallel ``max``
LogGP             ``L + 2o + (n-1)(M-1)G + (n-2)g``
PLogP             ``L + (n-1) g(M)``
extended LMO      scatter: formula (4); gather: formula (5) with the
                  empirical M1/M2 thresholds and escalation statistics
================  =====================================================

Traditional models predict gather and scatter identically ("Because of
the design of the Hockney model, the same formulas can be applied to the
estimation of linear gather" — Sec. II); only the LMO model distinguishes
them.

Binomial predictions use the recursion (1)/(2) via
:func:`~repro.models.collectives.tree_eval.predict_tree_time_batch`.

Each formula has one body, a ``*_sweep`` function that evaluates it over
a whole array of message sizes in one pass of NumPy ops.  The scalar
names are one-size sweeps that return a float, the way ``p2p_time``
wraps ``p2p_time_batch``; the one exception is the extended-LMO linear
gather, whose scalar form returns a :class:`GatherPrediction` built on
the same deterministic-branch sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce, singledispatch
from typing import Optional, Sequence

import numpy as np

from repro.models.base import ArrayLike, validate_nbytes_batch, validate_rank
from repro.models.collectives.tree_eval import predict_tree_time, predict_tree_time_batch
from repro.models.collectives.trees import CommTree, binomial_tree, flat_tree
from repro.models.hockney import HeterogeneousHockneyModel, HockneyModel
from repro.models.loggp import LogGPModel
from repro.models.logp import LogPModel
from repro.models.lmo import LMOModel
from repro.models.lmo_extended import ExtendedLMOModel
from repro.models.plogp import PLogPModel

__all__ = [
    "GatherPrediction",
    "predict_linear_scatter",
    "predict_linear_scatter_sweep",
    "predict_linear_scatterv",
    "predict_linear_gather",
    "predict_linear_gather_sweep",
    "predict_linear_gatherv",
    "predict_binomial_scatter",
    "predict_binomial_scatter_sweep",
    "predict_binomial_scatterv",
    "predict_binomial_gather",
    "predict_binomial_gather_sweep",
    "lmo_serial_parallel_split",
]

SEQUENTIAL = "sequential"
PARALLEL = "parallel"


@dataclass(frozen=True)
class GatherPrediction:
    """LMO's linear-gather prediction (paper formula (5)).

    ``base`` is the deterministic branch value; in the *medium* regime the
    model additionally reports the escalation probability and magnitude —
    the empirical part of the LMO model.
    """

    base: float
    regime: str
    escalation_probability: float = 0.0
    escalation_value: float = 0.0

    @property
    def expected(self) -> float:
        """Expected execution time including expected escalation cost."""
        return self.base + self.escalation_probability * self.escalation_value

    def __float__(self) -> float:  # pragma: no cover - convenience
        return float(self.expected)


def _others(model, root: int, participants: Optional[Sequence[int]]) -> list[int]:
    """The validated non-root participants (every rank when ``None``)."""
    ranks = list(range(model.n)) if participants is None else list(participants)
    validate_rank(model.n, root, *ranks)
    if root not in ranks:
        raise ValueError(f"root {root} not among participants {ranks}")
    if len(set(ranks)) != len(ranks):
        raise ValueError("duplicate participants")
    others = [i for i in ranks if i != root]
    if not others:
        raise ValueError(f"participants {ranks} include no rank besides the root")
    return others


def _max_over(terms) -> np.ndarray:
    """Element-wise maximum of a sequence of cost arrays."""
    return reduce(np.maximum, terms)


def _sum_over(terms) -> np.ndarray:
    """Element-wise sum of a sequence of cost arrays, left to right (the
    order fixes the rounding, so it is part of the formula's value)."""
    return reduce(np.add, terms)


# ===================================================================== scatter
@singledispatch
def predict_linear_scatter_sweep(
    model,
    sizes: ArrayLike,
    root: int = 0,
    participants: Optional[Sequence[int]] = None,
    assumption: str = SEQUENTIAL,
) -> np.ndarray:
    """Predicted linear-scatter times for an array of block sizes (Table II)."""
    raise TypeError(f"no linear-scatter formula for {type(model).__name__}")


@predict_linear_scatter_sweep.register
def _(model: HockneyModel, sizes, root=0, participants=None, assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    others = _others(model, root, participants)
    per_message = model.alpha + model.beta * nb
    if assumption == SEQUENTIAL:
        return len(others) * per_message
    if assumption == PARALLEL:
        return per_message.copy()
    raise ValueError(f"unknown assumption {assumption!r}")


@predict_linear_scatter_sweep.register
def _(model: HeterogeneousHockneyModel, sizes, root=0, participants=None,
      assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    terms = [model.p2p_time_batch(root, i, nb) for i in _others(model, root, participants)]
    if assumption == SEQUENTIAL:
        return _sum_over(terms)
    if assumption == PARALLEL:
        return _max_over(terms)
    raise ValueError(f"unknown assumption {assumption!r}")


@predict_linear_scatter_sweep.register
def _(model: LogGPModel, sizes, root=0, participants=None, assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    n = len(_others(model, root, participants)) + 1
    return (
        model.L
        + 2 * model.o
        + (n - 1) * np.maximum(nb - 1, 0) * model.G
        + (n - 2) * model.g
    )


@predict_linear_scatter_sweep.register
def _(model: LogPModel, sizes, root=0, participants=None, assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    n = len(_others(model, root, participants)) + 1
    # LogP's large-message story: (n-1) packet trains back to back.
    packets = model.packets_batch(nb)
    return model.L + 2 * model.o + ((n - 1) * packets - 1) * model.g


@predict_linear_scatter_sweep.register
def _(model: PLogPModel, sizes, root=0, participants=None, assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    n = len(_others(model, root, participants)) + 1
    return model.L + (n - 1) * model.g.batch(nb)


@predict_linear_scatter_sweep.register
def _(model: LMOModel, sizes, root=0, participants=None, assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    others = _others(model, root, participants)
    serial = len(others) * (model.C[root] + nb * model.t[root])
    return serial + _max_over(
        nb / model.beta[root, i] + model.C[i] + nb * model.t[i] for i in others
    )


@predict_linear_scatter_sweep.register
def _(model: ExtendedLMOModel, sizes, root=0, participants=None, assumption=SEQUENTIAL):
    nb = validate_nbytes_batch(sizes)
    others = _others(model, root, participants)
    serial = len(others) * model.send_cost_batch(root, nb)
    return serial + _max_over(model.wire_and_remote_cost_batch(root, i, nb) for i in others)


def predict_linear_scatter(
    model,
    nbytes: float,
    root: int = 0,
    participants: Optional[Sequence[int]] = None,
    assumption: str = SEQUENTIAL,
) -> float:
    """Predicted linear-scatter time for ``nbytes`` blocks (Table II)."""
    return float(predict_linear_scatter_sweep(model, nbytes, root, participants, assumption))


# ====================================================================== gather
def _lmo_gather_base(model: ExtendedLMOModel, sizes, root, participants) -> np.ndarray:
    """Deterministic branch of formula (5): the max over senders, or the
    sum above the empirical threshold ``M2``."""
    nb = validate_nbytes_batch(sizes)
    others = _others(model, root, participants)
    serial = len(others) * model.send_cost_batch(root, nb)
    # Direction matters: senders i feed the root, so each parallel term
    # carries the *sender's* processor cost C_i + M t_i plus the wire.
    terms = [
        model.L[root, i] + nb / model.beta[root, i] + model.C[i] + nb * model.t[i]
        for i in others
    ]
    irr = model.gather_irregularity
    if irr is None:
        return serial + _max_over(terms)
    return np.where(nb > irr.m2, serial + _sum_over(terms), serial + _max_over(terms))


def predict_linear_gather_sweep(
    model,
    sizes: ArrayLike,
    root: int = 0,
    participants: Optional[Sequence[int]] = None,
    assumption: str = SEQUENTIAL,
) -> np.ndarray:
    """Predicted linear-gather times for an array of block sizes (Table II).

    Traditional models reuse the scatter formula.  For the extended LMO
    model each element is ``float(GatherPrediction)``: the deterministic
    branch of formula (5) for its regime plus the expected escalation
    cost in the medium regime.
    """
    if not isinstance(model, ExtendedLMOModel):
        return predict_linear_scatter_sweep(model, sizes, root, participants, assumption)
    base = _lmo_gather_base(model, sizes, root, participants)
    irr = model.gather_irregularity
    if irr is None:
        return base
    return base + irr.escalation_probability_batch(sizes) * irr.escalation_value


def predict_linear_gather(
    model,
    nbytes: float,
    root: int = 0,
    participants: Optional[Sequence[int]] = None,
    assumption: str = SEQUENTIAL,
):
    """Predicted linear-gather time (Table II).

    Traditional models return the same value as scatter (a float); the
    extended LMO model returns a :class:`GatherPrediction` implementing
    formula (5), including the empirical medium-regime statistics.
    """
    if not isinstance(model, ExtendedLMOModel):
        return predict_linear_scatter(model, nbytes, root, participants, assumption)
    base = float(_lmo_gather_base(model, nbytes, root, participants))
    irr = model.gather_irregularity
    if irr is None:
        return GatherPrediction(base=base, regime="small")
    regime = irr.regime(nbytes)
    return GatherPrediction(
        base=base,
        regime=regime,
        escalation_probability=irr.escalation_probability(nbytes),
        escalation_value=irr.escalation_value if regime == "medium" else 0.0,
    )


# ==================================================================== binomial
def lmo_serial_parallel_split(model: ExtendedLMOModel):
    """The extended-LMO cost split used by tree predictions: the sender's
    ``C_i + M t_i`` is serialized, the wire and receiver run in parallel."""

    def serial(i: int, _j: int, nbytes):
        return model.send_cost_batch(i, nbytes)

    def parallel(i: int, j: int, nbytes):
        return model.wire_and_remote_cost_batch(i, j, nbytes)

    return serial, parallel


def _no_overlap(_i: int, _j: int, nbytes) -> np.ndarray:
    return np.zeros(np.shape(nbytes))


def predict_binomial_scatter_sweep(
    model,
    sizes: ArrayLike,
    root: int = 0,
    n: Optional[int] = None,
    tree: Optional[CommTree] = None,
) -> np.ndarray:
    """Binomial scatter times via the paper's recursion (1)/(2).

    Traditional models charge whole point-to-point times serially along
    the tree; the extended LMO model serializes only sender CPU costs.
    """
    nb = validate_nbytes_batch(sizes)
    if tree is None:
        tree = binomial_tree(model.n if n is None else n, root)
    if isinstance(model, ExtendedLMOModel):
        serial, parallel = lmo_serial_parallel_split(model)
    else:
        serial, parallel = model.p2p_time_batch, _no_overlap
    return predict_tree_time_batch(tree, nb, serial, parallel)


def predict_binomial_gather_sweep(
    model,
    sizes: ArrayLike,
    root: int = 0,
    n: Optional[int] = None,
    tree: Optional[CommTree] = None,
) -> np.ndarray:
    """Binomial gather: the scatter recursion over the reversed tree.

    The deterministic branch of the paper's formula (1) is symmetric under
    time reversal (sums stay sums, maxima stay maxima), so the scatter
    evaluation applies; for the extended LMO model the serialized part
    of each arc is the parent's CPU, which now receives.
    """
    return predict_binomial_scatter_sweep(model, sizes, root=root, n=n, tree=tree)


def predict_binomial_scatter(
    model,
    nbytes: float,
    root: int = 0,
    n: Optional[int] = None,
    tree: Optional[CommTree] = None,
) -> float:
    """One-size :func:`predict_binomial_scatter_sweep`."""
    return float(predict_binomial_scatter_sweep(model, nbytes, root, n, tree))


def predict_binomial_gather(
    model,
    nbytes: float,
    root: int = 0,
    n: Optional[int] = None,
    tree: Optional[CommTree] = None,
) -> float:
    """One-size :func:`predict_binomial_gather_sweep`."""
    return float(predict_binomial_gather_sweep(model, nbytes, root, n, tree))


# ==================================================================== scatterv
@singledispatch
def predict_linear_scatterv(
    model,
    counts: Sequence[float],
    root: int = 0,
) -> float:
    """Predicted linear-scatterv time for per-rank byte ``counts``.

    The natural generalization of the Table II linear formulas to
    variable block sizes (the basis of heterogeneous data partitioning):
    the root's serial part accumulates every non-root block, the parallel
    part is the max over per-destination wire+receiver terms.
    """
    raise TypeError(f"no linear-scatterv formula for {type(model).__name__}")


def _check_counts(model, counts: Sequence[float], root: int) -> list[float]:
    counts = list(counts)
    if len(counts) != model.n:
        raise ValueError(f"counts must have {model.n} entries")
    if any(c < 0 for c in counts):
        raise ValueError("negative counts")
    validate_rank(model.n, root)
    return counts


@predict_linear_scatterv.register
def _(model: ExtendedLMOModel, counts, root=0):
    counts = _check_counts(model, counts, root)
    others = [i for i in range(model.n) if i != root and counts[i] > 0]
    if not others:
        return 0.0
    serial = sum(model.send_cost(root, counts[i]) for i in others)
    parallel = max(model.wire_and_remote_cost(root, i, counts[i]) for i in others)
    return float(serial + parallel)


@predict_linear_scatterv.register
def _(model: HeterogeneousHockneyModel, counts, root=0):
    counts = _check_counts(model, counts, root)
    return float(
        sum(
            model.p2p_time(root, i, counts[i])
            for i in range(model.n)
            if i != root and counts[i] > 0
        )
    )


@predict_linear_scatterv.register
def _(model: HockneyModel, counts, root=0):
    counts = _check_counts(model, counts, root)
    return float(
        sum(
            model.alpha + model.beta * counts[i]
            for i in range(model.n)
            if i != root and counts[i] > 0
        )
    )


def predict_linear_gatherv(model, counts: Sequence[float], root: int = 0) -> float:
    """Predicted linear-gatherv time (deterministic branch).

    For the extended LMO model the per-sender processor costs enter the
    parallel term; traditional models reuse the scatterv formula, exactly
    as their fixed-size gather reuses scatter.
    """
    if isinstance(model, ExtendedLMOModel):
        counts = _check_counts(model, counts, root)
        others = [i for i in range(model.n) if i != root and counts[i] > 0]
        if not others:
            return 0.0
        serial = sum(model.send_cost(root, counts[i]) for i in others)
        parallel = max(
            float(
                model.L[root, i]
                + counts[i] / model.beta[root, i]
                + model.C[i]
                + counts[i] * model.t[i]
            )
            for i in others
        )
        return float(serial + parallel)
    return predict_linear_scatterv(model, counts, root)


def predict_linear_pipelined(model: ExtendedLMOModel, nbytes: float, root: int = 0) -> float:
    """Pipeline-exact linear scatter for LMO (flat tree through the
    generic evaluator) — a refinement of formula (4) that accounts for
    early transfers overlapping later send slots."""
    serial, parallel = lmo_serial_parallel_split(model)
    return predict_tree_time(flat_tree(model.n, root), nbytes, serial, parallel)


def predict_binomial_scatterv(
    model: ExtendedLMOModel,
    counts: Sequence[float],
    root: int = 0,
    tree=None,
) -> float:
    """Binomial scatterv: the recursion (1) with per-sub-tree byte sums."""
    from repro.models.collectives.trees import binomial_tree

    counts = _check_counts(model, counts, root)
    if tree is None:
        tree = binomial_tree(model.n, root)

    volume = {
        rank: sum(counts[r] for r in tree.subtree_ranks(rank))
        for rank in range(model.n)
    }

    def serial(i: int, j: int, _b: float) -> float:
        return model.send_cost(i, volume[j]) if volume[j] > 0 else 0.0

    def parallel(i: int, j: int, _b: float) -> float:
        return model.wire_and_remote_cost(i, j, volume[j]) if volume[j] > 0 else 0.0

    return predict_tree_time(tree, 1.0, serial, parallel)
