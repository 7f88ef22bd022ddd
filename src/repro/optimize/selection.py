"""Model-driven algorithm selection (paper Fig. 6).

MPI implementations switch between collective algorithms by message size.
The paper shows the switch decision is only as good as the model behind
it: for 100 KB < M < 200 KB scatter on the Table I cluster, the
heterogeneous Hockney model predicts binomial < linear (wrong — it
serializes wire time the switch parallelizes, penalizing the linear
algorithm's n-1 transfers far too much), while the LMO model correctly
picks the linear algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.predict_service import predict_sweep

__all__ = [
    "AlgorithmChoice",
    "predict_algorithms",
    "select_algorithm",
    "crossover_size",
]


@dataclass(frozen=True)
class AlgorithmChoice:
    """The model's verdict for one (operation, size)."""

    operation: str
    nbytes: int
    predictions: dict[str, float]

    @property
    def best(self) -> str:
        return min(self.predictions, key=self.predictions.__getitem__)


def _predict(model, operation: str, algorithm: str, nbytes: int, root: int) -> float:
    # All predictions flow through the batched service: scatter/gather
    # for every model, the wider menu (bcast / allgather / allreduce)
    # for the extended LMO model only.
    try:
        return float(predict_sweep(model, operation, algorithm, float(nbytes), root=root))
    except (KeyError, AttributeError, TypeError):
        raise KeyError(f"no prediction for {operation}/{algorithm}") from None


def predict_algorithms(
    model,
    operation: str,
    nbytes: int,
    root: int = 0,
    algorithms: Sequence[str] = ("linear", "binomial"),
) -> AlgorithmChoice:
    """Predict every candidate algorithm's time under ``model``.

    Routed through :mod:`repro.predict_service`, so repeated menu
    evaluations at the same sizes hit the sweep cache.
    """
    predictions = {
        algorithm: _predict(model, operation, algorithm, nbytes, root)
        for algorithm in algorithms
    }
    return AlgorithmChoice(operation=operation, nbytes=nbytes, predictions=predictions)


def select_algorithm(
    model,
    operation: str,
    nbytes: int,
    root: int = 0,
    algorithms: Sequence[str] = ("linear", "binomial"),
) -> str:
    """The algorithm the model recommends for this message size."""
    return predict_algorithms(model, operation, nbytes, root, algorithms).best


def crossover_size(
    model,
    operation: str = "scatter",
    lo: int = 64,
    hi: int = 1 << 21,
    root: int = 0,
    algorithms: tuple[str, str] = ("binomial", "linear"),
) -> Optional[int]:
    """Message size where the recommendation flips from ``algorithms[0]``
    to ``algorithms[1]`` (bisection; None if it never flips in range)."""
    first, second = algorithms

    def pick(nbytes: int) -> str:
        return select_algorithm(model, operation, nbytes, root, algorithms)

    if pick(lo) != first or pick(hi) != second:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pick(mid) == first:
            lo = mid
        else:
            hi = mid
    return hi
