"""Heterogeneous processor-to-tree-node mapping (paper Sec. I, Hatta [5]).

On a heterogeneous cluster, a collective's communication tree shape is
fixed by the algorithm, but *which processor sits at which tree node* is
free — and a heterogeneous model can rank mappings, whereas a homogeneous
model predicts the same time for all of them (the paper's motivation for
heterogeneous models).  We search the permutation space with the
predicted time as the objective: exhaustively for tiny clusters, else by
steepest-descent pairwise swaps from the identity mapping.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Optional

from repro.models.collectives.formulas import lmo_serial_parallel_split
from repro.models.collectives.tree_eval import predict_tree_time_batch
from repro.models.collectives.trees import CommTree
from repro.models.lmo_extended import ExtendedLMOModel

__all__ = ["MappingResult", "predict_mapped_time", "optimize_mapping"]


class MappingResult:
    """Outcome of a mapping search."""

    def __init__(self, perm: list[int], tree: CommTree, predicted: float, evaluations: int):
        self.perm = perm
        self.tree = tree
        self.predicted = predicted
        self.evaluations = evaluations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MappingResult(predicted={self.predicted:.6f}, perm={self.perm})"


def predict_mapped_time(
    model: ExtendedLMOModel, tree: CommTree, nbytes: float, perm: list[int]
) -> float:
    """Predicted tree-collective time with processors remapped by ``perm``."""
    serial, parallel = lmo_serial_parallel_split(model)
    return float(predict_tree_time_batch(tree.remap(perm), nbytes, serial, parallel))


def optimize_mapping(
    model: ExtendedLMOModel,
    tree: CommTree,
    nbytes: float,
    fixed_root: bool = True,
    exhaustive_limit: int = 7,
    max_rounds: int = 50,
    predictor: Optional[Callable[[CommTree], float]] = None,
) -> MappingResult:
    """Find a low-predicted-time processor permutation for ``tree``.

    Parameters
    ----------
    fixed_root:
        Keep the data root where it is (usual in practice: the root owns
        the data); only non-root positions are permuted.
    exhaustive_limit:
        Up to this many ranks, enumerate all permutations; beyond it, use
        steepest-descent pairwise swaps (local optimum).
    predictor:
        Custom objective ``tree -> predicted time`` (defaults to the
        extended-LMO tree evaluation).
    """
    n = tree.n
    if predictor is None:
        serial, parallel = lmo_serial_parallel_split(model)

        def predictor(candidate: CommTree) -> float:
            return float(predict_tree_time_batch(candidate, nbytes, serial, parallel))

    evaluations = 0

    def evaluate(perm: list[int]) -> float:
        nonlocal evaluations
        evaluations += 1
        return predictor(tree.remap(perm))

    identity = list(range(n))
    movable = [v for v in identity if not (fixed_root and v == tree.root)]

    if n <= exhaustive_limit:
        best_perm, best_time = identity[:], evaluate(identity)
        for arrangement in permutations(movable):
            perm = identity[:]
            for position, value in zip(movable, arrangement):
                perm[position] = value
            time = evaluate(perm)
            if time < best_time:
                best_perm, best_time = perm, time
        return MappingResult(best_perm, tree.remap(best_perm), best_time, evaluations)

    # Steepest-descent pairwise swaps.
    perm = identity[:]
    best_time = evaluate(perm)
    for _round in range(max_rounds):
        best_swap = None
        for a_idx in range(len(movable)):
            for b_idx in range(a_idx + 1, len(movable)):
                a, b = movable[a_idx], movable[b_idx]
                perm[a], perm[b] = perm[b], perm[a]
                time = evaluate(perm)
                perm[a], perm[b] = perm[b], perm[a]
                if time < best_time - 1e-15:
                    best_time = time
                    best_swap = (a, b)
        if best_swap is None:
            break
        a, b = best_swap
        perm[a], perm[b] = perm[b], perm[a]
    return MappingResult(perm, tree.remap(perm), best_time, evaluations)
