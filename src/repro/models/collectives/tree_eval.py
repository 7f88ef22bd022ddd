"""Generic evaluator of tree-structured collective predictions.

The paper's recursive binomial formula (1)/(2) has the shape

    T(node) = serial(node -> first child)
              + max( T(node without that child), parallel(...) + T(child) )

i.e. each transfer splits into a *serialized* part (charged on the sender,
one after another) and a *parallelizable* part (network + receiver,
overlapping everything later).  Different models draw that line
differently:

* Hockney / LogGP / PLogP put the whole point-to-point cost in the serial
  part (they cannot split it — their parameters mix the contributions);
* the extended LMO model serializes only ``C_i + M t_i`` and parallelizes
  ``L_ij + M/beta_ij + C_j + M t_j``.

:func:`predict_tree_time_batch` implements the recursion for any
:class:`~repro.models.collectives.trees.CommTree` over a whole array of
block sizes — binomial trees give the paper's formulas (1)-(2); flat
trees give the *pipelined* variant of the linear formulas.
:func:`predict_tree_time` is its one-size form.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.models.base import ArrayLike, validate_nbytes_batch
from repro.models.collectives.trees import CommTree

__all__ = ["predict_tree_time", "predict_tree_time_batch"]

BatchCostFn = Callable[[int, int, np.ndarray], np.ndarray]


def predict_tree_time_batch(
    tree: CommTree,
    block_nbytes: ArrayLike,
    serial_cost: BatchCostFn,
    parallel_cost: BatchCostFn,
) -> np.ndarray:
    """Makespans of a tree collective under a serial/parallel cost split.

    Parameters
    ----------
    tree:
        The communication tree; each arc carries ``blocks * block_nbytes``
        bytes.
    block_nbytes:
        One block size or an array of them.
    serial_cost / parallel_cost:
        ``f(sender, receiver, nbytes)`` — the serialized (sender-side) and
        parallelizable (network + receiver) parts of one transfer, given
        the per-arc byte array and returning the matching cost array.

    Notes
    -----
    The recursion is evaluated once per tree *node* instead of once per
    (node, size), so a 200-point message-size sweep costs one tree walk
    of NumPy ops — the hot path of the batched prediction engine.  The
    chain ``serial + max(rest, parallel + subtree)`` is evaluated
    right-to-left over each node's children.

    For scatter the recursion reads top-down; by symmetry of max/sum the
    same value is the paper's gather estimate over the reversed tree, so
    no separate gather evaluator is needed for the deterministic branch.
    """
    nb = validate_nbytes_batch(block_nbytes)

    def subtree(rank: int) -> np.ndarray:
        acc = np.zeros(nb.shape)
        for child, blocks in reversed(tree.children[rank]):
            arc_nbytes = blocks * nb
            acc = serial_cost(rank, child, arc_nbytes) + np.maximum(
                acc, parallel_cost(rank, child, arc_nbytes) + subtree(child)
            )
        return acc

    return np.broadcast_to(subtree(tree.root), nb.shape).copy()


def predict_tree_time(
    tree: CommTree,
    block_nbytes: float,
    serial_cost: BatchCostFn,
    parallel_cost: BatchCostFn,
) -> float:
    """One-size :func:`predict_tree_time_batch`: the makespan as a float."""
    return float(predict_tree_time_batch(tree, block_nbytes, serial_cost, parallel_cost))
