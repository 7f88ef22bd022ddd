"""Collective algorithms over the simulated cluster.

The registry maps ``(operation, algorithm)`` names to rank-program
factories, mirroring how MPI implementations select among algorithms —
the decision the paper shows must be driven by an accurate model (Fig. 6).
"""

from typing import Callable

from repro.mpi.collectives import advanced, binomial, composite, linear, ring

__all__ = ["ALGORITHMS", "VARIABLE_BLOCK", "advanced", "binomial", "composite", "linear", "ring",
           "get_algorithm"]

#: (operation, algorithm) -> rank-program generator function.
ALGORITHMS: dict[tuple[str, str], Callable] = {
    ("scatter", "linear"): linear.scatter,
    ("scatter", "binomial"): binomial.scatter,
    ("scatterv", "linear"): linear.scatterv,
    ("scatterv", "binomial"): binomial.scatterv,
    ("gather", "linear"): linear.gather,
    ("gather", "binomial"): binomial.gather,
    ("gatherv", "linear"): linear.gatherv,
    ("bcast", "linear"): linear.bcast,
    ("bcast", "binomial"): binomial.bcast,
    ("bcast", "pipeline"): advanced.pipeline_bcast,
    ("bcast", "van_de_geijn"): composite.van_de_geijn_bcast,
    ("reduce", "linear"): linear.reduce,
    ("reduce", "binomial"): binomial.reduce,
    ("alltoall", "linear"): linear.alltoall,
    ("allgather", "ring"): ring.allgather,
    ("allgather", "recursive_doubling"): advanced.recursive_doubling_allgather,
    ("allreduce", "recursive_doubling"): advanced.recursive_doubling_allreduce,
    ("allreduce", "reduce_bcast"): advanced.reduce_bcast_allreduce,
    ("allreduce", "rabenseifner"): composite.rabenseifner_allreduce,
    ("reduce_scatter", "ring"): composite.ring_reduce_scatter,
    ("barrier", "binomial"): binomial.barrier,
}

#: Operations that take per-rank ``counts`` instead of one block size.
VARIABLE_BLOCK = frozenset({"scatterv", "gatherv"})


def get_algorithm(operation: str, algorithm: str) -> Callable:
    """Look up a collective implementation, with a helpful error."""
    try:
        return ALGORITHMS[(operation, algorithm)]
    except KeyError:
        known = sorted(f"{op}/{algo}" for op, algo in ALGORITHMS)
        raise KeyError(
            f"unknown collective {operation}/{algorithm}; available: {', '.join(known)}"
        ) from None
