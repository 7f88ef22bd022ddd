"""Run per-rank programs on the simulated cluster and time them.

The runtime is the simulator-side analogue of ``mpiexec``: it spawns one
process per rank, runs the virtual clock, and reports per-rank completion
times.  All ranks start at virtual time zero — i.e. barrier-synchronized,
the standard benchmarking discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Mapping, Optional, Sequence

from repro.cluster.machine import SimulatedCluster
from repro.mpi.comm import MessageLayer, RankComm
from repro.mpi.collectives import get_algorithm
from repro.obs import runtime as _obs

__all__ = [
    "CollectiveRun",
    "DeadlockError",
    "RankResult",
    "run_collective",
    "run_group_collective",
    "run_ranks",
]


class DeadlockError(RuntimeError):
    """Raised when rank programs cannot all complete (missing messages)."""


@dataclass
class RankResult:
    """Completion record of one rank's program."""

    rank: int
    finish: float
    value: Any


@dataclass
class CollectiveRun:
    """Timing of one collective execution.

    Attributes
    ----------
    time:
        Global completion time (max over ranks) — what an external
        observer would call the duration of the operation.
    root_time:
        The root's local completion time (sender-side timing method).
    """

    results: dict[int, RankResult]
    root: int

    @property
    def time(self) -> float:
        return max(res.finish for res in self.results.values())

    @property
    def root_time(self) -> float:
        return self.results[self.root].finish

    def value(self, rank: int) -> Any:
        """The return value of ``rank``'s program."""
        return self.results[rank].value


def run_ranks(
    cluster: SimulatedCluster,
    programs: Mapping[int, Callable[[RankComm], Generator]],
    reset: bool = True,
) -> dict[int, RankResult]:
    """Execute rank programs to completion; returns per-rank results.

    Parameters
    ----------
    programs:
        Maps ranks to program factories.  Ranks not present simply idle —
        experiments between pairs/triplets leave the rest of the cluster
        silent, exactly like the paper's estimation runs.
    reset:
        Start from a fresh virtual time zero (default).  Pass ``False``
        to continue on the current simulator (e.g. back-to-back
        repetitions with live port state).
    """
    if reset:
        cluster.reset()
    layer = MessageLayer(cluster)
    results: dict[int, RankResult] = {}

    def wrap(rank: int, factory: Callable[[RankComm], Generator]) -> Generator:
        value = yield from factory(layer.rank_comm(rank))
        results[rank] = RankResult(rank, cluster.sim.now, value)
        return value

    for rank, factory in sorted(programs.items()):
        if not (0 <= rank < cluster.n):
            raise ValueError(f"rank {rank} out of range for {cluster.n}-node cluster")
        cluster.sim.spawn(wrap(rank, factory), name=f"rank{rank}")
    # One span per kernel run; the kernel itself never imports repro.obs.
    with _obs.span("sim.run", n=cluster.n, ranks=len(programs)):
        cluster.sim.run()

    stuck = sorted(set(programs) - set(results))
    if stuck:
        raise DeadlockError(
            f"ranks {stuck} never completed: unmatched sends/receives "
            "(check sources, destinations and tags)"
        )
    return results


def run_collective(
    cluster: SimulatedCluster,
    operation: str,
    algorithm: str,
    nbytes: int,
    root: int = 0,
    data: Optional[Sequence[Any]] = None,
    **kwargs,
) -> CollectiveRun:
    """Execute one collective on all ranks and time it.

    ``nbytes`` is the per-block size for scatter/gather/allgather/alltoall
    and the full message size for bcast/reduce, matching the paper's use
    of *M* throughout.  The variable-block collectives (``scatterv``,
    ``gatherv``) take per-rank ``counts`` via keyword argument instead and
    ignore ``nbytes``.
    """
    fn = get_algorithm(operation, algorithm)

    def factory_for(rank: int) -> Callable[[RankComm], Generator]:
        def factory(comm: RankComm) -> Generator:
            if operation == "scatter":
                return fn(comm, root, nbytes, data=data, **kwargs)
            if operation == "scatterv":
                return fn(comm, root, data=data, **kwargs)
            if operation == "gather":
                block = None if data is None else data[rank]
                return fn(comm, root, nbytes, block=block, **kwargs)
            if operation == "gatherv":
                block = None if data is None else data[rank]
                return fn(comm, root, block=block, **kwargs)
            if operation in ("bcast",):
                payload = data if rank == root else None
                return fn(comm, root, nbytes, payload=payload, **kwargs)
            if operation == "reduce":
                value = None if data is None else data[rank]
                return fn(comm, root, nbytes, value=value, **kwargs)
            if operation == "allreduce":
                value = None if data is None else data[rank]
                return fn(comm, nbytes, value=value, **kwargs)
            if operation == "allgather":
                block = None if data is None else data[rank]
                return fn(comm, nbytes, block=block, **kwargs)
            if operation == "reduce_scatter":
                blocks = None if data is None else data[rank]
                return fn(comm, nbytes, blocks=blocks, **kwargs)
            if operation == "alltoall":
                return fn(comm, nbytes, **kwargs)
            if operation == "barrier":
                return fn(comm, **kwargs)
            raise KeyError(f"unknown operation {operation!r}")

        return factory

    programs = {rank: factory_for(rank) for rank in range(cluster.n)}
    results = run_ranks(cluster, programs)
    return CollectiveRun(results=results, root=root)


def run_group_collective(
    cluster: SimulatedCluster,
    members: Sequence[int],
    operation: str,
    algorithm: str,
    nbytes: int,
    root: int = 0,
    data: Optional[Sequence[Any]] = None,
    **kwargs,
) -> CollectiveRun:
    """Execute a collective on a *subset* of nodes (a sub-communicator).

    ``members`` lists the participating physical nodes; ``root`` and data
    indices are group-relative (0..len(members)-1), exactly like ranks
    after an ``MPI_Comm_split``.  Non-members idle.  The returned run is
    keyed by group rank.
    """
    fn = get_algorithm(operation, algorithm)
    members = list(members)
    if not (0 <= root < len(members)):
        raise ValueError(f"group root {root} out of range for {len(members)} members")

    def factory_for(group_rank: int) -> Callable[[RankComm], Generator]:
        physical = members[group_rank]

        def factory(world_comm: RankComm) -> Generator:
            comm = world_comm.layer.group_comm(members, physical)
            if operation == "scatter":
                return fn(comm, root, nbytes, data=data, **kwargs)
            if operation == "gather":
                block = None if data is None else data[group_rank]
                return fn(comm, root, nbytes, block=block, **kwargs)
            if operation == "bcast":
                payload = data if group_rank == root else None
                return fn(comm, root, nbytes, payload=payload, **kwargs)
            raise KeyError(
                f"group collectives support scatter/gather/bcast, not {operation!r}"
            )

        return factory

    programs = {members[g]: factory_for(g) for g in range(len(members))}
    raw = run_ranks(cluster, programs)
    results = {
        g: RankResult(g, raw[members[g]].finish, raw[members[g]].value)
        for g in range(len(members))
    }
    return CollectiveRun(results=results, root=root)
