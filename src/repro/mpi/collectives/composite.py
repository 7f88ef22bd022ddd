"""Composite large-message algorithms: van de Geijn bcast, reduce-scatter,
Rabenseifner allreduce.

The bandwidth-optimal compositions MPI implementations switch to for
large vectors — more entries of the algorithm menu that model-driven
selection (paper Fig. 6) must rank:

* **van de Geijn broadcast** — binomial *scatter* of the message's
  segments, then ring *allgather*; every byte crosses each wire once,
  unlike tree broadcasts that resend whole messages;
* **reduce-scatter** — ring exchange of partial blocks with combining,
  leaving rank ``r`` with the fully reduced block ``r``;
* **Rabenseifner allreduce** — reduce-scatter followed by ring
  allgather: ~2 M bytes per node total, versus ``log2(n) * M`` for the
  recursive-doubling butterfly.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.mpi.collectives import binomial, ring
from repro.mpi.comm import COLL_TAG, RankComm

__all__ = ["van_de_geijn_bcast", "ring_reduce_scatter", "rabenseifner_allreduce"]


def _segment_sizes(nbytes: int, parts: int) -> list[int]:
    base = nbytes // parts
    sizes = [base] * parts
    for idx in range(nbytes - base * parts):
        sizes[idx] += 1
    return sizes


def van_de_geijn_bcast(
    comm: RankComm,
    root: int,
    nbytes: int,
    payload: Any = None,
) -> Generator:
    """Broadcast as binomial scatter of segments + ring allgather.

    The message is cut into ``size`` segments; the binomial scatter moves
    each segment once down the tree, the ring allgather circulates them.
    Per-node traffic ~ ``2 M`` instead of the tree bcast's ``M log2 n``
    on the critical path — the large-message winner.
    """
    if nbytes < 0:
        raise ValueError(f"negative message size {nbytes}")
    size = comm.size
    seg_sizes = _segment_sizes(nbytes, size)
    segments = None
    if comm.rank == root and payload is not None:
        raw = bytes(payload)
        if len(raw) != nbytes:
            raise ValueError(f"payload has {len(raw)} bytes, nbytes says {nbytes}")
        segments, offset = [], 0
        for seg in seg_sizes:
            segments.append(raw[offset:offset + seg])
            offset += seg
    # Phase 1: binomial scatter of the segments (segment r to rank r).
    # binomial.scatter charges blocks * block_nbytes; segments differ by
    # at most one byte, so the average segment is the honest block size.
    block = max(1, nbytes // size)
    my_segment = yield from binomial.scatter(comm, root, block, data=segments)
    # Phase 2: ring allgather of the segments.
    gathered = yield from ring.allgather(comm, block, block=my_segment)
    if gathered is not None and all(isinstance(g, (bytes, bytearray)) for g in gathered):
        return b"".join(gathered)
    return gathered


def ring_reduce_scatter(
    comm: RankComm,
    block_nbytes: int,
    blocks: Any = None,
    combine=None,
) -> Generator:
    """Ring reduce-scatter: rank ``r`` ends with the reduced block ``r``.

    In step ``k`` each rank sends the partial it just finished combining
    to its right neighbour and receives the next one from the left; after
    ``n-1`` steps every block has visited every rank exactly once.
    ``blocks`` is this rank's list of ``n`` input blocks (one per target).
    """
    size, me = comm.size, comm.rank
    right = (me + 1) % size
    left = (me - 1) % size
    cluster = comm.layer.cluster
    # Block b starts at rank (b+1) % n carrying only that rank's own
    # contribution, moves right each step, and every host folds in its
    # contribution on arrival; after n-1 steps block b lands, fully
    # reduced, at rank b.  My first outgoing block is therefore (me-1).
    carried = None if blocks is None else blocks[(me - 1) % size]
    for step in range(size - 1):
        send_req = comm.isend(right, payload=carried, nbytes=block_nbytes,
                              tag=COLL_TAG + step)
        env = yield from comm.wait(comm.irecv(left, tag=COLL_TAG + step))
        yield send_req.sent
        incoming_idx = (me - 2 - step) % size
        mine = None if blocks is None else blocks[incoming_idx]
        cost = cluster.noisy(block_nbytes * cluster.ground_truth.t[me])
        yield from cluster.cpu[me].hold(cluster.sim, cost)
        carried = combine(env.payload, mine) if combine is not None else env.payload
    # The last fold was for block (me - 2 - (n-2)) % n == me: done.
    return carried


def rabenseifner_allreduce(
    comm: RankComm,
    nbytes: int,
    value: Any = None,
    combine=None,
) -> Generator:
    """Allreduce as ring reduce-scatter + ring allgather.

    ``value`` is this rank's full input vector, conceptually split into
    ``n`` equal blocks; ``combine`` reduces two block payloads.  For
    timing purposes blocks are ``nbytes / n`` each; the data path carries
    whatever ``value`` slices naturally (lists/arrays) or opaque values.
    """
    size = comm.size
    block = max(1, nbytes // size)

    def slice_block(vec: Any, idx: int) -> Any:
        if vec is None:
            return None
        try:
            per = len(vec) // size
            return vec[idx * per:(idx + 1) * per]
        except TypeError:
            return vec  # opaque scalar contribution

    blocks = [slice_block(value, idx) for idx in range(size)]
    reduced = yield from ring_reduce_scatter(comm, block, blocks=blocks,
                                             combine=combine)
    gathered = yield from ring.allgather(comm, block, block=reduced)
    return gathered
