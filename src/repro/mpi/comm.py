"""Message-passing layer on the simulated cluster (mpi4py-flavoured).

Rank programs are generators.  Blocking calls are spelled
``yield from comm.send(...)`` / ``env = yield from comm.recv(...)``;
non-blocking calls return a :class:`~repro.mpi.requests.Request` whose
completion event the program can yield (mirroring mpi4py's
``isend``/``irecv`` + ``wait``).

Semantics implemented faithfully:

* **Blocking send returns at local completion** — once the sender CPU has
  handed the message to the transport — not at remote delivery.  This is
  what makes the root of a linear scatter a *pipelined* serial bottleneck,
  the effect the LMO model captures with its ``(n-1)(C_r + M t_r)`` term.
* **Rendezvous sends block until the receiver has posted a matching
  receive** (LAM's long protocol), via a credit handshake.
* **Non-overtaking**: messages between one (source, destination, tag)
  triple are matched in transmission order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Generator, Optional, Sequence

from repro.cluster.machine import SimulatedCluster
from repro.mpi.requests import Request
from repro.simlib import Event, Store

__all__ = ["Envelope", "GroupComm", "MessageLayer", "RankComm", "payload_nbytes"]

#: Tag reserved by collective algorithms.
COLL_TAG = 0x7FFF

#: Wildcards for receives (mirroring MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY_SOURCE = -1
ANY_TAG = -1


def payload_nbytes(payload: Any) -> int:
    """Wire size of a payload: ``.nbytes`` for arrays, else ``len`` bytes."""
    if payload is None:
        return 0
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    raise TypeError(
        f"cannot infer wire size of {type(payload).__name__}; pass nbytes explicitly"
    )


@dataclass
class Envelope:
    """One message in flight (metadata plus optional payload)."""

    src: int
    dst: int
    tag: int
    nbytes: int
    seq: int
    payload: Any = None


class MessageLayer:
    """Shared matching state of one communicator over a cluster."""

    def __init__(self, cluster: SimulatedCluster):
        self.cluster = cluster
        sim = cluster.sim
        n = cluster.n
        self.mailboxes = [Store(sim, f"mbox{i}") for i in range(n)]
        # Rendezvous handshake: receives grant credits, long sends consume
        # them (waiting if none available yet).
        self._rdv_credits: dict[tuple[int, int, int], int] = {}
        self._rdv_waiters: dict[tuple[int, int, int], deque[Event]] = {}
        self._seq = 0

    @property
    def size(self) -> int:
        """Communicator size (== cluster size)."""
        return self.cluster.n

    def rank_comm(self, rank: int) -> "RankComm":
        """The per-rank view used inside rank programs."""
        return RankComm(self, rank)

    def group_comm(self, members: Sequence[int], member: int) -> "GroupComm":
        """A sub-communicator over ``members`` for physical node ``member``.

        The returned communicator renumbers the group 0..len(members)-1
        (like ``MPI_Comm_split``), so every collective algorithm works on
        the subset unchanged.
        """
        return GroupComm(self, list(members), member)

    # -- rendezvous bookkeeping ------------------------------------------------
    def grant_recv_credit(self, dst: int, src: int, tag: int) -> None:
        key = (dst, src, tag)
        waiters = self._rdv_waiters.get(key)
        if waiters:
            waiters.popleft().succeed()
        else:
            self._rdv_credits[key] = self._rdv_credits.get(key, 0) + 1

    def rendezvous_gate(self, dst: int, src: int, tag: int) -> Optional[Event]:
        """Event a long send must wait on, or None if a credit is banked."""
        key = (dst, src, tag)
        if self._rdv_credits.get(key, 0) > 0:
            self._rdv_credits[key] -= 1
            return None
        evt = Event(self.cluster.sim)
        self._rdv_waiters.setdefault(key, deque()).append(evt)
        return evt

    # -- message initiation --------------------------------------------------
    def start_send(
        self, src: int, dst: int, nbytes: int, tag: int, payload: Any
    ) -> Request:
        """Launch the transport pipeline for one message.

        Returns a request whose ``sent`` event fires at local completion
        and whose ``done`` event fires at remote delivery.
        """
        cluster = self.cluster
        sim = cluster.sim
        self._seq += 1
        env = Envelope(src, dst, tag, nbytes, self._seq, payload)
        sent = Event(sim)
        gate = None
        if cluster.profile.uses_rendezvous(nbytes):
            gate = self.rendezvous_gate(dst, src, tag)
        transfer = cluster.transmit(
            src, dst, nbytes, rendezvous_ready=gate, on_sent=sent,
            mailbox=self.mailboxes[dst], envelope=env,
        )
        proc = sim.spawn(transfer, name=f"msg{env.seq}:{src}->{dst}")
        return Request(kind="send", sent=sent, done=proc, envelope=env)

    def start_recv(self, dst: int, src: int, tag: int) -> Request:
        """Post a receive; its ``done`` event fires with the envelope.

        ``src``/``tag`` may be the :data:`ANY_SOURCE`/:data:`ANY_TAG`
        wildcards.  Wildcard receives cannot pre-grant rendezvous credits
        (the sender is unknown), so a wildcard receive matches a long
        message only once some specific receive has released it — exactly
        MPI's behaviour, where wildcard receives of rendezvous messages
        match at the protocol level, not eagerly.
        """
        if src != ANY_SOURCE and tag != ANY_TAG:
            self.grant_recv_credit(dst, src, tag)

        def matches(envelope: Envelope) -> bool:
            return (src == ANY_SOURCE or envelope.src == src) and (
                tag == ANY_TAG or envelope.tag == tag
            )

        get = self.mailboxes[dst].get(matches)
        return Request(kind="recv", sent=get, done=get)


class RankComm:
    """One rank's communicator handle (what a rank program sees).

    Mirrors the mpi4py surface where it makes sense for a simulator:
    ``rank``/``size`` attributes, blocking ``send``/``recv`` (generators),
    non-blocking ``isend``/``irecv`` (returning requests).
    """

    def __init__(self, layer: MessageLayer, rank: int):
        if not (0 <= rank < layer.size):
            raise ValueError(f"rank {rank} out of range for size {layer.size}")
        self.layer = layer
        self.rank = rank
        self._physical = rank

    @property
    def size(self) -> int:
        """Number of ranks."""
        return self.layer.size

    @property
    def physical_rank(self) -> int:
        """The underlying cluster node this rank runs on."""
        return self._physical

    @property
    def sim(self):
        """The simulator (rank programs read ``comm.sim.now`` for timing)."""
        return self.layer.cluster.sim

    # -- point-to-point -------------------------------------------------------
    def isend(
        self, dest: int, payload: Any = None, nbytes: Optional[int] = None, tag: int = 0
    ) -> Request:
        """Non-blocking send; ``yield req.sent`` for local completion."""
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        return self.layer.start_send(self.rank, dest, size, tag, payload)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive; ``env = yield req.done``.

        ``source``/``tag`` default to the wildcards (match anything).
        """
        if source == self.rank:
            raise ValueError("self-receives are not supported")
        return self.layer.start_recv(self.rank, source, tag)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Envelope]:
        """Non-blocking probe: the first matching delivered-but-unreceived
        envelope, or None (``MPI_Iprobe``).  The message stays queued."""
        return self.layer.mailboxes[self.rank].peek(
            lambda e: (source == ANY_SOURCE or e.src == source)
            and (tag == ANY_TAG or e.tag == tag)
        )

    def send(
        self, dest: int, payload: Any = None, nbytes: Optional[int] = None, tag: int = 0
    ) -> Generator:
        """Blocking send: completes when the local buffer is handed off."""
        req = self.isend(dest, payload, nbytes, tag)
        yield req.sent
        return req.envelope

    def wait(self, req: Request) -> Generator:
        """Complete a request, charging receive processing for receives.

        For a receive request this waits for delivery and then holds this
        rank's CPU for ``C + M t`` — the memcpy out of the transport
        buffer that real MPI performs inside ``MPI_Recv``/``MPI_Wait``.
        Returns the envelope.  For send requests it waits for remote
        delivery and returns the envelope.  The CPU charged is the
        physical node's, which a sub-communicator's group rank is not.
        """
        env = yield req.done
        if req.kind == "recv":
            cluster = self.layer.cluster
            node = self._physical
            cost = cluster.noisy(cluster.processing_cost(node, env.nbytes))
            cpu = cluster.cpu[node]
            usage = cpu.request()
            yield usage
            sim = cluster.sim
            start = sim.now
            try:
                yield sim.timeout(cost)
            finally:
                cpu.release(usage)
                if cluster.tracer is not None:
                    cluster.tracer.record(f"cpu{node}", start, sim.now, "r")
        return env

    def recv(self, source: int, tag: int = 0) -> Generator:
        """Blocking receive: completes after receive processing; returns
        the envelope."""
        req = self.irecv(source, tag)
        env = yield from self.wait(req)
        return env

    # -- convenience used by experiments ---------------------------------------
    def sendrecv(
        self, peer: int, nbytes: int, reply_nbytes: int, tag: int = 0
    ) -> Generator:
        """Send ``nbytes`` to ``peer`` and wait for a ``reply_nbytes`` reply."""
        yield from self.send(peer, nbytes=nbytes, tag=tag)
        env = yield from self.recv(peer, tag=tag)
        if env.nbytes != reply_nbytes:
            raise RuntimeError(
                f"rank {self.rank}: expected {reply_nbytes}-byte reply, got {env.nbytes}"
            )
        return env


class GroupComm(RankComm):
    """A sub-communicator: group ranks 0..g-1 over a subset of nodes.

    The analogue of ``MPI_Comm_split``: collectives written against
    :class:`RankComm` run on the subset unchanged, because ``rank``/
    ``size`` are group-relative and destinations are translated to
    physical nodes at the send/receive boundary.  The receive-processing
    CPU accounting in :meth:`RankComm.wait` keys off the *physical* rank,
    which :attr:`rank` here is not.
    """

    def __init__(self, layer: MessageLayer, members: list[int], member: int):
        if len(set(members)) != len(members):
            raise ValueError("group members must be distinct")
        for node in members:
            if not (0 <= node < layer.size):
                raise ValueError(f"node {node} out of range for size {layer.size}")
        if member not in members:
            raise ValueError(f"node {member} is not in the group {members}")
        super().__init__(layer, member)
        self.members = list(members)
        self._group_rank = members.index(member)

    # -- group-relative identity -------------------------------------------
    @property
    def size(self) -> int:  # type: ignore[override]
        """Group size (not the world size)."""
        return len(self.members)

    @property
    def rank(self) -> int:  # type: ignore[override]
        """Group-relative rank."""
        return self._group_rank

    @rank.setter
    def rank(self, value: int) -> None:
        # RankComm.__init__ assigns self.rank = world rank; swallow it —
        # the group identity is fixed by (members, member).
        pass

    def translate(self, group_rank: int) -> int:
        """Physical node of a group rank."""
        if not (0 <= group_rank < len(self.members)):
            raise ValueError(f"group rank {group_rank} out of range")
        return self.members[group_rank]

    # -- boundary translation -------------------------------------------------
    def isend(self, dest: int, payload: Any = None, nbytes: Optional[int] = None,
              tag: int = 0) -> Request:
        if dest == self.rank:
            raise ValueError("self-sends are not supported")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        return self.layer.start_send(
            self._physical, self.translate(dest), size, tag, payload
        )

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        if source == self.rank:
            raise ValueError("self-receives are not supported")
        physical_src = ANY_SOURCE if source == ANY_SOURCE else self.translate(source)
        return self.layer.start_recv(self._physical, physical_src, tag)
