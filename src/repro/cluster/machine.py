"""The simulated single-switch cluster: CPUs, switch ports, transport.

:class:`SimulatedCluster` glues the DES kernel to the cluster ground truth
and an MPI/TCP profile.  It exposes the *hardware mechanisms* the paper's
models try to capture:

* one CPU resource per node — message processing (``C_i + M t_i``) on a
  node serializes, which is why the root of a linear scatter/gather is a
  sequential bottleneck;
* a single switch that forwards flows addressed to *different* destination
  ports fully in parallel (the paper's "network switches ... parallelize
  the messages addressed to different processors") — there is no shared
  backplane resource;
* one ingress-port resource per node — concurrent flows into the *same*
  port share one wire, so their occupancy (``M / beta_ij``) serializes;
* TCP/IP irregularities per :mod:`repro.cluster.profiles` — rendezvous
  handshakes and fragmentation (scatter leap), incast RTO escalations and
  window pacing (gather's M1/M2 thresholds).

The MPI layer (:mod:`repro.mpi`) builds message matching and collectives
on top of :meth:`SimulatedCluster.transmit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

import numpy as np

from repro.cluster.noise import NoiseModel
from repro.cluster.params import GroundTruth, synthesize_ground_truth
from repro.cluster.profiles import LAM_7_1_3, MpiProfile
from repro.cluster.spec import ClusterSpec
from repro.obs import runtime as _obs
from repro.simlib import Event, Resource, Simulator, Store
from repro.simlib.trace import Tracer

__all__ = ["SimulatedCluster", "TransportStats"]


@dataclass
class TransportStats:
    """Counters of protocol events, for tests and ablation benches."""

    messages: int = 0
    bytes_sent: int = 0
    rendezvous_handshakes: int = 0
    escalations: int = 0
    escalation_time: float = 0.0
    port_waits: int = 0

    def reset(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.rendezvous_handshakes = 0
        self.escalations = 0
        self.escalation_time = 0.0
        self.port_waits = 0


@dataclass
class _PortState:
    """Bookkeeping of bytes heading into one ingress port.

    For incast-escalation purposes what matters is the *initial burst*:
    a TCP sender blasts its head-of-line message into the switch, then
    self-clocks off acknowledgements, so a sender with several messages
    queued contributes only its first message's bytes to the synchronized
    burst that can overflow the port buffer.  (This is why the paper's
    optimized gather — a series of sub-``M1`` gathers — avoids
    escalations even though the total bytes are unchanged.)
    """

    sender_queues: dict[int, list[float]] = field(default_factory=dict)

    def enqueue(self, src: int, nbytes: float) -> None:
        self.sender_queues.setdefault(src, []).append(nbytes)

    def dequeue(self, src: int, nbytes: float) -> None:
        queue = self.sender_queues[src]
        queue.remove(nbytes)
        if not queue:
            del self.sender_queues[src]

    def burst_bytes(self) -> float:
        """Bytes of the synchronized burst: one head message per sender."""
        return sum(queue[0] for queue in self.sender_queues.values())


class SimulatedCluster:
    """A heterogeneous cluster behind a single non-blocking switch.

    Parameters
    ----------
    spec:
        Hardware specification (node list).
    ground_truth:
        LMO parameters of the hardware; synthesized from ``spec`` when
        omitted.
    profile:
        MPI/TCP irregularity profile (default: LAM 7.1.3 as in the paper's
        main experiments).
    noise:
        Stochastic perturbation of every activity; ``NoiseModel.none()``
        makes runs deterministic.
    seed:
        Seed of the cluster-wide random generator (noise + escalations).

    Notes
    -----
    The virtual clock is owned by ``self.sim``; :meth:`reset` replaces the
    simulator (fresh time zero) but keeps the random generator state, so a
    sequence of measurement runs sees fresh noise — call :meth:`reseed`
    for full reproducibility of a sequence.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        ground_truth: Optional[GroundTruth] = None,
        profile: MpiProfile = LAM_7_1_3,
        noise: Optional[NoiseModel] = None,
        seed: int = 0,
    ):
        self.spec = spec
        self.ground_truth = (
            ground_truth if ground_truth is not None else synthesize_ground_truth(spec, seed=seed)
        )
        if self.ground_truth.n != spec.n:
            raise ValueError(
                f"ground truth is for {self.ground_truth.n} nodes, spec has {spec.n}"
            )
        self.profile = profile
        self.noise = noise if noise is not None else NoiseModel.default()
        self.rng = np.random.default_rng(seed)
        self.stats = TransportStats()
        self.tracer: Optional[Tracer] = None
        self.injector = None  # set via attach_injector (fault injection)
        self.topology = None  # set via attach_topology (multi-switch)
        self.uplink: Optional[Resource] = None
        self.sim: Simulator
        self.cpu: list[Resource]
        self.port: list[Resource]
        self._ports: list[_PortState]
        self.reset()

    # -- lifecycle ----------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.spec.n

    @property
    def ground_truth(self) -> GroundTruth:
        """The LMO parameters of the hardware.

        Assigning a new one (as :meth:`degrade_node`, :meth:`degrade_link`
        and :meth:`attach_topology` do) also rebuilds the Python-float
        tables the transport reads; edit the arrays of a ground truth in
        place and the transport will not see it.
        """
        return self._ground_truth

    @ground_truth.setter
    def ground_truth(self, value: GroundTruth) -> None:
        self._ground_truth = value
        # Indexing a list of Python floats is much cheaper than reading a
        # numpy scalar, and float arithmetic rounds exactly as float64 does.
        self._C = value.C.tolist()
        self._t = value.t.tolist()
        self._L = value.L.tolist()
        self._beta = value.beta.tolist()

    def reset(self) -> None:
        """Fresh simulator at time zero (RNG state is preserved).

        The fault injector's cumulative clock absorbs the completed run's
        duration first, so fault windows span sequences of runs.
        """
        if self.injector is not None and hasattr(self, "sim"):
            self.injector.advance_epoch(self.sim.now)
        tel = _obs.ACTIVE
        if tel is not None and hasattr(self, "sim") and self.sim.events_processed:
            # Flush the finished run's kernel counter — the kernel itself
            # keeps a plain int so its step() loop never touches telemetry.
            tel.registry.counter(
                "sim_events_total", help="DES kernel events processed"
            ).inc(self.sim.events_processed)
        self.sim = Simulator()
        n = self.spec.n
        self.cpu = [Resource(self.sim, 1, f"cpu{i}") for i in range(n)]
        self.port = [Resource(self.sim, 1, f"port{i}") for i in range(n)]
        self._ports = [_PortState() for _ in range(n)]
        self.uplink = (
            Resource(self.sim, 1, "uplink") if self.topology is not None else None
        )

    def attach_topology(self, topology) -> None:
        """Switch to a multi-switch topology (None restores one switch).

        Rewrites the ground truth with the uplink's latency/rate on
        cross-switch links and arms a shared uplink resource, so
        concurrent cross-switch flows contend — the effect no
        single-switch point-to-point model can express.
        """
        if topology is not None:
            self.ground_truth = topology.apply_to_ground_truth(self.ground_truth)
        self.topology = topology
        self.reset()

    def reseed(self, seed: int) -> None:
        """Reset the random generator (full determinism of the next runs)."""
        self.rng = np.random.default_rng(seed)

    def attach_injector(self, injector) -> None:
        """Arm a :class:`~repro.cluster.faults.FaultInjector` (None disarms).

        The injector is consulted on every transfer from then on; the
        transport itself is untouched when no injector is attached, so the
        fault-free fast path costs nothing.
        """
        if injector is not None:
            injector.bind(self)
        self.injector = injector

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Record activity intervals into ``tracer`` (None detaches).

        Traces accumulate across :meth:`reset`; clear the tracer (or
        attach a fresh one) between runs you want to inspect separately.
        """
        self.tracer = tracer

    # -- noisy durations -------------------------------------------------------
    def noisy(self, duration: float) -> float:
        """Apply the cluster noise model to an activity duration."""
        return self.noise.perturb(duration, self.rng)

    # -- effective (fault-aware) hardware parameters -------------------------
    def processing_cost(self, node: int, nbytes: float) -> float:
        """CPU cost ``C + M t`` of ``node``, after any active slowdown."""
        cost = self._C[node] + nbytes * self._t[node]
        if self.injector is not None:
            cost *= self.injector.cpu_factor(node)
        return cost

    def effective_latency(self, src: int, dst: int) -> float:
        """Link latency ``L_ij``, after any active link degradation."""
        latency = self._L[src][dst]
        if self.injector is not None:
            latency *= self.injector.link_factors(src, dst)[0]
        return latency

    def effective_rate(self, src: int, dst: int) -> float:
        """Link rate ``beta_ij``, after any active link degradation."""
        rate = self._beta[src][dst]
        if self.injector is not None:
            rate *= self.injector.link_factors(src, dst)[1]
        return rate

    # -- transport ---------------------------------------------------------
    def transmit(
        self,
        src: int,
        dst: int,
        nbytes: int,
        rendezvous_ready: Optional[Event] = None,
        on_sent: Optional[Event] = None,
        mailbox: Optional[Store] = None,
        envelope: Any = None,
    ) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst`` through the switch.

        A generator to be driven inside the simulation (spawn it or yield
        from it).  It completes when the message has fully crossed the
        switch into the destination node's buffers; the MPI layer then
        delivers it to the matching receive, *charging the receiver's CPU
        cost* ``C_dst + nbytes*t_dst`` inside the receive call (the memcpy
        out of the transport buffer happens in ``MPI_Recv``, which is what
        makes PLogP's ``o_r`` measurable).  When ``mailbox`` is given,
        ``envelope`` is put into it at that point; the generator returns
        ``envelope``.

        Stages (matching the extended-LMO decomposition):

        1. sender CPU holds ``C_src + nbytes*t_src`` (+ protocol overhead;
           for rendezvous messages the handshake round-trip — and, when
           ``rendezvous_ready`` is given, the wait until the receiver has
           posted its receive — is paid while holding the CPU, as LAM's
           blocking long protocol does);
        2. switch latency ``L_src,dst``, then the destination port is held
           for the occupancy ``nbytes / beta_src,dst``; incast escalations
           (TCP RTO) may delay entering the port.
        """
        if src == dst:
            raise ValueError("transmit requires distinct src and dst")
        if nbytes < 0:
            raise ValueError(f"negative message size {nbytes}")
        prof, sim, stats, tracer = self.profile, self.sim, self.stats, self.tracer
        perturb, rng = self.noise.perturb, self.rng
        stats.messages += 1
        stats.bytes_sent += nbytes

        if self.injector is not None:
            # A hung endpoint stalls the transfer before it starts.
            stall = self.injector.hang_stall(src, dst)
            if stall > 0:
                yield sim.timeout(stall)

        # -- stage 1: sender CPU -----------------------------------------
        cpu = self.cpu[src]
        usage = cpu.request()
        yield usage
        cpu_start = sim.now
        try:
            if prof.uses_rendezvous(nbytes):
                stats.rendezvous_handshakes += 1
                # Request-to-send / clear-to-send round trip over the link.
                yield sim.timeout(perturb(2.0 * self.effective_latency(src, dst), rng))
                if rendezvous_ready is not None and not rendezvous_ready.processed:
                    yield rendezvous_ready
            cpu_cost = self.processing_cost(src, nbytes) + prof.sender_protocol_overhead(nbytes)
            yield sim.timeout(perturb(cpu_cost, rng))
        finally:
            cpu.release(usage)
            if tracer is not None:
                tracer.record(f"cpu{src}", cpu_start, sim.now, "s")
        if on_sent is not None:
            # A blocking MPI send returns here: the buffer has been handed
            # to the transport and the sender CPU is free again.
            on_sent.succeed(sim.now)

        # -- stage 2: switch + destination port ---------------------------
        yield sim.timeout(perturb(self.effective_latency(src, dst), rng))
        if (
            self.uplink is not None
            and self.topology is not None
            and not self.topology.same_switch(src, dst)
        ):
            # Cross-switch flows share the inter-switch uplink.
            uplink_start = sim.now
            yield from self.uplink.hold(
                sim, perturb(nbytes / self.topology.uplink_rate, rng)
            )
            if tracer is not None:
                tracer.record("uplink", uplink_start, sim.now, "u")
        port_state = self._ports[dst]
        incast_delay = self._sample_escalation(port_state, src, nbytes)
        loss_delay = 0.0
        if self.injector is not None:
            # Packet loss on a flaky link costs a retransmission timeout
            # on this transfer — escalations on *arbitrary* traffic, not
            # just gather incast.  A hang that started mid-flight stalls
            # the transfer here, before it enters the destination port.
            loss_delay = self.injector.loss_delay(src, dst)
            stall = self.injector.hang_stall(dst)
            if stall > 0:
                yield sim.timeout(stall)
        escalation = incast_delay + loss_delay
        tel = _obs.ACTIVE
        if tel is not None:
            # Size telemetry feeds the live M1/M2 estimate
            # (repro.obs.insight.detectors): every transfer's size, plus
            # the sizes of those that ate a *natural* incast escalation.
            tel.registry.histogram(
                "sim_transfer_bytes", help="transfer sizes through the switch",
                lo=0, hi=28,
            ).observe(max(float(nbytes), 1.0))
            if incast_delay > 0.0:
                tel.registry.histogram(
                    "sim_escalated_transfer_bytes",
                    help="sizes of transfers that ate a natural incast RTO",
                    lo=0, hi=28,
                ).observe(max(float(nbytes), 1.0))
        port_state.enqueue(src, float(nbytes))
        try:
            if escalation > 0.0:
                stats.escalations += 1
                stats.escalation_time += escalation
                if tel is not None:
                    for cause, delay in (("incast", incast_delay), ("loss", loss_delay)):
                        if delay > 0.0:
                            tel.registry.counter(
                                "rto_escalations_total",
                                help="TCP RTO escalations by cause",
                                cause=cause,
                            ).inc()
                            tel.registry.histogram(
                                "rto_escalation_seconds",
                                help="RTO escalation delay by cause",
                                cause=cause,
                            ).observe(delay)
                            tel.events.warning(
                                "rto_escalation", cause=cause, src=src, dst=dst,
                                nbytes=nbytes, delay=delay, sim_time=sim.now,
                            )
                rto_start = sim.now
                yield sim.timeout(escalation)
                if tracer is not None:
                    tracer.record(f"port{dst}", rto_start, sim.now, "R")
            port = self.port[dst]
            usage = port.request()
            if not usage.triggered:
                stats.port_waits += 1
            yield usage
            wire_start = sim.now
            try:
                yield sim.timeout(perturb(nbytes / self.effective_rate(src, dst), rng))
            finally:
                port.release(usage)
                if tracer is not None:
                    tracer.record(f"port{dst}", wire_start, sim.now, "w")
        finally:
            port_state.dequeue(src, float(nbytes))
        if mailbox is not None:
            mailbox.put(envelope)
        return envelope

    def _sample_escalation(self, port_state: _PortState, src: int, nbytes: int) -> float:
        """Incast RTO delay for a flow about to enter a port (0.0 = none).

        Flows larger than the TCP window are paced by the receiver and
        never escalate (they serialize cleanly instead — the M > M2
        regime).  Smaller flows are blasted; if the port backlog exceeds
        the incast threshold, packet loss triggers a retransmission
        timeout with a probability that grows with the backlog.
        """
        prof = self.profile
        if nbytes > prof.tcp_window or nbytes <= 0:
            return 0.0
        already_bursting = src in port_state.sender_queues
        n_senders = len(port_state.sender_queues) + (0 if already_bursting else 1)
        if n_senders < prof.min_incast_senders:
            return 0.0  # a lone self-clocked stream: no burst to sum
        burst = port_state.burst_bytes() + (0.0 if already_bursting else nbytes)
        p = prof.escalation_probability(burst, n_senders)
        if p <= 0.0 or self.rng.random() >= p:
            return 0.0
        return prof.rto_base + float(self.rng.uniform(0.0, prof.rto_jitter))

    # -- fault injection -----------------------------------------------------
    def degrade_node(self, node: int, factor: float) -> None:
        """Slow one node's processing by ``factor`` (hardware-event injection).

        Multiplies the node's fixed and per-byte processing delays — a
        thermal throttle, a failing fan, a core stolen by a daemon.  Takes
        effect from the next transfer; estimated models become stale,
        which :func:`repro.estimation.drift.detect_model_drift` exists to
        notice.
        """
        if not (0 <= node < self.n):
            raise ValueError(f"node {node} out of range")
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        C = self.ground_truth.C.copy()
        t = self.ground_truth.t.copy()
        C[node] *= factor
        t[node] *= factor
        self.ground_truth = GroundTruth(
            C=C, t=t, L=self.ground_truth.L.copy(), beta=self.ground_truth.beta.copy()
        )

    def degrade_link(
        self, a: int, b: int, latency_factor: float = 1.0, rate_factor: float = 1.0
    ) -> None:
        """Permanently worsen one link: raise ``L_ab``, lower ``beta_ab``.

        The hardware analogue of a duplex renegotiation or a failing
        cable: ``latency_factor`` (>= 1) multiplies the fixed latency,
        ``rate_factor`` (in (0, 1]) scales the transmission rate.  For
        time-windowed, auto-reverting versions use
        :class:`~repro.cluster.faults.LinkDegradation` via a
        :class:`~repro.cluster.faults.FaultInjector`.
        """
        if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
            raise ValueError(f"invalid link {a}-{b} for {self.n} nodes")
        if latency_factor < 1.0:
            raise ValueError(f"latency_factor must be >= 1, got {latency_factor}")
        if not (0 < rate_factor <= 1.0):
            raise ValueError(f"rate_factor must be in (0, 1], got {rate_factor}")
        L = self.ground_truth.L.copy()
        beta = self.ground_truth.beta.copy()
        L[a, b] = L[b, a] = L[a, b] * latency_factor
        beta[a, b] = beta[b, a] = beta[a, b] * rate_factor
        self.ground_truth = GroundTruth(
            C=self.ground_truth.C.copy(), t=self.ground_truth.t.copy(), L=L, beta=beta
        )
