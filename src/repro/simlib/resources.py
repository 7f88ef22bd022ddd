"""FIFO resources for the DES kernel.

A :class:`Resource` models a facility with fixed capacity (a CPU core, a NIC,
a switch port).  Processes acquire a slot, hold it for some activity, and
release it; waiters queue in FIFO order.

Typical usage inside a process generator::

    usage = resource.request()
    yield usage                 # granted when a slot frees up
    yield sim.timeout(cost)     # hold the resource
    resource.release(usage)

or, with the convenience wrapper::

    yield from resource.hold(sim, cost)
"""

from __future__ import annotations

import heapq
from typing import Generator

from repro.simlib.kernel import URGENT, Event, SimulationError, Simulator

__all__ = ["Resource", "ResourceUsage"]


class ResourceUsage(Event):
    """The grant event for one resource request; token used for release."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self.resource = resource

    def _abandon(self) -> None:
        # The requester was interrupted before the grant reached it.
        resource = self.resource
        if self in resource._users:
            resource.release(self)
        else:
            resource._waiters.remove(self)


class Resource:
    """A capacity-limited facility with FIFO queueing.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Number of concurrent holders (>= 1).
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[ResourceUsage] = set()
        self._waiters: list[ResourceUsage] = []

    # -- inspection -------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._waiters)

    @property
    def busy(self) -> bool:
        """True when at least one slot is held or requested."""
        return bool(self._users or self._waiters)

    # -- acquire/release ----------------------------------------------------
    def request(self) -> ResourceUsage:
        """Ask for a slot; the returned event fires when granted."""
        usage = ResourceUsage(self)
        if len(self._users) < self.capacity and not self._waiters:
            # Granted at once: trigger the usage and push its heap entry
            # directly (what ``succeed(usage, priority=URGENT)`` does).
            self._users.add(usage)
            usage._triggered = True
            usage._value = usage
            sim = self.sim
            heapq.heappush(sim._queue, (sim._now, URGENT, next(sim._ids), usage))
        else:
            self._waiters.append(usage)
        return usage

    def release(self, usage: ResourceUsage) -> None:
        """Free a previously granted slot and wake the next waiter.

        The released usage's value (itself) is cleared, so that a finished
        request is no reference cycle and refcounting frees it at once.
        """
        if usage not in self._users:
            raise SimulationError(f"release of non-held usage on {self.name or 'resource'}")
        self._users.remove(usage)
        usage._value = None
        if self._waiters:
            nxt = self._waiters.pop(0)
            self._users.add(nxt)
            nxt.succeed(nxt, priority=URGENT)

    def hold(self, sim: Simulator, duration: float) -> Generator:
        """Acquire, hold for ``duration``, release (generator helper)."""
        usage = self.request()
        yield usage
        try:
            yield sim.timeout(duration)
        finally:
            self.release(usage)
