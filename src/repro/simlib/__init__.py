"""Discrete-event simulation kernel.

A small, dependency-free process-based DES in the style of SimPy:
processes are Python generators that yield *events* (timeouts, other
events, resource requests); the :class:`~repro.simlib.kernel.Simulator`
advances virtual time over a binary heap of scheduled callbacks.

This kernel is the substrate for the simulated single-switch cluster
(:mod:`repro.cluster`) and the MPI-like layer (:mod:`repro.mpi`).

Example
-------
>>> from repro.simlib import Simulator
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield sim.timeout(1.5)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
>>> log
[1.5]
"""

from repro.simlib.kernel import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
)
from repro.simlib.resources import Resource, ResourceUsage
from repro.simlib.store import Store
from repro.simlib.trace import Interval, Tracer, render_gantt

__all__ = [
    "Event",
    "Interval",
    "Interrupt",
    "Process",
    "Resource",
    "ResourceUsage",
    "SimulationError",
    "Simulator",
    "Store",
    "Tracer",
    "render_gantt",
]
