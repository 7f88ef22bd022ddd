"""Core discrete-event simulation kernel: events, processes, simulator.

Design notes
------------
The kernel is deliberately small and allocation-light (the guides for this
domain stress avoiding needless object churn in inner loops):

* The event queue is a binary heap of ``(time, priority, seq, event)``
  tuples.  ``seq`` is a monotonically increasing tie-breaker, so event
  ordering is fully deterministic — two runs with the same seed produce
  identical traces.
* Processes are plain generators.  A process yields an :class:`Event`; the
  kernel resumes it with the event's value when the event fires (or throws
  :class:`Interrupt` into it).
* There is no global state: any number of :class:`Simulator` instances can
  coexist (the test-suite relies on this).

The hot path is a pure-Python loop, so it is written for the interpreter:

* :meth:`Simulator.run` and :meth:`Simulator.step` share one dispatch loop
  (:meth:`Simulator._dispatch`) that pops and fires events inline and
  keeps the event counter in a local.  The loop has no hooks: profile it
  from outside, with :mod:`cProfile` or ``perfbench/run.py --trace 1``.
* A :class:`Timeout`, a new or finished :class:`Process` and an
  immediately granted resource request push their heap entry directly,
  without the ``Event.__init__`` → ``succeed`` → ``_schedule`` chain;
  each process binds its resume callback and its generator's ``send``
  once, not once per yield.
* These shortcuts assign ``seq`` exactly where the general path would, so
  the event order, and with it every random draw, is unchanged.
* A finished process drops its bound callback and a released resource
  usage drops its self-valued grant, so a completed run leaves no
  reference cycles: refcounting frees it and the cyclic garbage
  collector stays idle while simulations run.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "AllOf",
    "AnyOf",
]

#: Event priorities: lower fires first at equal times.  URGENT is used for
#: internal bookkeeping (resource releases) so that releases at time *t*
#: are observed by acquisitions at time *t*.
URGENT = 0
NORMAL = 1

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double-trigger, running a finished sim...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the value supplied by the interrupter.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it becomes *triggered* when given a value (or
    an exception) and scheduled; callbacks run when the simulator pops it.

    Attributes
    ----------
    callbacks:
        List of callables invoked with the event when it fires.  ``None``
        after the event has been processed (guards against double fire).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after processing)."""
        return self._exc is None

    @property
    def value(self) -> Any:
        """The event's value (raises if the event failed)."""
        if self._exc is not None:
            raise self._exc
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully after ``delay`` sim-seconds."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay, priority)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception after ``delay`` sim-seconds."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._triggered = True
        self._exc = exc
        self.sim._schedule(self, delay, priority)
        return self

    # -- internals ------------------------------------------------------
    def _abandon(self) -> None:
        """Called when the last waiter of this unprocessed event is
        interrupted.  Requests (resource slots, store gets) override it to
        withdraw themselves; a plain event has nothing to give back."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` sim-seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        heappush(sim._queue, (sim._now + delay, NORMAL, next(sim._ids), self))


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator yields :class:`Event` instances.  When a yielded event
    fires, the generator resumes with the event's value; if the event
    failed, its exception is thrown into the generator (which may catch it).
    """

    __slots__ = ("_generator", "_send", "_waiting_on", "_resume_cb", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bound once for the process's lifetime: the generator's send, and
        # the resume callback appended to every event the process waits on.
        self._send = generator.send
        self._resume_cb = self._resume
        # Bootstrap: resume once the sim starts processing events.
        init = Event(sim)
        init.callbacks.append(self._resume_cb)
        init._triggered = True
        self._waiting_on: Event = init
        heappush(sim._queue, (sim._now, URGENT, next(sim._ids), init))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error.  A process interrupted
        while it waits on an event is detached from that event first; if
        it was the event's last waiter, a pending request is withdrawn (a
        queued resource request leaves the queue, a granted but not yet
        delivered slot is released, a store get stops matching items).
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        evt = Event(self.sim)
        evt.callbacks.append(self._resume_interrupt)
        evt.fail(Interrupt(cause), priority=URGENT)

    # -- internals ------------------------------------------------------
    def _resume_interrupt(self, evt: Event) -> None:
        if self._triggered:  # finished in the meantime: drop silently
            return
        target = self._waiting_on
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.remove(self._resume_cb)
            if not callbacks:
                target._abandon()
        self._resume(evt)

    def _resume(self, evt: Event) -> None:
        """Advance the generator with ``evt``'s outcome, then wait on the
        event it yields next (the callback of every event it waits on)."""
        try:
            if evt._exc is None:
                target = self._send(evt._value)
            else:
                target = self._generator.throw(evt._exc)
        except StopIteration as stop:
            # Finished: fire this process's own event (``succeed`` inlined),
            # and drop the bound callback so the process holds no cycle
            # through itself and refcounting can free it.
            self._resume_cb = None
            self._triggered = True
            self._value = stop.value
            sim = self.sim
            heappush(sim._queue, (sim._now, URGENT, next(sim._ids), self))
            return
        except BaseException as exc:
            self._resume_cb = None
            if not self.callbacks:
                # Nobody is watching this process: crash the simulation
                # rather than swallow the error.
                self.sim._crashed = exc
                self._triggered = True
                return
            self.fail(exc, priority=URGENT)
            return

        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event"
            )
        callbacks = target.callbacks
        if callbacks is None:
            # Already fired: resume immediately via a zero-delay event to
            # keep the stack shallow and ordering deterministic.
            evt = Event(self.sim)
            evt.callbacks.append(self._resume_cb)
            if target._exc is not None:
                evt.fail(target._exc, priority=URGENT)
            else:
                evt.succeed(target._value, priority=URGENT)
            self._waiting_on = evt
        else:
            callbacks.append(self._resume_cb)
            self._waiting_on = target


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed([])
            return
        for evt in self._events:
            if evt.callbacks is None:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _check(self, evt: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when all child events have fired; value is the list of values."""

    __slots__ = ()

    def _check(self, evt: Event) -> None:
        if self._triggered:
            return
        if evt._exc is not None:
            self.fail(evt._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is that event's value."""

    __slots__ = ()

    def _check(self, evt: Event) -> None:
        if self._triggered:
            return
        if evt._exc is not None:
            self.fail(evt._exc)
            return
        self.succeed(evt._value)


class Simulator:
    """Event loop owning a virtual clock.

    Parameters
    ----------
    start:
        Initial value of the virtual clock (seconds).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, int, Event]] = []
        #: Heap tie-breakers, in scheduling order.
        self._ids = itertools.count()
        self._crashed: Optional[BaseException] = None
        #: Events popped and fired so far.  A plain int, always maintained:
        #: the kernel is the hottest loop in the repo, so telemetry reads
        #: this after the fact instead of hooking every step.
        self.events_processed = 0

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction ---------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    # Backwards-friendly alias mirroring SimPy.
    process = spawn

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event firing when every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event firing when the first event in ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heappush(self._queue, (self._now + delay, priority, next(self._ids), event))

    # -- running ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process exactly one event."""
        if not self._queue:
            raise SimulationError("no events scheduled")
        self._dispatch(_INF, self._queue[0][3])

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        Returns the value of ``until`` when ``until`` is an event.
        """
        if isinstance(until, Event):
            if not until._processed:
                self._dispatch(_INF, until)
                if not until._processed:
                    raise SimulationError(
                        "simulation ran out of events before the awaited event fired"
                    )
            return until.value
        horizon = _INF if until is None else float(until)
        self._dispatch(horizon, None)
        if until is not None and horizon > self._now:
            self._now = horizon
        return None

    def _dispatch(self, horizon: float, stop: Optional[Event]) -> None:
        """The event loop: fire events in ``(time, priority, seq)`` order
        until the queue drains, the next event lies beyond ``horizon``, or
        ``stop`` has fired."""
        queue = self._queue
        fired = 0
        try:
            while queue:
                when, priority, seq, event = heappop(queue)
                if when > horizon:
                    heappush(queue, (when, priority, seq, event))
                    break
                self._now = when
                fired += 1
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if self._crashed is not None:
                    exc, self._crashed = self._crashed, None
                    raise exc
                if event is stop:
                    break
        finally:
            self.events_processed += fired
