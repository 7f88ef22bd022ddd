"""Unit tests for Resource semantics."""

import pytest

from repro.simlib import Resource, SimulationError, Simulator


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_single_slot_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def worker(sim, name):
        start_req = sim.now
        usage = res.request()
        yield usage
        start = sim.now
        yield sim.timeout(2.0)
        res.release(usage)
        spans.append((name, start_req, start, sim.now))

    for name in ("a", "b", "c"):
        sim.spawn(worker(sim, name))
    sim.run()
    assert spans == [("a", 0.0, 0.0, 2.0), ("b", 0.0, 2.0, 4.0), ("c", 0.0, 4.0, 6.0)]


def test_capacity_two_allows_two_concurrent():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finished = []

    def worker(sim, name):
        usage = res.request()
        yield usage
        yield sim.timeout(1.0)
        res.release(usage)
        finished.append((name, sim.now))

    for name in ("a", "b", "c"):
        sim.spawn(worker(sim, name))
    sim.run()
    assert finished == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_fifo_order_among_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, name, arrival):
        yield sim.timeout(arrival)
        usage = res.request()
        yield usage
        order.append(name)
        yield sim.timeout(10.0)
        res.release(usage)

    sim.spawn(worker(sim, "first", 0.0))
    sim.spawn(worker(sim, "second", 1.0))
    sim.spawn(worker(sim, "third", 2.0))
    sim.run()
    assert order == ["first", "second", "third"]


def test_release_of_unheld_usage_is_error():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc(sim):
        usage = res.request()
        yield usage
        res.release(usage)
        with pytest.raises(SimulationError):
            res.release(usage)

    sim.spawn(proc(sim))
    sim.run()


def test_hold_helper_acquires_and_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(sim, name):
        yield from res.hold(sim, 3.0)
        log.append((name, sim.now))

    sim.spawn(worker(sim, "a"))
    sim.spawn(worker(sim, "b"))
    sim.run()
    assert log == [("a", 3.0), ("b", 6.0)]
    assert res.count == 0 and res.queue_length == 0


def test_count_and_queue_length_track_state():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    snapshots = []

    def holder(sim):
        usage = res.request()
        yield usage
        yield sim.timeout(5.0)
        res.release(usage)

    def waiter(sim):
        yield sim.timeout(1.0)
        usage = res.request()
        snapshots.append((res.count, res.queue_length))  # held by holder, me waiting
        yield usage
        res.release(usage)

    sim.spawn(holder(sim))
    sim.spawn(waiter(sim))
    sim.run()
    assert snapshots == [(1, 1)]


def test_busy_flag():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert not res.busy

    def proc(sim):
        usage = res.request()
        yield usage
        assert res.busy
        res.release(usage)

    sim.spawn(proc(sim))
    sim.run()
    assert not res.busy


def test_release_at_time_t_usable_by_request_at_time_t():
    """A slot released at time t must be grantable to a request issued at t."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    granted_at = []

    def holder(sim):
        usage = res.request()
        yield usage
        yield sim.timeout(2.0)
        res.release(usage)

    def requester(sim):
        yield sim.timeout(2.0)
        usage = res.request()
        yield usage
        granted_at.append(sim.now)
        res.release(usage)

    sim.spawn(holder(sim))
    sim.spawn(requester(sim))
    sim.run()
    assert granted_at == [2.0]


def test_interrupt_during_hold_releases_resource():
    """hold() must release its slot even when the holder is interrupted
    mid-activity (the finally path) — otherwise the resource leaks."""
    from repro.simlib import Interrupt

    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder(sim):
        try:
            yield from res.hold(sim, 100.0)
        except Interrupt:
            log.append(("interrupted", sim.now))

    def interrupter(sim, victim):
        yield sim.timeout(1.0)
        victim.interrupt()

    def waiter(sim):
        yield from res.hold(sim, 1.0)
        log.append(("acquired", sim.now))

    victim = sim.spawn(holder(sim))
    sim.spawn(interrupter(sim, victim))
    sim.spawn(waiter(sim))
    sim.run()
    assert ("interrupted", 1.0) in log
    assert ("acquired", 2.0) in log  # slot freed at t=1, held 1s
    assert res.count == 0


def _interrupted_request_scenario(res, interrupt_first: bool):
    """A holds the slot over [0, 1]; B queues for it at t=0 and is
    interrupted; C asks at t=2 and must be served.  With
    ``interrupt_first`` A interrupts B in the same instant as, and just
    before, the release that grants B the slot; otherwise a third process
    interrupts B at t=0.5, while B is still queued."""
    from repro.simlib import Interrupt

    sim = res.sim
    log = []

    def a(sim):
        usage = res.request()
        yield usage
        yield sim.timeout(1.0)
        if interrupt_first:
            victim.interrupt()
        res.release(usage)

    def b(sim):
        try:
            yield from res.hold(sim, 10.0)
        except Interrupt:
            log.append(("b interrupted", sim.now))

    def interrupter(sim):
        yield sim.timeout(0.5)
        victim.interrupt()

    def c(sim):
        yield sim.timeout(2.0)
        yield from res.hold(sim, 1.0)
        log.append(("c done", sim.now))

    sim.spawn(a(sim))
    victim = sim.spawn(b(sim))
    if not interrupt_first:
        sim.spawn(interrupter(sim))
    sim.spawn(c(sim))
    sim.run()
    return log


@pytest.mark.parametrize("cls", [Resource])
def test_interrupted_queued_request_is_withdrawn(cls):
    sim = Simulator()
    res = cls(sim, capacity=1)
    log = _interrupted_request_scenario(res, interrupt_first=False)
    assert log == [("b interrupted", 0.5), ("c done", 3.0)]
    assert res.count == 0 and res.queue_length == 0


@pytest.mark.parametrize("cls", [Resource])
def test_interrupt_racing_the_grant_releases_the_slot(cls):
    sim = Simulator()
    res = cls(sim, capacity=1)
    log = _interrupted_request_scenario(res, interrupt_first=True)
    assert log == [("b interrupted", 1.0), ("c done", 3.0)]
    assert res.count == 0 and res.queue_length == 0
