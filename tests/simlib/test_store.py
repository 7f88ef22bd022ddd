"""Unit tests for the Store mailbox primitive."""

from repro.simlib import Simulator, Store


def test_put_then_get_immediate():
    sim = Simulator()
    store = Store(sim)
    got = []

    def proc(sim):
        store.put("x")
        value = yield store.get()
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["x"]


def test_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        value = yield store.get()
        got.append((sim.now, value))

    def putter(sim):
        yield sim.timeout(4.0)
        store.put("late")

    sim.spawn(getter(sim))
    sim.spawn(putter(sim))
    sim.run()
    assert got == [(4.0, "late")]


def test_predicate_filters_items():
    sim = Simulator()
    store = Store(sim)
    got = []

    def proc(sim):
        store.put(("tag", 1))
        store.put(("other", 2))
        value = yield store.get(lambda item: item[0] == "other")
        got.append(value)

    sim.spawn(proc(sim))
    sim.run()
    assert got == [("other", 2)]
    assert store.peek() == ("tag", 1)


def test_fifo_among_matching_items():
    sim = Simulator()
    store = Store(sim)
    store.put(("a", 1))
    store.put(("b", 2))
    store.put(("a", 3))
    got = []

    def proc(sim):
        got.append((yield store.get(lambda i: i[0] == "a")))
        got.append((yield store.get(lambda i: i[0] == "a")))

    sim.spawn(proc(sim))
    sim.run()
    assert got == [("a", 1), ("a", 3)]


def test_waiting_getters_matched_by_predicate_not_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, key):
        value = yield store.get(lambda i: i[0] == key)
        got.append((key, value[1], sim.now))

    def putter(sim):
        yield sim.timeout(1.0)
        store.put(("b", 20))
        yield sim.timeout(1.0)
        store.put(("a", 10))

    sim.spawn(getter(sim, "a"))
    sim.spawn(getter(sim, "b"))
    sim.spawn(putter(sim))
    sim.run()
    assert got == [("b", 20, 1.0), ("a", 10, 2.0)]


def test_len_and_peek():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    assert store.peek() is None
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.peek() == 1
    assert store.peek(lambda x: x > 1) == 2


def test_two_getters_one_item_only_first_matching_served():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, name):
        value = yield store.get()
        got.append((name, value))

    sim.spawn(getter(sim, "g1"))
    sim.spawn(getter(sim, "g2"))

    def putter(sim):
        yield sim.timeout(1.0)
        store.put("only")

    sim.spawn(putter(sim))
    sim.run(until=10.0)
    assert got == [("g1", "only")]


def test_interrupted_get_stops_matching_items():
    """An item put after a getter was interrupted reaches the live getter."""
    from repro.simlib import Interrupt

    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim, name):
        try:
            value = yield store.get()
            got.append((name, sim.now, value))
        except Interrupt:
            got.append((name, sim.now, "interrupted"))

    def scenario(sim):
        yield sim.timeout(1.0)
        dead.interrupt()
        yield sim.timeout(1.0)
        store.put("x")

    dead = sim.spawn(getter(sim, "dead"))
    sim.spawn(getter(sim, "live"))
    sim.spawn(scenario(sim))
    sim.run()
    assert got == [("dead", 1.0, "interrupted"), ("live", 2.0, "x")]
    assert len(store) == 0


def test_item_matched_by_an_interrupted_get_is_handed_back():
    """An item given to a get in the same instant as the getter's interrupt
    goes back to the store instead of vanishing."""
    from repro.simlib import Interrupt

    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(sim):
        try:
            got.append((yield store.get()))
        except Interrupt:
            got.append("interrupted")

    def scenario(sim):
        yield sim.timeout(1.0)
        victim.interrupt()
        store.put("x")

    victim = sim.spawn(getter(sim))
    sim.spawn(scenario(sim))
    sim.run()
    assert got == ["interrupted"]
    assert store.peek() == "x"
