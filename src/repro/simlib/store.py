"""An unbounded message store with filtered gets (mailbox primitive).

:class:`Store` is the rendezvous point used by the MPI layer for message
matching: senders ``put`` envelopes, receivers ``get`` with a predicate
(source / tag match).  Puts never block; gets block until a matching item
is available.  Matching is FIFO among items satisfying the predicate,
which mirrors MPI's non-overtaking guarantee per (source, tag).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.simlib.kernel import URGENT, Event, Simulator

__all__ = ["Store"]


class _Get(Event):
    __slots__ = ("store", "predicate")

    def __init__(self, store: "Store", predicate: Callable[[Any], bool]):
        super().__init__(store.sim)
        self.store = store
        self.predicate = predicate

    def _abandon(self) -> None:
        # The getter was interrupted: stop matching, or hand back the item
        # it was given but never received.
        if self._triggered:
            self.store.put(self._value)
        else:
            self.store._getters.remove(self)


class Store:
    """Unbounded FIFO store with predicate-filtered retrieval."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: list[Any] = []
        self._getters: list[_Get] = []

    # -- inspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def peek(self, predicate: Optional[Callable[[Any], bool]] = None) -> Optional[Any]:
        """First item matching ``predicate`` (or any), without removing it."""
        for item in self._items:
            if predicate is None or predicate(item):
                return item
        return None

    # -- operations ---------------------------------------------------------
    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the first waiting getter that matches."""
        for idx, getter in enumerate(self._getters):
            if getter.predicate(item):
                del self._getters[idx]
                getter.succeed(item, priority=URGENT)
                return
        self._items.append(item)

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event firing with the first item matching ``predicate``."""
        pred = predicate if predicate is not None else (lambda _item: True)
        getter = _Get(self, pred)
        for idx, item in enumerate(self._items):
            if pred(item):
                del self._items[idx]
                return getter.succeed(item, priority=URGENT)
        self._getters.append(getter)
        return getter
