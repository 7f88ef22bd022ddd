"""Per-layer accounting from outside the program.

Two tools, both used only in traced runs:

* :func:`group_self_time` turns a ``cProfile`` profile into self time per
  ``repro`` package.  Functions of the package keep their own self time;
  C and standard-library functions hand theirs to whichever package called
  them, edge by edge through the profile's caller data, so the layers sum
  exactly to the profiled total.
* :class:`Counters` installs counting wrappers around public callables
  (by class attribute, or in every ``repro`` module that imported a
  function by name) and removes them again.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Every layer a profiled function can land in: the ``repro`` packages and
#: top-level modules, plus ``other`` (the harness, interpreter start-up and
#: anything no ``repro`` function called).
LAYERS = (
    "analysis", "api", "apps", "benchlib", "cli", "cluster", "estimation",
    "experiments", "io", "models", "mpi", "obs", "optimize",
    "predict_service", "serve", "simlib", "stats", "other",
)

Func = tuple  # (filename, lineno, funcname), as pstats keys functions


def package_layer(package_dir: str) -> Callable[[str], Optional[str]]:
    """Map a code filename to its layer, or None outside ``package_dir``.

    ``package_dir`` is the directory of the ``repro`` package; anchoring on
    it (not on a path fragment) keeps a checkout path that happens to
    contain ``/repro/`` from misfiling harness code.
    """
    root = os.path.normcase(os.path.abspath(package_dir)) + os.sep

    def layer_of(filename: str) -> Optional[str]:
        path = os.path.normcase(os.path.abspath(filename)) if filename[:1] != "~" else ""
        if not path.startswith(root):
            return None
        head = path[len(root):].split(os.sep, 1)[0]
        name = head[:-3] if head.endswith(".py") else head
        return name if name in LAYERS else "other"

    return layer_of


def group_self_time(
    stats: dict[Func, tuple], layer_of: Callable[[str], Optional[str]]
) -> dict[str, float]:
    """Self time per layer from ``pstats.Stats(...).stats``.

    A ``repro`` function's self time goes wholly to its package.  A foreign
    function's self time is split over its callers by the per-edge self
    time cProfile records; a foreign caller passes its share on in
    proportion to its own callers' cumulative time.  Time with no recorded
    caller lands in ``other``.  The result sums to the total self time.
    """
    layers: dict[str, float] = defaultdict(float)
    owners: dict[Func, dict[str, float]] = {}

    def owner(func: Func, visiting: frozenset) -> dict[str, float]:
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: edge[3] for c, edge in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[0] for c, edge in callers.items() if c not in visiting}
            total = sum(weights.values())
        if total <= 0:
            shares = {"other": 1.0}
        else:
            shares = defaultdict(float)
            for caller, weight in weights.items():
                for layer, share in owner(caller, visiting | {func}).items():
                    shares[layer] += share * weight / total
        owners[func] = dict(shares)
        return owners[func]

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        own = layer_of(func[0])
        if own is not None:
            layers[own] += tt
            continue
        attributed = 0.0
        for caller, edge in callers.items():
            attributed += edge[2]
            for layer, share in owner(caller, frozenset({func})).items():
                layers[layer] += edge[2] * share
        layers["other"] += tt - attributed
    return {layer: layers.get(layer, 0.0) for layer in LAYERS}


def profile_total(stats: dict[Func, tuple]) -> float:
    """Total self time of a profile (what :func:`group_self_time` splits)."""
    return sum(entry[2] for entry in stats.values())


class Counters:
    """Named counts and summed durations, fed by installed wrappers."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self._undo: list[Callable[[], None]] = []

    def add(self, name: str, amount: float = 1.0) -> None:
        self.values[name] += amount

    def wrap_method(self, cls: type, name: str,
                    make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` with ``make(original)`` until :meth:`remove`."""
        original = cls.__dict__[name]
        setattr(cls, name, functools.wraps(original)(make(original)))
        self._undo.append(lambda: setattr(cls, name, original))

    def wrap_function(self, module: Any, name: str,
                      make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.name`` and every ``repro`` module's alias of it."""
        original = getattr(module, name)
        wrapper = functools.wraps(original)(make(original))
        holders = [module] + [
            mod for key, mod in list(sys.modules.items())
            if (key == "repro" or key.startswith("repro.")) and mod is not module
            and getattr(mod, name, None) is original
        ]
        for holder in holders:
            setattr(holder, name, wrapper)
            self._undo.append(lambda h=holder: setattr(h, name, original))

    def timed(self, key: str) -> Callable[[Callable], Callable]:
        """A wrapper factory summing the wall time of every call into ``key``."""
        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.values[key] += time.perf_counter() - start
            return wrapper
        return make

    def counted(self, key: str) -> Callable[[Callable], Callable]:
        """A wrapper factory counting calls only."""
        def make(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self.values[key] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def recorded(calls: list) -> Callable[[Callable], Callable]:
    """A wrapper factory appending (end, duration) of every call to ``calls``.

    On Linux ``time.perf_counter`` reads the system-wide monotonic clock, so
    the end times of calls made in another process can be matched against
    this process's phase windows.
    """
    def make(original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                calls.append((end, end - start))
        return wrapper
    return make


def install_simulation_counters(counters: Counters) -> None:
    """Counts on the simulation layers (kernel, transport, noise, MPI)."""
    from repro.cluster.machine import SimulatedCluster
    from repro.cluster.noise import NoiseModel
    from repro.mpi import runtime
    from repro.simlib.kernel import Simulator

    def run(original: Callable) -> Callable:
        def wrapper(self: Simulator, *args: Any, **kwargs: Any) -> Any:
            before = self.events_processed
            try:
                return original(self, *args, **kwargs)
            finally:
                counters.add("simlib.runs")
                counters.add("simlib.events", self.events_processed - before)
        return wrapper

    counters.wrap_method(Simulator, "run", run)
    counters.wrap_method(SimulatedCluster, "transmit", counters.counted("cluster.transmits"))
    counters.wrap_method(NoiseModel, "perturb", counters.counted("cluster.noise_draws"))
    counters.wrap_function(runtime, "run_ranks", counters.counted("mpi.rank_runs"))


def install_benchmark_counters(counters: Counters) -> None:
    """Points, repetitions and converged points of ``CollectiveBenchmark``."""
    from repro.benchlib import CollectiveBenchmark

    def measure(original: Callable) -> Callable:
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
            point = original(self, *args, **kwargs)
            counters.add("benchlib.points")
            counters.add("benchlib.reps", point.summary.count)
            counters.add("benchlib.converged", point.summary.within(self.policy.rel_err))
            return point
        return wrapper

    counters.wrap_method(CollectiveBenchmark, "measure", measure)


def install_journal_counters(counters: Counters) -> None:
    """Journal appends, bytes written and ``os.fsync`` calls."""
    from repro.estimation.journal import CampaignJournal

    def append(original: Callable) -> Callable:
        def wrapper(self: Any, record: Any) -> Any:
            before = self._handle.tell()
            result = original(self, record)
            counters.add("journal.appends")
            counters.add("journal.bytes", self._handle.tell() - before)
            return result
        return wrapper

    counters.wrap_method(CampaignJournal, "append", append)
    counters.wrap_function(os, "fsync", counters.counted("journal.fsyncs"))
