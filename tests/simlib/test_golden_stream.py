"""Golden DES stream: seeded noisy runs pinned to the last bit.

``golden_stream.json`` holds what a small set of seeded runs on the
Table I cluster produced, floats as ``float.hex`` strings:

* every rank's finish time;
* the kernel's ``events_processed``;
* the :class:`~repro.cluster.machine.TransportStats` fields;
* one ``cluster.rng.random()`` drawn after the run, so one draw more or
  less shows even where the timings happen to agree.

The runs cover one round of each experiment kind through
``DESEngine.run_batch``; linear and binomial scatter and gather plus
binomial bcast at 1 KB, 16 KB (gather incast escalations) and 128 KB
(rendezvous); one sub-communicator gather; and one gather under a
:class:`~repro.cluster.faults.FaultInjector` (flaky link, CPU slowdown)
with a :class:`~repro.simlib.trace.Tracer` attached, whose intervals and
injector draw are pinned too.

A kernel, transport or message-layer change that fires one event in a
different order, or makes one draw more or less, fails here.  Only when
the random stream is meant to change (a declared change, with
EXPERIMENTS.md regenerated), rewrite the file with::

    PYTHONPATH=src python -m tests.simlib.test_golden_stream
"""

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import pytest

from repro import api
from repro.cluster.faults import FaultInjector, FaultPlan, FlakyLink, NodeSlowdown
from repro.estimation import engines
from repro.estimation.engines import DESEngine
from repro.estimation.experiments import (
    one_to_two,
    overhead_recv,
    overhead_send,
    roundtrip,
    saturation,
)
from repro.mpi.runtime import run_collective, run_group_collective
from repro.simlib import Tracer

KB = 1024
SEED = 11
GOLDEN = Path(__file__).with_name("golden_stream.json")

#: One round of node-disjoint experiments of each kind on 16 nodes.
_PAIRS = [(2 * i, 2 * i + 1) for i in range(8)]
ROUNDS = {
    "roundtrip": [roundtrip(i, j, 1 * KB) for i, j in _PAIRS],
    "one_to_two": [one_to_two(3 * i, 3 * i + 1, 3 * i + 2, 16 * KB, 1 * KB)
                   for i in range(5)],
    "overhead_send": [overhead_send(i, j, 4 * KB) for i, j in _PAIRS],
    "overhead_recv": [overhead_recv(i, j, 4 * KB) for i, j in _PAIRS],
    "saturation": [saturation(i, j, 100 * KB, 4) for i, j in _PAIRS],
}
COLLECTIVES = [("scatter", "linear"), ("scatter", "binomial"),
               ("gather", "linear"), ("gather", "binomial"), ("bcast", "binomial")]
SIZES = [1 * KB, 16 * KB, 128 * KB]
GROUP = [1, 4, 6, 9, 12, 15]


def _fields(stats) -> dict:
    """A counters dataclass as a dict, floats as ``float.hex``."""
    values = {f.name: getattr(stats, f.name) for f in fields(stats)}
    return {name: value.hex() if isinstance(value, float) else value
            for name, value in values.items()}


def _record(cluster, finish: dict) -> dict:
    """The pinned observables of the run that just ended on ``cluster``."""
    return {
        "finish": {str(rank): float(t).hex() for rank, t in sorted(finish.items())},
        "events": cluster.sim.events_processed,
        "stats": _fields(cluster.stats),
        "next_draw": float(cluster.rng.random()).hex(),
    }


@contextmanager
def _rank_finishes(into: dict):
    """Collect every rank's finish time of the engine's ``run_ranks`` calls."""
    original = engines.run_ranks

    def recording(cluster, programs, **kwargs):
        results = original(cluster, programs, **kwargs)
        into.update({rank: res.finish for rank, res in results.items()})
        return results

    engines.run_ranks = recording
    try:
        yield
    finally:
        engines.run_ranks = original


def _engine_case(kind: str) -> dict:
    cluster = api.load_cluster(seed=SEED)
    finish: dict = {}
    with _rank_finishes(finish):
        durations = DESEngine(cluster).run_batch(ROUNDS[kind])
    return {**_record(cluster, finish), "durations": [d.hex() for d in durations]}


def _collective_case(operation: str, algorithm: str, nbytes: int) -> dict:
    cluster = api.load_cluster(seed=SEED)
    run = run_collective(cluster, operation, algorithm, nbytes)
    return _record(cluster, {r: res.finish for r, res in run.results.items()})


def _group_case() -> dict:
    cluster = api.load_cluster(seed=SEED)
    run = run_group_collective(cluster, GROUP, "gather", "linear", 16 * KB, root=2)
    return _record(cluster, {r: res.finish for r, res in run.results.items()})


def _fault_case() -> dict:
    cluster = api.load_cluster(seed=SEED)
    plan = FaultPlan((FlakyLink(0, 3, 0.5), NodeSlowdown(2, 1.8)), seed=SEED)
    injector = FaultInjector(plan)
    cluster.attach_injector(injector)
    tracer = Tracer()
    cluster.attach_tracer(tracer)
    run = run_collective(cluster, "gather", "linear", 16 * KB)
    return {
        **_record(cluster, {r: res.finish for r, res in run.results.items()}),
        "intervals": [[i.lane, i.start.hex(), i.end.hex(), i.label]
                      for i in tracer.intervals],
        "injector_stats": _fields(injector.stats),
        "injector_draw": float(injector.rng.random()).hex(),
    }


def cases() -> dict:
    """Case name -> zero-argument function computing its record."""
    out = {f"engine/{kind}": (lambda kind=kind: _engine_case(kind)) for kind in ROUNDS}
    for operation, algorithm in COLLECTIVES:
        for nbytes in SIZES:
            out[f"{operation}/{algorithm}/{nbytes}"] = (
                lambda o=operation, a=algorithm, m=nbytes: _collective_case(o, a, m))
    out["group/gather/linear/16384"] = _group_case
    out["faults/gather/linear/16384"] = _fault_case
    return out


def compute_golden() -> dict:
    """The document stored in ``golden_stream.json``."""
    return {"seed": SEED, "cases": {name: case() for name, case in cases().items()}}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case():
    golden = _golden()
    assert golden["seed"] == SEED
    assert sorted(golden["cases"]) == sorted(cases())


def test_the_golden_set_exercises_escalations_rendezvous_and_faults():
    golden = _golden()["cases"]
    assert golden["gather/linear/16384"]["stats"]["escalations"] > 0
    assert golden["scatter/linear/131072"]["stats"]["rendezvous_handshakes"] > 0
    faults = golden["faults/gather/linear/16384"]
    assert faults["injector_stats"]["loss_escalations"] > 0
    assert faults["injector_stats"]["slowed_activities"] > 0


@pytest.mark.parametrize("name", sorted(cases()))
def test_seeded_run_matches_golden_stream(name):
    assert cases()[name]() == _golden()["cases"][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
