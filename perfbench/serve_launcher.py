"""Traced ``repro serve``: wrappers and a profiler around the real server.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launcher.py --out FILE -- serve --port 0 --model lmo=PATH

The launcher wraps ``protocol.decode_request``, ``protocol.encode_response``,
``api.estimate`` and ``ModelRegistry.register`` and counts the simulation
layers, then hands the remaining arguments to ``repro.cli.main``.  Batch
evaluation time comes from the server's own ``serve.worker.batch`` spans.
``SIGUSR1`` starts profiling the event-loop thread (and every
``api.estimate`` call, in its worker thread); ``SIGUSR2`` stops it, so the
load generator profiles only its measured phases.  When the server has
drained, everything recorded is written once to ``--out``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import signal
import sys
import time
from typing import Any, Callable

import layers


class Recorder:
    """Timestamped call durations plus the profiles of the toggled windows."""

    def __init__(self) -> None:
        self.calls: dict[str, list[tuple[float, float]]] = {
            key: [] for key in ("decode", "encode", "estimate", "register")}
        self.loop_profile = cProfile.Profile()
        self.thread_profiles: list[cProfile.Profile] = []
        self.profiling = False
        self.profiled = False

    def profiled_in_thread(self, original: Callable) -> Callable:
        """Profile calls made off the event loop while profiling is on."""
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.profiling:
                return original(*args, **kwargs)
            profile = cProfile.Profile()
            profile.enable()
            try:
                return original(*args, **kwargs)
            finally:
                profile.disable()
                self.thread_profiles.append(profile)
        return wrapper

    def start(self, *_: Any) -> None:
        self.profiling = self.profiled = True
        self.loop_profile.enable()

    def stop(self, *_: Any) -> None:
        self.loop_profile.disable()
        self.profiling = False

    def stats(self) -> dict:
        profiles = ([self.loop_profile] if self.profiled else []) + self.thread_profiles
        if not profiles:
            return {}
        merged = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            merged.add(profile)
        return merged.stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    start = time.perf_counter()
    import repro
    from repro import api
    import_s = time.perf_counter() - start
    from repro import cli
    from repro.serve import protocol
    from repro.serve.server import ModelRegistry

    recorder = Recorder()
    counters = layers.Counters()
    calls = recorder.calls
    counters.wrap_function(protocol, "decode_request", layers.recorded(calls["decode"]))
    counters.wrap_function(protocol, "encode_response", layers.recorded(calls["encode"]))
    counters.wrap_function(api, "estimate", lambda original: layers.recorded(
        calls["estimate"])(recorder.profiled_in_thread(original)))
    counters.wrap_method(ModelRegistry, "register", layers.recorded(calls["register"]))
    layers.install_simulation_counters(counters)
    signal.signal(signal.SIGUSR1, recorder.start)
    signal.signal(signal.SIGUSR2, recorder.stop)

    try:
        code = cli.main(cli_args)
    finally:
        recorder.stop()
        counters.remove()
        stats = recorder.stats()
        grouped = layers.group_self_time(
            stats, layers.package_layer(os.path.dirname(repro.__file__))
        ) if stats else {}
        doc = {
            "import_s": import_s,
            "calls": recorder.calls,
            "layers": grouped,
            "profile_total_s": layers.profile_total(stats) if stats else 0.0,
            "counters": dict(counters.values),
        }
        tmp = args.out + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(doc, handle)
        os.replace(tmp, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
