"""Crash-safe supervision for the prediction daemon.

:class:`Supervisor` runs the server as a child process and keeps it
answering:

* a **watchdog** probes the ``health`` verb every
  ``health_interval`` seconds; a child that stops answering (wedged
  event loop, deadlocked worker) for ``health_misses`` consecutive
  probes — or never answers within ``startup_grace`` — is killed with
  SIGKILL and treated as a crash;
* a crashed child (nonzero exit, killed by a signal, ``kill -9`` from
  outside) is **restarted** after an exponential backoff
  (``restart_backoff.delay(n)``: 0.2 s doubling per crash, capped at
  5 s); the backoff resets once a child proves healthy;
* a **crash loop** — ``restart_limit`` crashes inside a sliding
  ``restart_window`` seconds — makes the supervisor give up with the
  distinct exit code :data:`CRASH_LOOP_EXIT` instead of burning CPU
  restarting a server that can never come up (bad model file, port
  held by someone else, broken snapshot path);
* a child that exits **zero** (graceful drain via SIGTERM or the
  ``drain`` verb) ends supervision normally — intentional shutdown is
  not a crash.

Restart-survivability of *state* is the server's side of the contract:
``ServeConfig.snapshot_path`` makes the model registry overlay durable
(fsynced atomic snapshot, written before a registration is
acknowledged), so every model registered before a ``kill -9`` is
re-served by the restarted child.  The supervisor only has to point
every incarnation at the same snapshot file.

Everything is observable: ``supervisor_restarts_total`` counts
restarts, the ``supervisor_crash_loop`` gauge goes to 1 when the
supervisor gives up, and each lifecycle step emits an event — the
``service_crash_loop`` alert rule watches the gauge.

Exposed on the CLI as ``repro serve --supervised`` (docs/service.md).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.serve.client import RetryPolicy, ServiceClient

__all__ = ["CRASH_LOOP_EXIT", "Supervisor", "SupervisorConfig", "resolve_port"]

#: Exit code when supervision gives up on a crash-looping child —
#: distinct from the child's own exit codes so process managers can
#: tell "the service is misconfigured" from "the service failed once".
CRASH_LOOP_EXIT = 86


def resolve_port(host: str = "127.0.0.1") -> int:
    """Pre-resolve an ephemeral port so every restarted child binds the
    *same* endpoint (clients reconnect to one address across crashes)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, 0))
        return int(sock.getsockname()[1])


@dataclass(frozen=True)
class SupervisorConfig:
    """One supervised service: the child argv and the watchdog knobs."""

    #: Child argv, e.g. ``[sys.executable, "-m", "repro.cli", "serve", ...]``.
    #: Must serve on the endpoint below with a *concrete* port.
    command: Sequence[str]
    host: str = "127.0.0.1"
    port: int = 7725
    unix_path: Optional[str] = None
    #: Seconds between health probes.
    health_interval: float = 0.5
    #: Per-probe connect/call timeout.
    health_timeout: float = 2.0
    #: Seconds a fresh child gets to answer its first probe.
    startup_grace: float = 20.0
    #: Consecutive failed probes (after being healthy) before the child
    #: is declared wedged and killed.
    health_misses: int = 3
    #: Crashes within ``restart_window`` seconds that end supervision.
    restart_limit: int = 5
    restart_window: float = 60.0
    #: Delay before a restart; attempt n is the crash count since the
    #: last healthy child.  Only the delay fields are read: the crash
    #: loop is bounded by ``restart_limit``, not ``max_retries``.
    restart_backoff: RetryPolicy = RetryPolicy(
        base_delay=0.2, max_delay=5.0, multiplier=2.0, jitter=0.0
    )

    def __post_init__(self) -> None:
        if not self.command:
            raise ValueError("command must be a non-empty argv")
        if self.restart_limit < 1:
            raise ValueError("restart_limit must be >= 1")
        if self.restart_window <= 0 or self.health_interval <= 0:
            raise ValueError("restart_window and health_interval must be > 0")
        if self.health_misses < 1:
            raise ValueError("health_misses must be >= 1")


# Watch outcomes.
_EXITED = "exited"
_WEDGED = "wedged"
_STOPPED = "stopped"


@dataclass
class Supervisor:
    """Run, watch, restart; give up only on a crash loop."""

    config: SupervisorConfig
    restarts: int = 0
    gave_up: bool = False
    child: Optional[subprocess.Popen] = field(default=None, repr=False)
    incarnation: int = 0
    _stop: threading.Event = field(default_factory=threading.Event, repr=False)
    _crashes: deque = field(default_factory=deque, repr=False)

    # -- probing --------------------------------------------------------------------
    def _probe(self) -> bool:
        cfg = self.config
        try:
            with ServiceClient(host=cfg.host, port=cfg.port,
                               unix_path=cfg.unix_path,
                               timeout=cfg.health_timeout) as client:
                client.health()
            return True
        except Exception:  # noqa: BLE001 - any failure is a missed probe
            return False

    def _watch(self, child: subprocess.Popen) -> tuple[str, bool]:
        """Block until the child exits, wedges, or stop() is called.
        Returns (outcome, was_ever_healthy)."""
        cfg = self.config
        first_deadline = time.monotonic() + cfg.startup_grace
        healthy_once = False
        misses = 0
        while True:
            if self._stop.is_set():
                return _STOPPED, healthy_once
            if child.poll() is not None:
                return _EXITED, healthy_once
            if self._probe():
                healthy_once = True
                misses = 0
            elif healthy_once:
                misses += 1
                if misses >= cfg.health_misses:
                    return _WEDGED, healthy_once
            elif time.monotonic() > first_deadline:
                return _WEDGED, healthy_once
            self._stop.wait(cfg.health_interval)

    # -- lifecycle ------------------------------------------------------------------
    def _spawn(self) -> subprocess.Popen:
        # Hand the active trace down to the child (fresh span id per
        # incarnation) so a restarted server's ``service_started`` event
        # carries the same trace id as the supervisor's restart events.
        env = None
        ctx = _trace.current()
        if ctx is not None:
            env = dict(os.environ)
            env[_trace.ENV_VAR] = ctx.child().to_traceparent()
        self.incarnation += 1
        child = subprocess.Popen(list(self.config.command), env=env)
        self.child = child
        self._event("info", "supervisor_child_started", pid=child.pid,
                    incarnation=self.incarnation)
        return child

    def _kill(self, child: subprocess.Popen, grace: float = 10.0) -> None:
        """SIGTERM (the child drains), then SIGKILL if it lingers."""
        if child.poll() is not None:
            return
        child.terminate()
        try:
            child.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()

    def stop(self) -> None:
        """Graceful stop from another thread or a signal handler."""
        self._stop.set()

    def run(self) -> int:
        """Supervise until graceful shutdown (0), a crash loop
        (:data:`CRASH_LOOP_EXIT`), or :meth:`stop`."""
        cfg = self.config
        consecutive = 0
        rng = cfg.restart_backoff.rng()
        while True:
            child = self._spawn()
            outcome, was_healthy = self._watch(child)
            if outcome == _STOPPED:
                self._kill(child)
                self._event("info", "supervisor_stopped", pid=child.pid)
                return 0
            if outcome == _WEDGED:
                # Not answering health: nothing graceful left to try.
                child.kill()
                child.wait()
                self._event("warning", "supervisor_child_wedged",
                            pid=child.pid, healthy_once=was_healthy)
            returncode = child.returncode
            if outcome == _EXITED and returncode == 0:
                # Graceful drain (SIGTERM / drain verb): intentional.
                self._event("info", "supervisor_child_drained", pid=child.pid)
                return 0
            now = time.monotonic()
            self._crashes.append(now)
            while self._crashes and now - self._crashes[0] > cfg.restart_window:
                self._crashes.popleft()
            self._event("warning", "supervisor_child_crashed",
                        pid=child.pid, returncode=returncode,
                        crashes_in_window=len(self._crashes))
            if len(self._crashes) >= cfg.restart_limit:
                self.gave_up = True
                self._gauge("supervisor_crash_loop", 1.0)
                self._event(
                    "error", "supervisor_gave_up",
                    crashes=len(self._crashes), window=cfg.restart_window,
                )
                return CRASH_LOOP_EXIT
            consecutive = 0 if was_healthy else consecutive + 1
            backoff = cfg.restart_backoff.delay(consecutive, rng)
            self.restarts += 1
            self._counter("supervisor_restarts_total")
            if self._stop.wait(backoff):
                return 0

    def run_under_signals(self) -> int:
        """:meth:`run` with SIGTERM/SIGINT routed to :meth:`stop` —
        what ``repro serve --supervised`` calls from the main thread."""
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_args: self.stop()
            )
        try:
            return self.run()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # -- telemetry ------------------------------------------------------------------
    @staticmethod
    def _event(level: str, name: str, **fields: object) -> None:
        tel = _obs.ACTIVE
        if tel is not None:
            ctx = _trace.current()
            if ctx is not None and "trace_id" not in fields:
                fields["trace_id"] = ctx.trace_id
            getattr(tel.events, level)(name, **fields)

    @staticmethod
    def _counter(name: str) -> None:
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.counter(
                name, help="supervised child restarts").inc()

    @staticmethod
    def _gauge(name: str, value: float) -> None:
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.gauge(
                name, help="1 when supervision gave up on a crash loop"
            ).set(value)
