"""The always-on prediction daemon.

:class:`PredictionServer` listens on TCP or a Unix socket, speaks the
NDJSON protocol of :mod:`repro.serve.protocol`, and routes queued verbs
onto the stateful workers of :mod:`repro.serve.service`:

* ``predict`` / ``predict_many`` / ``optimize`` go to one of
  ``config.workers`` :class:`PredictWorker` shards, chosen by the target
  model's content fingerprint — one model's requests always meet in the
  same queue, where concurrent ``predict`` calls coalesce into one
  vectorized evaluation;
* ``estimate`` goes to the single :class:`EstimateWorker` (bounded to a
  few queued estimations; estimation runs in a thread);
* ``health`` / ``obs`` / ``drain`` are answered inline by the server.

Backpressure is explicit: a full worker queue rejects the request with
the ``overloaded`` error code instead of buffering.  Lifecycle:

* ``SIGHUP`` reloads every file-backed model and atomically swaps the
  registry — in-flight and queued requests keep the model object they
  were dispatched with, so a reload drops nothing;
* ``SIGTERM`` (or the ``drain`` verb) drains: no new work is accepted,
  everything queued completes and is answered, workers and the listener
  shut down, and :meth:`serve_forever` returns.

Run it with ``repro serve`` (see ``docs/service.md``) or embed it::

    config = ServeConfig(port=0, models={"lmo": "/path/model.json"})
    server = PredictionServer(config)
    await server.start()
    print(server.endpoint)
    await server.serve_forever()
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro import api
from repro import io as _io
from repro.api.errors import (
    InvalidRequest,
    ModelNotLoaded,
    Overloaded,
    error_payload,
)
from repro.api.schema import SCHEMA_VERSION
from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.obs.insight.alerts import AlertEngine
from repro.predict_service import model_fingerprint
from repro.serve import protocol
from repro.serve.service import (
    CREATED,
    DRAINING,
    RUNNING,
    STOPPED,
    EstimateWorker,
    PredictWorker,
    StatefulWorker,
    WorkItem,
)

__all__ = ["ModelRegistry", "PredictionServer", "ServeConfig", "run_server", "serve"]

#: GIL switch interval of a ``repro serve`` process, in seconds.  The
#: event loop shares the GIL with the estimation thread, and a predict
#: that wakes the loop mid-estimate waits up to one interval for it
#: twice: on arrival and at the end of the batch window.  At CPython's
#: 5 ms default, predicts beside an estimate fell into latency modes
#: 5 ms apart whose weights shift with the threads' CPU placement, so
#: their p75 jumped between ~14.5 and ~19 ms from run to run on a 2-vCPU
#: VM.  At 1 ms the modes merge (p75 ~6-8 ms there), and estimate
#: throughput stays within its run-to-run spread.
SWITCH_INTERVAL_S = 0.001


@dataclass
class ServeConfig:
    """Everything the daemon needs to come up."""

    #: TCP bind address; ignored when ``unix_path`` is set.
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it from ``endpoint``).
    port: int = 0
    #: Serve on a Unix socket at this path instead of TCP.
    unix_path: Optional[str] = None
    #: name -> model JSON path (reloadable on SIGHUP) or model object.
    models: Mapping[str, Any] = field(default_factory=dict)
    #: Predict worker shards.
    workers: int = 2
    #: Seconds the predict shard waits after the first request for
    #: concurrent ones to coalesce with (0 disables batching).
    batch_window: float = 0.002
    #: Per-predict-worker queue bound; beyond it: ``overloaded``.
    queue_limit: int = 64
    #: Queued estimations bound (each can take minutes).
    estimate_queue_limit: int = 4
    #: Enable process telemetry at startup (the ``obs`` verb's source).
    telemetry: bool = True
    #: Crash-safe registry snapshot: every runtime-registered model is
    #: persisted here (atomic fsynced write) and restored at startup, so
    #: a ``kill -9`` + restart recovers the estimate overlay.
    snapshot_path: Optional[str] = None
    #: Completed idempotency keys remembered for retry deduplication.
    idempotency_capacity: int = 1024


#: Envelope kind of the registry snapshot file.
_SNAPSHOT_KIND = "serve_registry_snapshot"
_SNAPSHOT_VERSION = 1


class ModelRegistry:
    """Named models with atomic reload and a crash-safe overlay snapshot.

    ``load()`` re-reads every file-backed source into a *new* dict and
    swaps it in one assignment — readers either see the old set or the
    new one, never a half-loaded mix.  Models registered at runtime (the
    ``estimate`` verb) live in a separate overlay that survives reloads;
    with a ``snapshot_path`` the overlay is also persisted on every
    registration (write-temp-fsync-rename, the journal discipline of
    :func:`repro.io.atomic_write_text`) and restored by
    :meth:`restore`, so a ``kill -9`` loses nothing that was ever
    acknowledged as registered.
    """

    def __init__(self, sources: Optional[Mapping[str, Any]] = None,
                 snapshot_path: Optional[str] = None) -> None:
        self._sources = dict(sources or {})
        self._dynamic: dict[str, Any] = {}
        self._models: dict[str, Any] = {}
        self.snapshot_path = snapshot_path

    def load(self) -> int:
        """(Re)load every source; returns the number of models served."""
        loaded = {
            name: api.load_model(source) if isinstance(source, str) else source
            for name, source in self._sources.items()
        }
        loaded.update(self._dynamic)
        self._models = loaded  # atomic swap
        return len(loaded)

    def register(self, name: str, model: Any) -> None:
        """Add a runtime-estimated model (copy-on-write, reload-proof).

        With a snapshot path the overlay hits disk *before* the caller
        sees the registration — an acknowledged ``registered_as`` is
        durable against a hard kill the instant the reply is sent.
        """
        self._dynamic[name] = model
        self._persist()
        merged = dict(self._models)
        merged[name] = model
        self._models = merged

    # -- crash-safe overlay snapshot ----------------------------------------------
    def _persist(self) -> None:
        if self.snapshot_path is None:
            return
        doc = {
            "kind": _SNAPSHOT_KIND,
            "schema_version": _SNAPSHOT_VERSION,
            "models": {
                name: json.loads(_io.dumps(model))
                for name, model in sorted(self._dynamic.items())
            },
        }
        _io.atomic_write_text(self.snapshot_path, json.dumps(doc, indent=2))

    def restore(self) -> int:
        """Rehydrate the overlay from the snapshot file (startup path).

        Returns the number of models restored; in-memory registrations
        win over snapshot entries of the same name.  A missing file is a
        fresh start; a corrupt one (impossible under the atomic-write
        discipline, but disks lie) is reported and skipped rather than
        wedging startup into a crash loop.
        """
        if self.snapshot_path is None or not os.path.exists(self.snapshot_path):
            return 0
        try:
            with open(self.snapshot_path) as handle:
                doc = json.load(handle)
            if not isinstance(doc, dict) or doc.get("kind") != _SNAPSHOT_KIND:
                raise ValueError(f"not a {_SNAPSHOT_KIND} document")
            if doc.get("schema_version") != _SNAPSHOT_VERSION:
                raise ValueError(
                    f"unsupported snapshot version {doc.get('schema_version')!r}"
                )
            restored = {
                str(name): _io.loads(json.dumps(envelope))
                for name, envelope in doc.get("models", {}).items()
            }
        except (OSError, ValueError) as exc:
            tel = _obs.ACTIVE
            if tel is not None:
                tel.events.error("service_snapshot_unreadable",
                                 path=self.snapshot_path, error=str(exc))
            return 0
        count = 0
        added: dict[str, Any] = {}
        for name, model in restored.items():
            if name not in self._dynamic:
                self._dynamic[name] = model
                added[name] = model
                count += 1
        if added:
            merged = dict(self._models)
            merged.update(added)
            self._models = merged  # atomic swap, same as load()
        return count

    def get(self, name: Any) -> Any:
        if not isinstance(name, str):
            raise InvalidRequest(
                f"params.model must be a string model name, "
                f"got {type(name).__name__}"
            )
        try:
            return self._models[name]
        except KeyError:
            raise ModelNotLoaded(
                f"no model named {name!r}; loaded: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._models)


class PredictionServer:
    """The daemon: listener + worker fleet + registry + lifecycle."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.registry = ModelRegistry(config.models,
                                      snapshot_path=config.snapshot_path)
        self.state = CREATED
        self.requests_total = 0
        #: idempotency key -> the future answering that logical call.
        #: Retried requests attach to it instead of re-executing.
        self._idempotent: "OrderedDict[str, asyncio.Future]" = OrderedDict()
        self._workers: list[PredictWorker] = []
        self._estimator: Optional[EstimateWorker] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight = 0
        self._idle: asyncio.Event
        self._stopped: asyncio.Event
        self._alerts = AlertEngine()
        self._started_at = 0.0
        self._signals: list[int] = []
        self._drain_task: Optional[asyncio.Task] = None
        #: Trace context handed down by a parent process (the supervisor)
        #: via REPRO_TRACEPARENT; stamps lifecycle events so a restart
        #: correlates with the supervisor's timeline.
        self._boot_trace: Optional[_trace.TraceContext] = None

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        if self.state != CREATED:
            raise RuntimeError(f"server already started ({self.state})")
        if self.config.telemetry:
            _obs.enable()
        restored = self.registry.restore()
        count = self.registry.load()
        if restored:
            tel0 = _obs.ACTIVE
            if tel0 is not None:
                tel0.events.info("service_snapshot_restored", models=restored,
                                 path=self.config.snapshot_path)
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._workers = [
            PredictWorker(f"predict-{i}", self.config.queue_limit,
                          self.config.batch_window)
            for i in range(max(1, self.config.workers))
        ]
        self._estimator = EstimateWorker(
            "estimate", self.registry, self.config.estimate_queue_limit
        )
        for worker in self._all_workers():
            worker.start()
        if self.config.unix_path is not None:
            if os.path.exists(self.config.unix_path):
                os.unlink(self.config.unix_path)  # stale socket from a crash
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.unix_path,
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port,
                limit=protocol.MAX_LINE_BYTES,
            )
        self._install_signal_handlers()
        self._started_at = time.monotonic()
        self.state = RUNNING
        self._boot_trace = _trace.from_environ()
        tel = _obs.ACTIVE
        if tel is not None:
            fields: dict[str, Any] = {}
            if self._boot_trace is not None:
                fields["trace_id"] = self._boot_trace.trace_id
            tel.events.info(
                "service_started", endpoint=self.endpoint, models=count,
                workers=len(self._workers), **fields,
            )

    @property
    def endpoint(self) -> str:
        """``host:port`` (the *bound* port, also for ``port=0``) or the
        Unix socket path."""
        if self.config.unix_path is not None:
            return self.config.unix_path
        if self._server is None or not self._server.sockets:
            return f"{self.config.host}:{self.config.port}"
        host, port = self._server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    async def serve_forever(self) -> None:
        """Block until a drain (signal or verb) completes."""
        await self._stopped.wait()

    def reload(self) -> int:
        """SIGHUP handler: atomically swap in freshly-loaded models.

        Requests already dispatched keep the model object they were
        routed with — nothing in flight is dropped or re-answered.
        """
        count = self.registry.load()
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.info("service_models_reloaded", models=count)
        return count

    def request_drain(self) -> None:
        """Idempotently schedule a graceful drain (signal-handler safe)."""
        if self.state == RUNNING and self._drain_task is None:
            self._drain_task = asyncio.ensure_future(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: answer everything accepted, then stop."""
        if self.state in (DRAINING, STOPPED):
            await self._stopped.wait()
            return
        self.state = DRAINING
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.info("service_drain", inflight=self._inflight)
        if self._server is not None:
            self._server.close()  # no new connections
        if self._inflight > 0:
            self._idle.clear()
            await self._idle.wait()
        for worker in self._all_workers():
            await worker.drain()
        if self._server is not None:
            await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        self._remove_signal_handlers()
        if self.config.unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)
        self.state = STOPPED
        self._stopped.set()

    async def abort(self) -> None:
        """Hard-stop for abnormal exit paths: no drain, no new answers.

        Closes the listener and every connection, cancels the worker
        tasks, and — crucially — unlinks the Unix socket so the *next*
        startup does not trip over a stale path.  Queued futures are
        cancelled, not answered; anything durable (the registry
        snapshot) is already on disk.  Idempotent, and safe to call on a
        half-started server.
        """
        if self.state == STOPPED:
            return
        self.state = STOPPED
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.warning("service_aborted", inflight=self._inflight)
        if self._server is not None:
            self._server.close()
        for worker in self._all_workers():
            task = worker._task
            if task is not None and not task.done():
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError, Exception):
                    await task
            worker.state = STOPPED
        for writer in list(self._connections):
            writer.close()
        self._remove_signal_handlers()
        self._cleanup_socket()
        self._stopped.set()

    def _cleanup_socket(self) -> None:
        """Best-effort unlink of the Unix socket path (abnormal exits)."""
        if self.config.unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.config.unix_path)

    def _remember(self, key: str, future: asyncio.Future) -> None:
        """Record an idempotency key while its call runs; keep it after
        success (bounded LRU) and drop it on failure, so a retry of a
        *failed* attempt re-executes while a retry of a *successful* one
        replays the recorded result."""
        self._idempotent[key] = future
        while len(self._idempotent) > max(1, self.config.idempotency_capacity):
            self._idempotent.popitem(last=False)

        def _settle(fut: asyncio.Future) -> None:
            if (fut.cancelled() or fut.exception() is not None) \
                    and self._idempotent.get(key) is fut:
                del self._idempotent[key]

        future.add_done_callback(_settle)

    def _all_workers(self) -> list[StatefulWorker]:
        workers: list[StatefulWorker] = list(self._workers)
        if self._estimator is not None:
            workers.append(self._estimator)
        return workers

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGHUP, self.reload)
            self._signals.append(signal.SIGHUP)
            loop.add_signal_handler(signal.SIGTERM, self.request_drain)
            self._signals.append(signal.SIGTERM)
        except (NotImplementedError, RuntimeError, ValueError):
            # Not the main thread (ServerThread) or no signal support:
            # lifecycle still works via the drain verb / drain().
            pass

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in self._signals:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(signum)
        self._signals.clear()

    # -- connections --------------------------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.gauge(
                "service_connections", help="open client connections"
            ).inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line never fit in the buffer: the stream cannot
                    # be resynchronized.  Report and hang up.
                    oversized = InvalidRequest(
                        f"request line exceeds {protocol.MAX_LINE_BYTES} "
                        f"bytes; closing connection"
                    )
                    with contextlib.suppress(ConnectionError):
                        writer.write(protocol.encode_error(None, oversized))
                        await writer.drain()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not line:
                    break  # EOF: client hung up
                if not line.strip():
                    continue  # blank keep-alive line
                response = await self._dispatch(line)
                try:
                    writer.write(response)
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    break  # client vanished mid-reply; work already done
        finally:
            self._connections.discard(writer)
            if tel is not None:
                tel.registry.gauge(
                    "service_connections", help="open client connections"
                ).dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, line: bytes) -> bytes:
        """One request line in, one response line out — never raises."""
        self.requests_total += 1
        tel = _obs.ACTIVE
        start = time.perf_counter()
        verb = "invalid"
        outcome = "ok"
        try:
            try:
                request = protocol.decode_request(line)
            except InvalidRequest as exc:
                outcome = exc.code
                return protocol.encode_error(protocol.peek_id(line), exc)
            verb = request.verb
            # A malformed trace header yields None — the request is
            # served untraced, never rejected (satellite contract).
            ctx = _trace.parse_traceparent(request.trace)
            trace_id = None if ctx is None else ctx.trace_id
            try:
                with _trace.use(ctx), \
                        _obs.span("serve.request", verb=verb,
                                  request_id=request.id):
                    result = await self._handle_request(request)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - mapped to taxonomy
                payload = error_payload(exc)
                outcome = payload["code"]
                if tel is not None:
                    if outcome == Overloaded.code:
                        tel.events.warning(
                            "service_overloaded", verb=verb,
                            message=payload["message"],
                            request_id=request.id, trace_id=trace_id,
                        )
                    tel.events.error(
                        "service_request_failed", verb=verb,
                        code=outcome, request_id=request.id,
                        trace_id=trace_id,
                    )
                return protocol.encode_error(
                    request.id, exc,
                    extra={"request_id": request.id, "trace_id": trace_id},
                )
            return protocol.encode_response(request.id, result)
        finally:
            if tel is not None:
                tel.registry.counter(
                    "service_requests_total", help="wire requests by outcome",
                    verb=verb, outcome=outcome,
                ).inc()
                tel.registry.histogram(
                    "service_request_seconds",
                    help="wall latency per request", verb=verb,
                ).observe(time.perf_counter() - start)

    # -- verbs --------------------------------------------------------------------
    async def _handle_request(self, request: protocol.Request) -> Mapping[str, Any]:
        verb = request.verb
        if verb == "health":
            return self._health()
        if verb == "obs":
            return self._obs_snapshot()
        if verb == "drain":
            queued = sum(w.depth for w in self._all_workers())
            self.request_drain()
            return {"draining": True, "inflight": self._inflight,
                    "queued": queued}
        if self.state != RUNNING:
            raise Overloaded(f"server is {self.state}; no new work accepted")
        tel = _obs.ACTIVE
        key = request.idempotency_key
        if key is not None:
            cached = self._idempotent.get(key)
            if cached is not None:
                # A retry of a call we have answered (or are answering):
                # never re-execute — replay or attach.
                self._idempotent.move_to_end(key)
                if tel is not None:
                    tel.registry.counter(
                        "service_idempotent_hits_total",
                        help="retried requests deduplicated by idempotency key",
                        verb=verb,
                    ).inc()
                if cached.done():
                    return cached.result()
                return await asyncio.shield(cached)
        deadline: Optional[float] = None
        if request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1000.0
        if verb == "estimate":
            assert self._estimator is not None
            worker: StatefulWorker = self._estimator
            model = None
        else:  # predict / predict_many / optimize
            model = self.registry.get(request.params.get("model"))
            shard = int(model_fingerprint(model), 16) % len(self._workers)
            worker = self._workers[shard]
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._remember(key, future)
        try:
            worker.submit(WorkItem(request=request, model=model, future=future,
                                   deadline=deadline, trace=_trace.current()))
        except BaseException:
            # Never queued: the key must not block a retry from executing.
            if key is not None and self._idempotent.get(key) is future:
                del self._idempotent[key]
            raise
        self._inflight += 1
        self._idle.clear()
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.gauge(
                "service_inflight", help="accepted, unanswered requests"
            ).set(float(self._inflight))
        try:
            return await future
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()
            if tel is not None:
                tel.registry.gauge(
                    "service_inflight", help="accepted, unanswered requests"
                ).set(float(self._inflight))

    def _health(self) -> dict[str, Any]:
        return {
            "status": self.state,
            "schema_version": SCHEMA_VERSION,
            "endpoint": self.endpoint,
            "models": self.registry.names(),
            "inflight": self._inflight,
            "requests_total": self.requests_total,
            "uptime_seconds": (
                time.monotonic() - self._started_at if self._started_at else 0.0
            ),
            "workers": {
                worker.name: {
                    "state": worker.state,
                    "depth": worker.depth,
                    "processed": worker.processed,
                }
                for worker in self._all_workers()
            },
        }

    def _obs_snapshot(self) -> dict[str, Any]:
        tel = _obs.ACTIVE
        if tel is None:
            return {"enabled": False}
        snapshot = tel.to_dict()
        states = self._alerts.evaluate(snapshot["metrics"])
        return {
            "enabled": True,
            "telemetry": snapshot,
            "alerts": [state.to_dict() for state in states],
            "firing": self._alerts.firing(),
            "alerts_engine": self._alerts.to_dict(),
        }


async def run_server(config: ServeConfig) -> PredictionServer:
    """Start a server and block until it drains; returns the server.

    Exits that bypass the graceful drain — a cancelled task, an
    exception escaping the loop — still clean up: the listener closes
    and the Unix socket is unlinked (:meth:`PredictionServer.abort`), so
    a crashed daemon never leaves a stale socket a restart trips over.
    """
    server = PredictionServer(config)
    await server.start()
    try:
        await server.serve_forever()
    finally:
        if server.state != STOPPED:
            await server.abort()
    return server


def serve(config: ServeConfig) -> None:
    """Synchronous entry point (the ``repro serve`` command)."""
    asyncio.run(run_server(config))
