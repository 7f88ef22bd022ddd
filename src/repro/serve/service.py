"""Stateful worker tasks behind the prediction server.

The server owns a small fleet of workers, each an asyncio task with an
explicit state machine (``created -> running -> draining -> stopped``)
and a *bounded* inbox queue — the StatefulService discipline: work is
rejected loudly (:class:`~repro.api.errors.Overloaded`) rather than
buffered without limit, and shutdown is a first-class state in which the
queue is emptied before the task exits, never abandoned.

Two worker types:

* :class:`PredictWorker` — cheap vectorized work (``predict``,
  ``predict_many``, ``optimize``).  ``predict`` requests are *coalesced*:
  after the first request is picked up, the worker sleeps one batch
  window (letting concurrently-arriving requests land in its queue),
  then evaluates everything queued as one
  :func:`repro.api.predict_many` call per model.  The scalar and the
  vectorized paths share one formula evaluation
  (:mod:`repro.predict_service`), so a batched reply is bit-identical
  to an in-process :func:`repro.api.predict` — determinism is tested,
  not hoped for.  The server runs one, so every predict meets every
  other in the same queue.
* :class:`EstimateWorker` — expensive simulation-driven estimation,
  run in one long-lived child process (see :class:`EstimateWorker`),
  so a running estimation shares neither the event loop's GIL nor, at
  its lowered priority, a contended CPU with predict traffic.
  Estimated models are registered into the server's model registry
  under ``params.register_as`` (default ``<model>-<n>``).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro import api
from repro.api import schema
from repro.api.errors import DeadlineExceeded, InternalError, InvalidRequest, Overloaded
from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.pools import exit_with_parent, kill_workers
from repro.predict_service import PredictRequest, model_fingerprint
from repro.serve.protocol import Request

__all__ = [
    "CREATED",
    "DRAINING",
    "ESTIMATE_NICE",
    "ESTIMATE_PROCESSES",
    "ESTIMATE_START_METHOD",
    "RUNNING",
    "STOPPED",
    "EstimateWorker",
    "PredictWorker",
    "StatefulWorker",
    "WorkItem",
]

# -- worker/server states ---------------------------------------------------------
CREATED = "created"
RUNNING = "running"
DRAINING = "draining"
STOPPED = "stopped"

#: Queue sentinel: drain marker, always the last item a worker sees.
_STOP = object()

#: Estimation processes: one, so estimates run one at a time.
ESTIMATE_PROCESSES = 1
#: Start method of the estimation process (see :class:`EstimateWorker`).
ESTIMATE_START_METHOD = "spawn"
#: ``os.nice`` increment of the estimation process.  Predicts are
#: interactive and estimates are batch work, so on a contended CPU the
#: event loop runs first.
ESTIMATE_NICE = 10


@dataclass
class WorkItem:
    """One queued request: the decoded wire request, the model it was
    routed by (resolved at dispatch, so a registry reload mid-queue never
    changes what an accepted request computes against), and the future
    the connection handler awaits."""

    request: Request
    model: Any
    future: "asyncio.Future[Mapping[str, Any]]" = field(repr=False)
    #: Absolute ``time.monotonic()`` instant past which the request is
    #: shed unexecuted (from the envelope's ``deadline_ms``), or None.
    deadline: Optional[float] = None
    #: Trace context captured at dispatch — the worker task runs in its
    #: own asyncio context, so the request's trace must travel with the
    #: item, not in a contextvar.
    trace: Optional[_trace.TraceContext] = None


def _shed_if_expired(item: WorkItem, worker_name: str) -> bool:
    """Fail an expired queued item with ``deadline_exceeded`` (unrun).

    Returns True when the item was shed; the caller skips execution.
    The check sits at the moment a worker *picks the item up* — work
    already executing is never abandoned mid-flight.
    """
    if item.deadline is None or time.monotonic() <= item.deadline:
        return False
    if not item.future.cancelled():
        item.future.set_exception(DeadlineExceeded(
            f"request spent its whole deadline_ms budget queued on "
            f"worker {worker_name}; shed without executing"
        ))
    tel = _obs.ACTIVE
    if tel is not None:
        tel.registry.counter(
            "service_deadline_shed_total",
            help="requests shed unexecuted after their deadline expired",
            worker=worker_name,
        ).inc()
        tel.events.warning(
            "service_deadline_shed", worker=worker_name,
            verb=item.request.verb, request_id=item.request.id,
            trace_id=None if item.trace is None else item.trace.trace_id,
        )
    return True


class StatefulWorker:
    """One worker task: bounded inbox, explicit lifecycle, loud overload."""

    def __init__(self, name: str, queue_limit: int = 64) -> None:
        self.name = name
        self.state = CREATED
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max(1, queue_limit))
        self.processed = 0
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self.state != CREATED:
            raise RuntimeError(f"worker {self.name} already started ({self.state})")
        self.state = RUNNING
        self._task = asyncio.create_task(
            self._run(), name=f"repro-serve-{self.name}"
        )

    @property
    def depth(self) -> int:
        """Requests currently queued (the backpressure signal)."""
        return self.queue.qsize()

    def submit(self, item: WorkItem) -> None:
        """Enqueue or reject — never block the event loop on a full queue."""
        if self.state != RUNNING:
            raise Overloaded(
                f"worker {self.name} is {self.state}; not accepting work"
            )
        try:
            self.queue.put_nowait(item)
        except asyncio.QueueFull:
            raise Overloaded(
                f"worker {self.name} queue is full ({self.queue.maxsize} "
                f"requests); back off and retry"
            ) from None
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.gauge(
                "service_queue_depth", help="queued requests per worker",
                worker=self.name,
            ).set(float(self.depth))

    async def drain(self) -> None:
        """Stop accepting, finish everything already queued, then exit."""
        if self.state == STOPPED:
            return
        if self.state == CREATED:
            self.state = STOPPED
            return
        self.state = DRAINING
        await self.queue.put(_STOP)  # FIFO: lands behind all accepted work
        if self._task is not None:
            await self._task
        self.state = STOPPED

    async def abort(self) -> None:
        """Hard stop: cancel the task; queued futures stay unanswered."""
        task = self._task
        if task is not None and not task.done():
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await task
        self.state = STOPPED

    # -- processing ---------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            item = await self.queue.get()
            if item is _STOP:
                break
            await self._process([item])

    async def _process(self, batch: list[WorkItem]) -> None:
        for item in batch:
            self.processed += 1
            if item.future.cancelled():
                continue
            if _shed_if_expired(item, self.name):
                continue
            # Re-activate the request's trace: this task was spawned at
            # server startup, so the dispatch-time context does not reach
            # it by inheritance — it rides on the WorkItem instead.
            traced = nullcontext() if item.trace is None else _trace.use(item.trace)
            try:
                with traced, _obs.span(
                    "serve.worker", verb=item.request.verb, worker=self.name,
                    request_id=item.request.id,
                ):
                    result = await self._handle(item)
            except asyncio.CancelledError:
                raise
            except BaseException as exc:  # noqa: BLE001 - mapped to the taxonomy
                if not item.future.cancelled():
                    item.future.set_exception(exc)
            else:
                if not item.future.cancelled():
                    item.future.set_result(result)

    async def _handle(self, item: WorkItem) -> Mapping[str, Any]:
        raise NotImplementedError


class PredictWorker(StatefulWorker):
    """Vectorized-prediction worker with a coalescing batch window."""

    def __init__(self, name: str, queue_limit: int = 64,
                 batch_window: float = 0.002) -> None:
        super().__init__(name, queue_limit)
        self.batch_window = max(0.0, batch_window)
        self.batches = 0

    async def _run(self) -> None:
        stopping = False
        while not stopping:
            item = await self.queue.get()
            if item is _STOP:
                break
            batch = [item]
            if self.batch_window > 0.0:
                # Let concurrently-arriving requests land; the event loop
                # keeps serving connections during this sleep.
                await asyncio.sleep(self.batch_window)
            while True:
                try:
                    extra = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _STOP:
                    stopping = True
                    break
                batch.append(extra)
            await self._process(batch)

    async def _process(self, batch: list[WorkItem]) -> None:
        predicts = [item for item in batch if item.request.verb == "predict"]
        others = [item for item in batch if item.request.verb != "predict"]
        if predicts:
            self._process_predicts(predicts)
        if others:
            await super()._process(others)

    def _process_predicts(self, items: list[WorkItem]) -> None:
        """Coalesce a batch of predict requests into one vectorized
        evaluation per model; per-item failures stay per-item."""
        self.batches += 1
        tel = _obs.ACTIVE
        if tel is not None:
            tel.registry.histogram(
                "service_batch_size",
                help="predict requests coalesced per evaluation",
                lo=0, hi=10,
            ).observe(float(len(items)))
        # A coalesced batch may serve several traces at once; the batch
        # span joins the first traced request and names every trace it
        # carried, so a stitched timeline shows which batch answered you.
        trace_ids = sorted({
            item.trace.trace_id for item in items if item.trace is not None
        })
        first_traced = next(
            (item.trace for item in items if item.trace is not None), None
        )
        traced = nullcontext() if first_traced is None else _trace.use(first_traced)
        with traced, _obs.span(
            "serve.worker.batch", worker=self.name, coalesced=len(items),
            traces=trace_ids,
        ):
            self._evaluate_predicts(items)

    def _evaluate_predicts(self, items: list[WorkItem]) -> None:
        groups: dict[str, list[tuple[WorkItem, schema.PredictParams]]] = {}
        for item in items:
            self.processed += 1
            if item.future.cancelled():
                continue
            if _shed_if_expired(item, self.name):
                continue
            try:
                params = schema.PredictParams.from_dict(item.request.params)
            except Exception as exc:  # noqa: BLE001 - reported per item
                item.future.set_exception(exc)
                continue
            groups.setdefault(model_fingerprint(item.model), []).append(
                (item, params)
            )
        for members in groups.values():
            model = members[0][0].model
            requests = [
                PredictRequest(operation=p.operation, algorithm=p.algorithm,
                               nbytes=p.nbytes, root=p.root, dest=p.dest)
                for _, p in members
            ]
            try:
                seconds = api.predict_many(model, requests)
            except Exception:  # noqa: BLE001 - one bad point: retry singly
                self._process_predicts_singly(model, members)
                continue
            for (item, p), value in zip(members, seconds):
                if item.future.cancelled():
                    continue
                prediction = api._as_prediction(
                    model, p.operation, p.algorithm, p.nbytes, p.root, value
                )
                item.future.set_result(prediction.to_dict())

    @staticmethod
    def _process_predicts_singly(
        model: Any, members: list[tuple[WorkItem, schema.PredictParams]]
    ) -> None:
        """Fallback when a coalesced evaluation fails: evaluate each
        request alone so only the actually-bad ones error out."""
        for item, p in members:
            if item.future.cancelled():
                continue
            kwargs = {"dest": p.dest} if p.operation == "p2p" else {}
            try:
                prediction = api.predict(
                    model, p.operation, p.algorithm, p.nbytes, root=p.root,
                    **kwargs,
                )
            except Exception as exc:  # noqa: BLE001 - reported per item
                item.future.set_exception(exc)
            else:
                item.future.set_result(prediction.to_dict())

    async def _handle(self, item: WorkItem) -> Mapping[str, Any]:
        verb = item.request.verb
        if verb == "predict_many":
            params = schema.PredictManyParams.from_dict(item.request.params)
            mismatched = sorted({
                p.model for p in params.requests if p.model != params.model
            })
            if mismatched:
                raise InvalidRequest(
                    f"predict_many evaluates one model per call; batch names "
                    f"{params.model!r} but items name {mismatched}"
                )
            requests = [
                PredictRequest(operation=p.operation, algorithm=p.algorithm,
                               nbytes=p.nbytes, root=p.root, dest=p.dest)
                for p in params.requests
            ]
            seconds = api.predict_many(item.model, requests)
            return schema.PredictionBatch(
                seconds=tuple(float(s) for s in seconds)
            ).to_dict()
        if verb == "optimize":
            params = schema.OptimizeParams.from_dict(item.request.params)
            outcome = api.optimize_gather(
                item.model, params.sizes, root=params.root, safety=params.safety
            )
            return outcome.to_dict()
        raise InvalidRequest(f"worker {self.name} cannot handle verb {verb!r}")


class EstimateWorker(StatefulWorker):
    """Serialized estimation in a child process, results registered here.

    The child is the single worker of a ``spawn``
    :class:`~concurrent.futures.ProcessPoolExecutor`, started (and sent
    a no-op, so its imports run while the server is idle) by
    :meth:`start`.  Spawn rather than fork: by the first estimate the
    server has threads (the asyncio default executor, the pool's
    manager thread, an embedding host's threads).  The child lowers its
    own priority by :data:`ESTIMATE_NICE` and exits when the server
    process dies, ``SIGKILL`` included.  Registration and the registry
    snapshot stay in the server, before the reply.  A child that dies
    fails only the estimate it was running; the next one runs in a
    fresh child.
    """

    def __init__(self, name: str, registry: Any, queue_limit: int = 4) -> None:
        super().__init__(name, queue_limit)
        self.registry = registry
        self._pool: Any = None

    def start(self) -> None:
        super().start()
        self._pool = _estimation_pool()

    @property
    def pids(self) -> list[int]:
        """Process ids of the live estimation process (none before start
        or after shutdown)."""
        processes = getattr(self._pool, "_processes", None) or {}
        return sorted(processes)

    async def drain(self) -> None:
        """Answer every accepted estimate, then stop the child.

        The child is idle by then and holds nothing durable (the server
        registers and snapshots), so it is killed rather than left to
        finish its start-up imports and interpreter teardown; the pool
        reaps it off the event loop.
        """
        await super().drain()
        await asyncio.to_thread(self._kill_child)

    async def abort(self) -> None:
        """Hard stop, killing the child mid-estimate if need be."""
        await super().abort()
        self._kill_child()

    def _kill_child(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            kill_workers(pool)
            pool.shutdown(cancel_futures=True)  # reaps the killed child

    async def _handle(self, item: WorkItem) -> Mapping[str, Any]:
        params = schema.EstimateParams.from_dict(item.request.params)
        tel = _obs.ACTIVE
        outcome, telemetry = await self._in_child(params, item.trace,
                                                  tel is not None)
        if tel is not None and telemetry is not None:
            tel.spans.adopt(telemetry["spans"], telemetry["spans_epoch_unix"],
                            parent=tel.spans.current())
            tel.registry.merge(telemetry["metrics"])
        name = params.register_as or f"{params.model}-{outcome.n}"
        self.registry.register(name, outcome.model)
        if tel is not None:
            # ``name`` is the event name's positional slot on EventLog —
            # the registry name must ride under a different key.
            tel.events.info("service_model_registered", registered_as=name,
                            model=params.model, n=outcome.n)
        return {**outcome.to_dict(), "registered_as": name}

    async def _in_child(
        self, params: schema.EstimateParams,
        trace: Optional[_trace.TraceContext], telemetry: bool,
    ) -> tuple[schema.EstimateOutcome, Optional[dict]]:
        """:func:`_estimate_in_process` in the child, awaited off the loop."""
        from concurrent.futures.process import BrokenProcessPool

        if not all(p.is_alive() for p in self._pool._processes.values()):
            # Died between estimates (seen before the pool's manager
            # thread may have noticed): this estimate loses nothing.
            self._restart()
        future = self._pool.submit(_estimate_in_process, params, trace, telemetry)
        try:
            return await asyncio.wrap_future(future)
        except BrokenProcessPool as exc:
            self._restart()
            raise InternalError(
                "the estimation process died mid-estimate; the next "
                "estimate runs in a fresh one"
            ) from exc

    def _restart(self) -> None:
        broken, self._pool = self._pool, _estimation_pool()
        broken.shutdown(wait=False)
        tel = _obs.ACTIVE
        if tel is not None:
            tel.events.error("service_estimation_process_died", worker=self.name)


def _estimation_pool() -> Any:
    """The estimation pool, already sent a no-op so the child imports
    while the server idles."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=ESTIMATE_PROCESSES,
        mp_context=multiprocessing.get_context(ESTIMATE_START_METHOD),
        initializer=_init_estimation_process, initargs=(os.getpid(),),
    )
    # A child that dies while warming breaks the pool; the next submit
    # reports it, so the warm-up's own outcome is read and dropped.
    pool.submit(_ready).add_done_callback(
        lambda ready: ready.cancelled() or ready.exception())
    return pool


def _init_estimation_process(parent_pid: int) -> None:
    """Pool initializer: exit with the server, leave Ctrl-C in its
    terminal to the server, and yield the CPU to it."""
    exit_with_parent(parent_pid)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(os, "nice"):
        os.nice(ESTIMATE_NICE)


def _ready() -> None:
    """The warm-up task: returning proves the child is up."""


def _estimate_in_process(
    params: schema.EstimateParams,
    trace: Optional[_trace.TraceContext],
    telemetry: bool,
) -> tuple[schema.EstimateOutcome, Optional[dict]]:
    """One estimate, run in the estimation process.

    With ``telemetry`` it runs in a fresh telemetry session under the
    request's trace context, and returns that session's finished spans
    and metrics beside the outcome; the server adopts the spans and
    adds the metrics.
    """
    if not telemetry:
        return _estimate(params), None
    tel = _obs.enable(fresh=True)
    try:
        with _trace.use(trace):
            outcome = _estimate(params)
        return outcome, {
            "spans": tel.spans.to_dicts(),
            "spans_epoch_unix": tel.spans.epoch_unix,
            "metrics": tel.registry.snapshot(),
        }
    finally:
        _obs.disable()


def _estimate(params: schema.EstimateParams) -> schema.EstimateOutcome:
    cluster = api.load_cluster(
        nodes=params.nodes, profile=params.profile, seed=params.seed
    )
    return api.estimate(
        cluster, model=params.model, reps=params.reps,
        quick=params.quick, empirical=params.empirical,
    )
