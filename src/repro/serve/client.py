"""Blocking clients for the prediction daemon.

Two clients share one typed verb surface:

* :class:`ServiceClient` — one socket, one request line per call, one
  response line back.  Error replies re-raise as the *same* typed
  exceptions :mod:`repro.api` raises in-process
  (:func:`repro.api.errors.from_payload`), and result payloads parse
  back into the same schema-v3 dataclasses — code written against the
  facade ports to the wire by swapping ``api.predict(model_obj, ...)``
  for ``client.predict("model-name", ...)``::

      with ServiceClient(port=7725) as client:
          p = client.predict("lmo", "scatter", "linear", 65536)
          print(p.seconds)

* :class:`ResilientClient` — the same surface, wrapped in the retry /
  deadline / idempotency discipline a caller facing a real network (or
  a supervised server that restarts underneath it) needs:

  - only *retryable* failures are retried: ``overloaded``, connection
    reset/refused, timeouts, and wire-integrity failures
    (:class:`~repro.serve.protocol.WireError`).  A typed server verdict
    (``invalid_request``, ``model_not_loaded``, ``deadline_exceeded``,
    a genuine ``internal_error`` reply) is final and raises immediately;
  - backoff between attempts is exponential with *seeded* jitter
    (:class:`RetryPolicy`) — deterministic under a fixed seed, so the
    chaos tests replay exactly;
  - an optional per-call ``deadline_ms`` budget is propagated on the
    wire (the server sheds the request unexecuted once it expires) and
    bounds the retry loop client-side;
  - every logical call carries one idempotency key across all of its
    retries, so a retried ``predict``/``estimate`` is deduplicated
    server-side rather than re-executed — retries are safe even for
    side-effectful verbs.

Both clients are deliberately synchronous (benchmarks drive concurrency
by running many clients, as real callers would); neither is thread-safe —
use one client per thread.
"""

from __future__ import annotations

import random
import socket
import time
import uuid
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Union

from repro.api import errors, schema
from repro.api.errors import ApiError, InternalError, Overloaded
from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.predict_service import PredictRequest
from repro.serve import protocol
from repro.serve.protocol import WireError

__all__ = [
    "EstimateReply",
    "ResilientClient",
    "RetryExhausted",
    "RetryPolicy",
    "ServiceClient",
]


class EstimateReply(NamedTuple):
    """An ``estimate`` verb's reply: the outcome document (``model`` is
    ``None`` — the model lives server-side) and its registry name."""

    outcome: schema.EstimateOutcome
    registered_as: str


class _Verbs:
    """Typed verb wrappers over an abstract ``call`` — shared by the
    plain and the resilient client so both expose one surface."""

    def call(self, verb: str, params: Optional[Mapping[str, Any]] = None) -> dict:
        raise NotImplementedError

    def predict(
        self,
        model: str,
        operation: str,
        algorithm: str,
        nbytes: float,
        root: int = 0,
        dest: Optional[int] = None,
    ) -> schema.Prediction:
        params: dict[str, Any] = {
            "model": model, "operation": operation, "algorithm": algorithm,
            "nbytes": nbytes, "root": root,
        }
        if dest is not None:
            params["dest"] = dest
        return schema.Prediction.from_dict(self.call("predict", params))

    def predict_many(
        self,
        model: str,
        requests: Sequence[Union[Mapping[str, Any], PredictRequest,
                                 schema.PredictParams]],
    ) -> schema.PredictionBatch:
        items = []
        for request in requests:
            if isinstance(request, PredictRequest):
                item: dict[str, Any] = {
                    "model": model, "operation": request.operation,
                    "algorithm": request.algorithm, "nbytes": request.nbytes,
                    "root": request.root,
                }
                if request.dest is not None:
                    item["dest"] = request.dest
            elif isinstance(request, schema.PredictParams):
                item = request.to_dict()
            else:
                item = dict(request)
            items.append(item)
        return schema.PredictionBatch.from_dict(
            self.call("predict_many", {"model": model, "requests": items})
        )

    def estimate(self, **params: Any) -> EstimateReply:
        """Server-side estimation; see :class:`repro.api.schema.EstimateParams`
        for the keyword menu (model, profile, nodes, seed, reps, quick,
        empirical, register_as)."""
        result = self.call("estimate", params)
        return EstimateReply(
            outcome=schema.EstimateOutcome.from_dict(result),
            registered_as=str(result.get("registered_as", "")),
        )

    def optimize(
        self,
        model: str,
        sizes: Sequence[float],
        root: int = 0,
        safety: float = 0.9,
    ) -> schema.GatherOptimization:
        return schema.GatherOptimization.from_dict(self.call("optimize", {
            "model": model, "sizes": list(sizes), "root": root,
            "safety": safety,
        }))

    def health(self) -> dict:
        return self.call("health")

    def obs(self) -> dict:
        return self.call("obs")

    def drain(self) -> dict:
        return self.call("drain")


class ServiceClient(_Verbs):
    """One connection to a running ``repro serve`` daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7725,
        unix_path: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        # Everything between socket creation and a fully-set-up client
        # must close the fd on failure — a refused connect or a hung
        # handshake must not leak a descriptor per attempt (a resilient
        # caller makes *many* attempts).
        if unix_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(timeout)
                sock.connect(unix_path)
            except BaseException:
                sock.close()
                raise
            self.endpoint = unix_path
        else:
            sock = socket.create_connection((host, port), timeout=timeout)
            self.endpoint = f"{host}:{port}"
        try:
            self._file = sock.makefile("rwb")
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._next_id = 0

    # -- plumbing -----------------------------------------------------------------
    def settimeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-operation socket timeout (deadline budgeting)."""
        self._sock.settimeout(timeout)

    def call(self, verb: str, params: Optional[Mapping[str, Any]] = None,
             deadline_ms: Optional[float] = None,
             idempotency_key: Optional[str] = None) -> dict:
        """One request/response round trip; raises the typed taxonomy."""
        self._next_id += 1
        request_id = self._next_id
        # Each wire request is one hop of the active trace: same trace
        # id, fresh span id (so retries through ResilientClient are
        # distinguishable attempts of one trace).
        ctx = _trace.current()
        header = None if ctx is None else ctx.child().to_traceparent()
        with _obs.span("client.request", verb=verb, request_id=request_id):
            self._file.write(protocol.encode_request(
                verb, params or {}, request_id,
                deadline_ms=deadline_ms, idempotency_key=idempotency_key,
                trace=header,
            ))
            self._file.flush()
            doc = protocol.decode_response(self._file.readline())
        got_id = doc.get("id")
        if got_id is not None and got_id != request_id:
            raise WireError(
                f"response id {got_id!r} does not match request id {request_id}"
            )
        if not doc.get("ok"):
            raise errors.from_payload(doc.get("error", {}))
        result = doc.get("result", {})
        if not isinstance(result, dict):
            raise InternalError(f"malformed result payload: {result!r}")
        return result

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter: the one wall-clock delay.

    ``delay(attempt)`` for attempt 0, 1, 2, ... is
    ``min(max_delay, base_delay * multiplier**attempt)`` scaled by a
    jitter factor drawn from the policy's own RNG — two policies built
    with the same ``seed`` produce the same delay sequence, so resilience
    tests and the chaos benchmark replay deterministically.  Client
    reconnects and supervisor restarts both sleep it; the simulated-time
    timeout budget of a measurement is
    :class:`repro.estimation.robust.RetryPolicy`.
    """

    max_retries: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: Fraction of each delay randomized away (0 = fully deterministic,
    #: 0.5 = delays land in [0.5, 1.0] × the exponential value).
    jitter: float = 0.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1.0:
            raise ValueError("delays must be >= 0 and multiplier >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def rng(self) -> random.Random:
        """A fresh RNG for one client's jitter stream."""
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * rng.random())


class RetryExhausted(ConnectionError):
    """Every allowed attempt failed with a retryable error.

    Distinct from a first-try hard failure: the caller *did* tolerate
    transient faults and the service still never answered.  Carries the
    final underlying error and the attempt count.
    """

    def __init__(self, verb: str, attempts: int, last_error: BaseException):
        self.verb = verb
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"{verb!r} failed after {attempts} attempt(s); "
            f"last error: {last_error}"
        )


def _is_retryable(exc: BaseException) -> bool:
    """The retry whitelist: overload backpressure, wire integrity
    failures, and transport-level errors (reset, refused, timeout).
    Typed server verdicts are final."""
    if isinstance(exc, (Overloaded, WireError)):
        return True
    if isinstance(exc, ApiError):
        return False
    return isinstance(exc, (OSError, TimeoutError))


class ResilientClient(_Verbs):
    """Retrying, deadline-aware, idempotent-by-default service client.

    Reconnects lazily: a connection is (re)established on demand, and a
    transport failure drops it so the next attempt dials fresh — which
    is what lets the client ride through a supervised server restart.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7725,
        unix_path: Optional[str] = None,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        #: Default per-call deadline budget (ms); per-call override wins.
        self.deadline_ms = deadline_ms
        #: Attempts the most recent call used (1 = first try succeeded).
        self.last_attempts = 0
        #: Total retries (attempts beyond the first) this client made.
        self.retries_total = 0
        self._rng = self.retry.rng()
        self._conn: Optional[ServiceClient] = None
        self._calls = 0
        self._client_id = uuid.uuid4().hex[:16]

    # -- connection management ----------------------------------------------------
    def _connect(self) -> ServiceClient:
        if self._conn is None:
            self._conn = ServiceClient(
                host=self.host, port=self.port, unix_path=self.unix_path,
                timeout=self.timeout,
            )
        return self._conn

    def _disconnect(self) -> None:
        if self._conn is not None:
            conn, self._conn = self._conn, None
            conn.close()

    def close(self) -> None:
        self._disconnect()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the retry loop -----------------------------------------------------------
    def call(self, verb: str, params: Optional[Mapping[str, Any]] = None,
             deadline_ms: Optional[float] = None,
             idempotent: bool = True) -> dict:
        """One *logical* call: up to ``1 + max_retries`` wire attempts,
        all carrying the same idempotency key, bounded by the deadline.
        """
        budget_ms = deadline_ms if deadline_ms is not None else self.deadline_ms
        overall: Optional[float] = None
        if budget_ms is not None:
            if budget_ms <= 0:
                raise errors.InvalidRequest(
                    f"deadline_ms must be positive, got {budget_ms!r}")
            overall = time.monotonic() + budget_ms / 1000.0
        self._calls += 1
        key = f"{self._client_id}-{self._calls}" if idempotent else None
        # One trace per *logical* call: every retry rides the same trace
        # id (each wire attempt mints its own span id downstream).  A
        # trace is only auto-started when telemetry is on — otherwise the
        # whole feature costs one `is None` check per call.
        base = _trace.current()
        if base is None and _obs.ACTIVE is not None:
            base = _trace.new_context()
        attempts = 0
        last_error: Optional[BaseException] = None
        while True:
            remaining_ms: Optional[float] = None
            if overall is not None:
                remaining_ms = (overall - time.monotonic()) * 1000.0
                if remaining_ms <= 0.0:
                    exhausted = errors.DeadlineExceeded(
                        f"client-side deadline of {budget_ms} ms expired "
                        f"after {attempts} attempt(s)"
                    )
                    if last_error is not None:
                        raise exhausted from last_error
                    raise exhausted
            try:
                with _trace.use(base), _obs.span(
                    "client.attempt", verb=verb, attempt=attempts + 1,
                ):
                    conn = self._connect()
                    if remaining_ms is not None:
                        conn.settimeout(min(self.timeout, remaining_ms / 1000.0))
                    else:
                        conn.settimeout(self.timeout)
                    result = conn.call(verb, params, deadline_ms=remaining_ms,
                                       idempotency_key=key)
            except BaseException as exc:
                if not _is_retryable(exc):
                    raise
                attempts += 1
                last_error = exc
                self._disconnect()
                tel = _obs.ACTIVE
                if tel is not None:
                    tel.registry.counter(
                        "service_client_retries_total",
                        help="retryable client attempt failures", verb=verb,
                    ).inc()
                if attempts > self.retry.max_retries:
                    self.last_attempts = attempts
                    raise RetryExhausted(verb, attempts, exc) from exc
                pause = self.retry.delay(attempts - 1, self._rng)
                if overall is not None:
                    pause = min(pause, max(0.0, overall - time.monotonic()))
                if pause > 0.0:
                    time.sleep(pause)
            else:
                self.last_attempts = attempts + 1
                self.retries_total += attempts
                return result
