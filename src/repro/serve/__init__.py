"""repro.serve — the always-on prediction service daemon.

An asyncio server speaking newline-delimited JSON over TCP or a Unix
socket, answering the verbs ``predict`` / ``predict_many`` /
``estimate`` / ``optimize`` / ``obs`` / ``health`` / ``drain`` with the
same schema-v3 payloads and error codes as :mod:`repro.api` — one
serialization in-process and on the wire.  See ``docs/service.md`` for
the protocol reference and ``repro serve`` / ``repro client`` for the
command-line entry points.

Layout:

* :mod:`~repro.serve.protocol` — pure framing: en/decode request and
  response lines, line-size limit, verb table, CRC-32 integrity stamps,
  the ``deadline_ms`` / ``idempotency_key`` resilience envelope;
* :mod:`~repro.serve.service` — stateful worker tasks (bounded queues,
  coalescing predict batches, estimation in a low-priority child
  process, deadline shedding);
* :mod:`~repro.serve.server` — the daemon: routing, model registry
  (with a crash-safe snapshot), idempotent retry dedup, SIGHUP reload,
  graceful drain, telemetry;
* :mod:`~repro.serve.client` — blocking clients raising the same typed
  errors the facade raises: plain :class:`ServiceClient` and the
  retrying, deadline-aware :class:`ResilientClient`;
* :mod:`~repro.serve.supervisor` — crash-safe child supervision with a
  health-verb watchdog, backoff restarts and crash-loop detection
  (``repro serve --supervised``);
* :mod:`~repro.serve.chaos` — a deterministic wire-level fault-injecting
  proxy for the resilience suite and benchmark;
* :mod:`~repro.serve.runner` — in-process server hosting for tests and
  the load benchmark.
"""

from repro.serve.chaos import ChaosConfig, ChaosProxy, ChaosStats
from repro.serve.client import (
    EstimateReply,
    ResilientClient,
    RetryExhausted,
    RetryPolicy,
    ServiceClient,
)
from repro.serve.protocol import MAX_LINE_BYTES, VERBS, WireError
from repro.serve.runner import ServerThread
from repro.serve.server import ModelRegistry, PredictionServer, ServeConfig
from repro.serve.supervisor import (
    CRASH_LOOP_EXIT,
    Supervisor,
    SupervisorConfig,
)

__all__ = [
    "CRASH_LOOP_EXIT",
    "MAX_LINE_BYTES",
    "VERBS",
    "ChaosConfig",
    "ChaosProxy",
    "ChaosStats",
    "EstimateReply",
    "ModelRegistry",
    "PredictionServer",
    "ResilientClient",
    "RetryExhausted",
    "RetryPolicy",
    "ServeConfig",
    "ServerThread",
    "ServiceClient",
    "Supervisor",
    "SupervisorConfig",
    "WireError",
]
