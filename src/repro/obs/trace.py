"""Cross-process trace context (W3C ``traceparent``-style).

A *trace* is one logical operation — a client request riding through
retries, the server, a worker, and down into the simulation kernel; a
*span* is one timed piece of it in one process.  This module carries the
correlation state between processes:

* :class:`TraceContext` — an immutable ``(trace_id, span_id, sampled)``
  triple, serialized as a W3C-traceparent-style header
  ``00-<32 hex>-<16 hex>-<01|00>``;
* a :mod:`contextvars` slot holding the *current* context, which
  :class:`repro.obs.spans.SpanRecorder` reads to stamp every span it
  opens with the active ``trace_id``;
* :func:`parse_traceparent` — **strict but forgiving**: any malformed
  header parses to ``None`` (the untraced fallback) and never raises.
  A bad header must degrade a request to untraced, not kill it;
* :data:`ENV_VAR` / :func:`from_environ` — propagation into child
  processes that are spawned rather than called (the service
  supervisor, parallel campaign workers).

The wire protocol (:mod:`repro.serve.protocol`) carries the header in
the request envelope's ``trace`` key; :class:`repro.serve.client.ResilientClient`
keeps one trace across every retry of a logical call and mints a fresh
span id per attempt, so a stitched timeline shows the retry structure.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import contextvars
import os
import random
import secrets
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

__all__ = [
    "ENV_VAR",
    "TRACEPARENT_VERSION",
    "TraceContext",
    "current",
    "from_environ",
    "new_context",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "use",
]

#: The traceparent version this module emits (the W3C original).
TRACEPARENT_VERSION = "00"

#: Environment variable carrying a traceparent into spawned children
#: (supervised servers, campaign worker processes).
ENV_VAR = "REPRO_TRACEPARENT"

_TRACE_ID_HEX = 32
_SPAN_ID_HEX = 16
_HEX_DIGITS = frozenset("0123456789abcdef")


def new_trace_id(rng: Optional[random.Random] = None) -> str:
    """A fresh 128-bit trace id (32 lowercase hex chars, never all-zero).

    Pass a seeded ``rng`` for deterministic ids in tests; the default
    draws from :mod:`secrets`.
    """
    while True:
        if rng is None:
            trace_id = secrets.token_hex(_TRACE_ID_HEX // 2)
        else:
            trace_id = f"{rng.getrandbits(4 * _TRACE_ID_HEX):0{_TRACE_ID_HEX}x}"
        if trace_id != "0" * _TRACE_ID_HEX:
            return trace_id


def new_span_id(rng: Optional[random.Random] = None) -> str:
    """A fresh 64-bit span id (16 lowercase hex chars, never all-zero)."""
    while True:
        if rng is None:
            span_id = secrets.token_hex(_SPAN_ID_HEX // 2)
        else:
            span_id = f"{rng.getrandbits(4 * _SPAN_ID_HEX):0{_SPAN_ID_HEX}x}"
        if span_id != "0" * _SPAN_ID_HEX:
            return span_id


@dataclass(frozen=True)
class TraceContext:
    """One point in a distributed trace: which trace, which parent span."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def __post_init__(self) -> None:
        if not _is_hex(self.trace_id, _TRACE_ID_HEX) \
                or self.trace_id == "0" * _TRACE_ID_HEX:
            raise ValueError(f"invalid trace_id {self.trace_id!r}")
        if not _is_hex(self.span_id, _SPAN_ID_HEX) \
                or self.span_id == "0" * _SPAN_ID_HEX:
            raise ValueError(f"invalid span_id {self.span_id!r}")

    def to_traceparent(self) -> str:
        """The wire form: ``00-<trace_id>-<span_id>-<flags>``."""
        flags = "01" if self.sampled else "00"
        return f"{TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    def child(self, rng: Optional[random.Random] = None) -> "TraceContext":
        """Same trace, fresh span id — one hop deeper (a retry attempt, a
        spawned worker, a queued work item)."""
        return TraceContext(self.trace_id, new_span_id(rng), self.sampled)


def _is_hex(value: object, length: int) -> bool:
    return (
        isinstance(value, str)
        and len(value) == length
        and all(ch in _HEX_DIGITS for ch in value)
    )


def new_context(rng: Optional[random.Random] = None,
                sampled: bool = True) -> TraceContext:
    """Start a brand-new trace (fresh trace id and span id)."""
    return TraceContext(new_trace_id(rng), new_span_id(rng), sampled)


def parse_traceparent(header: object) -> Optional[TraceContext]:
    """Parse a traceparent header; ``None`` for anything malformed.

    This function **never raises**: a request carrying a garbage header
    must be served untraced, not rejected.  Accepted form (the W3C
    version-00 layout, lowercase hex only)::

        00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01

    Rejected (→ ``None``): wrong field count or lengths, non-hex digits,
    uppercase hex, all-zero trace or span ids, and the reserved version
    ``ff``.  Unknown (non-``00``) versions are accepted when their first
    four fields have the version-00 shape, per the spec's
    forward-compatibility rule.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if not _is_hex_lower(version, 2) or version == "ff":
        return None
    if version == TRACEPARENT_VERSION and len(parts) != 4:
        return None
    if not _is_hex_lower(trace_id, _TRACE_ID_HEX) \
            or trace_id == "0" * _TRACE_ID_HEX:
        return None
    if not _is_hex_lower(span_id, _SPAN_ID_HEX) \
            or span_id == "0" * _SPAN_ID_HEX:
        return None
    if not _is_hex_lower(flags, 2):
        return None
    sampled = bool(int(flags, 16) & 0x01)
    return TraceContext(trace_id, span_id, sampled)


def _is_hex_lower(value: str, length: int) -> bool:
    # The W3C grammar is lowercase-only; uppercase hex is malformed.
    return len(value) == length and all(ch in _HEX_DIGITS for ch in value)


# -- the current context ----------------------------------------------------------
_CURRENT: contextvars.ContextVar[Optional[TraceContext]] = contextvars.ContextVar(
    "repro_obs_trace_context", default=None
)


def current() -> Optional[TraceContext]:
    """The active trace context in this task/thread, or ``None``."""
    return _CURRENT.get()


def activate(ctx: Optional[TraceContext]) -> contextvars.Token:
    """Set the current context (including ``None`` = untraced); returns
    the token for :func:`restore`.  Prefer :func:`use` where a ``with``
    block fits."""
    return _CURRENT.set(ctx)


def restore(token: contextvars.Token) -> None:
    """Undo a matching :func:`activate`."""
    _CURRENT.reset(token)


@contextmanager
def use(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """``with use(ctx):`` — activate ``ctx`` for the block, restoring the
    previous context even when the block raises."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


def from_environ(
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[TraceContext]:
    """The trace context a parent process handed us via :data:`ENV_VAR`,
    or ``None`` (malformed values fall back to untraced, never raise)."""
    env = os.environ if environ is None else environ
    return parse_traceparent(env.get(ENV_VAR))
