"""Unit tests for the cross-process trace context (W3C traceparent style)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import trace as _trace
from repro.obs.trace import TraceContext, new_context, parse_traceparent


def test_new_context_roundtrips_through_header():
    ctx = new_context(random.Random(7))
    parsed = parse_traceparent(ctx.to_traceparent())
    assert parsed == ctx


def test_child_keeps_trace_id_fresh_span_id():
    rng = random.Random(11)
    ctx = new_context(rng)
    kid = ctx.child(rng)
    assert kid.trace_id == ctx.trace_id
    assert kid.span_id != ctx.span_id
    assert kid.sampled == ctx.sampled


def test_unsampled_flag_roundtrips():
    ctx = new_context(random.Random(3), sampled=False)
    header = ctx.to_traceparent()
    assert header.endswith("-00")
    parsed = parse_traceparent(header)
    assert parsed is not None and parsed.sampled is False


def test_context_rejects_malformed_ids():
    with pytest.raises(ValueError):
        TraceContext("0" * 32, "1" * 16)
    with pytest.raises(ValueError):
        TraceContext("a" * 32, "XYZ")


@pytest.mark.parametrize("header", [
    None,
    42,
    "",
    "00",
    "00-abc-def-01",
    "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
    "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
    "00-" + "A" * 32 + "-" + "b" * 16 + "-01",  # uppercase hex is malformed
    "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # reserved version
    "00-" + "a" * 32 + "-" + "b" * 16 + "-01-extra",  # v00 is exactly 4 fields
    "0g-" + "a" * 32 + "-" + "b" * 16 + "-01",  # non-hex version
    "00-" + "a" * 32 + "-" + "b" * 16 + "-0g",  # non-hex flags
])
def test_parse_rejects_malformed_headers(header):
    assert parse_traceparent(header) is None


def test_parse_accepts_unknown_future_version_with_extra_fields():
    header = "01-" + "a" * 32 + "-" + "b" * 16 + "-01-whatever"
    parsed = parse_traceparent(header)
    assert parsed is not None and parsed.trace_id == "a" * 32


def test_use_restores_previous_context_even_on_raise():
    outer = new_context(random.Random(1))
    with _trace.use(outer):
        with pytest.raises(RuntimeError):
            with _trace.use(new_context(random.Random(2))):
                raise RuntimeError("boom")
        assert _trace.current() is outer
    assert _trace.current() is None


def test_from_environ_parses_and_degrades():
    ctx = new_context(random.Random(9))
    assert _trace.from_environ({_trace.ENV_VAR: ctx.to_traceparent()}) == ctx
    assert _trace.from_environ({_trace.ENV_VAR: "garbage"}) is None
    assert _trace.from_environ({}) is None


# -- property tests ---------------------------------------------------------------
_hex_chars = "0123456789abcdef"
_trace_ids = st.text(_hex_chars, min_size=32, max_size=32).filter(
    lambda s: s != "0" * 32
)
_span_ids = st.text(_hex_chars, min_size=16, max_size=16).filter(
    lambda s: s != "0" * 16
)


@given(trace_id=_trace_ids, span_id=_span_ids, sampled=st.booleans())
def test_any_valid_context_roundtrips(trace_id, span_id, sampled):
    ctx = TraceContext(trace_id, span_id, sampled)
    assert parse_traceparent(ctx.to_traceparent()) == ctx


@given(header=st.text(max_size=80))
def test_arbitrary_text_never_raises(header):
    parsed = parse_traceparent(header)
    # Either untraced fallback or a validly-shaped context — never an error.
    if parsed is not None:
        assert parse_traceparent(parsed.to_traceparent()) == parsed
