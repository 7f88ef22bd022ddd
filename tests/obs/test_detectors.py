"""Unit tests for the live escalation region (live M1/M2)."""

import pytest

from repro.obs.insight.detectors import (
    DELAY_METRIC,
    ESCALATED_METRIC,
    TRANSFER_METRIC,
    live_irregularity,
)
from repro.obs.metrics import MetricsRegistry


def _transfers(reg, nbytes, count, escalated=0):
    """``count`` transfers of ``nbytes``, the first ``escalated`` of which
    ate a natural escalation — the machine layer's instrumentation."""
    for i in range(count):
        reg.histogram(TRANSFER_METRIC, lo=0, hi=28).observe(nbytes)
        if i < escalated:
            reg.histogram(ESCALATED_METRIC, lo=0, hi=28).observe(nbytes)


def _region_registry():
    """Traffic with an escalation region over the (8K, 64K] buckets."""
    reg = MetricsRegistry()
    _transfers(reg, 1024, 10)
    _transfers(reg, 16384, 10, escalated=3)
    _transfers(reg, 65536, 8, escalated=4)
    _transfers(reg, 262144, 10)
    reg.histogram(DELAY_METRIC, cause="incast").observe(0.21)
    # Injected-fault escalations must not contaminate the delay estimate.
    reg.histogram(DELAY_METRIC, cause="loss").observe(30.0)
    return reg


def test_streaming_estimate_brackets_the_region():
    live = live_irregularity(_region_registry().snapshot())
    # First escalating bucket is (8192, 16384]: M1 = its lower edge.
    assert live.m1 == 8192.0
    assert live.m2 == 65536.0
    # The 0.21 s incast delay, interpolated to the middle of its
    # (0.125, 0.25] bucket; the 30 s loss delay is left out.
    assert live.escalation_value == pytest.approx(0.1875)
    rates = {r.upper: r.rate for r in live.rates}
    assert rates[1024.0] == 0.0
    assert rates[16384.0] == pytest.approx(0.3)
    assert rates[65536.0] == pytest.approx(0.5)


def test_estimate_is_none_until_something_escalates():
    reg = MetricsRegistry()
    assert live_irregularity(reg.snapshot()) is None
    _transfers(reg, 4096, 20)
    assert live_irregularity(reg.snapshot()) is None


def test_min_transfers_gates_noisy_buckets():
    reg = _region_registry()
    # One lone escalated transfer in a huge bucket must not widen M2.
    _transfers(reg, 8 << 20, 1, escalated=1)
    assert live_irregularity(reg.snapshot()).m2 == 65536.0
