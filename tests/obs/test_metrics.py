"""Unit tests for the metrics registry and Prometheus exposition."""

import json
import math
import re

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    bucket_quantile,
    family_sum,
    merged_buckets,
    prometheus_text,
)

# A strict line-level validator for the Prometheus text exposition format
# (what promtool's parser accepts for names, labels and values).
_PROM_HELP = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_PROM_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\")*\})?"  # labels
    r" (\+Inf|-Inf|NaN|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$"  # value
)


def assert_valid_prometheus(text):
    """Every line must be a HELP/TYPE comment or a well-formed sample."""
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        ok = (
            _PROM_HELP.match(line)
            or _PROM_TYPE.match(line)
            or _PROM_SAMPLE.match(line)
        )
        assert ok, f"invalid Prometheus exposition line: {line!r}"


def test_counter_inc_and_total():
    reg = MetricsRegistry()
    reg.counter("units_total", help="units", outcome="done").inc()
    reg.counter("units_total", outcome="done").inc(2)
    reg.counter("units_total", outcome="failed").inc()
    assert reg.value("units_total", outcome="done") == 3
    assert reg.value("units_total", outcome="failed") == 1
    assert family_sum(reg.snapshot(), "units_total") == 4
    # Untouched children and unknown families read zero, not KeyError.
    assert reg.value("units_total", outcome="skipped") == 0
    assert reg.value("no_such_metric") == 0


def test_counter_rejects_negative_increment():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="only go up"):
        reg.counter("c_total").inc(-1)


def test_gauge_set_inc_dec():
    g = MetricsRegistry().gauge("coverage")
    g.set(0.5)
    g.inc(0.25)
    g.dec(0.5)
    assert g.value == pytest.approx(0.25)


def test_metric_kind_conflict_is_an_error():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("x_total")


def test_bad_metric_and_label_names_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="bad metric name"):
        reg.counter("2bad")
    with pytest.raises(ValueError, match="bad label name"):
        reg.counter("ok_total", **{"bad-label": 1})


def test_histogram_log2_buckets_and_overflow():
    h = Histogram(lo=-2, hi=2)  # bounds 0.25, 0.5, 1, 2, 4
    assert h.bounds == [0.25, 0.5, 1.0, 2.0, 4.0]
    h.observe(0.2)   # first bucket
    h.observe(1.0)   # exact bound lands in that bucket
    h.observe(3.0)
    h.observe(100.0)  # +Inf overflow
    assert h.count == 4
    assert h.sum == pytest.approx(104.2)
    assert h.bucket_counts[0] == 1
    assert h.bucket_counts[2] == 1
    assert h.bucket_counts[4] == 1
    assert h.bucket_counts[5] == 1  # +Inf
    with pytest.raises(ValueError):
        h.observe(float("nan"))


def _exact_quantile(values, q):
    """Nearest-rank quantile of a sorted sample (the reference)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def test_bucket_quantile_interpolates_within_a_bucket():
    # 2 obs in (0, 1], 2 in (1, 2]: the median sits at the top of the
    # first bucket, the 75th percentile halfway through the second.
    buckets = [[1.0, 2], [2.0, 2], ["+Inf", 0]]
    assert bucket_quantile(buckets, 4, 0.5) == pytest.approx(1.0)
    assert bucket_quantile(buckets, 4, 0.75) == pytest.approx(1.5)
    assert bucket_quantile(buckets, 4, 0.0) == pytest.approx(0.0)
    assert bucket_quantile(buckets, 4, 1.0) == pytest.approx(2.0)


def test_bucket_quantile_edge_cases():
    assert math.isnan(bucket_quantile([[1.0, 0], ["+Inf", 0]], 0, 0.5))
    with pytest.raises(ValueError):
        bucket_quantile([[1.0, 1], ["+Inf", 0]], 1, 1.5)
    # Mass in the +Inf bucket clamps to the highest finite bound.
    assert bucket_quantile([[1.0, 0], [2.0, 0], ["+Inf", 5]], 5, 0.5) == 2.0


def _snapshot_buckets(values, lo, hi):
    """Snapshot-form buckets and count of one histogram of ``values``."""
    reg = MetricsRegistry()
    h = reg.histogram("h", lo=lo, hi=hi)
    for v in values:
        h.observe(v)
    (sample,) = reg.snapshot()["h"]["samples"]
    return sample["buckets"], sample["count"]


def test_interpolated_quantiles_track_exact_quantiles():
    # A known sample set: uniform on (0, 10] at 0.01 resolution.  Within
    # each log2 bucket the distribution really is uniform, so the
    # interpolation assumption holds and p50 is near-exact; the top
    # bucket (8, 16] is only filled to 10, so higher quantiles drift —
    # but must stay inside the holding bucket (within 2x of exact).
    values = [i / 100.0 for i in range(1, 1001)]
    buckets, count = _snapshot_buckets(values, lo=-10, hi=4)
    for q in (0.50, 0.90, 0.95, 0.99):
        exact = _exact_quantile(values, q)
        interpolated = bucket_quantile(buckets, count, q)
        ratio = interpolated / exact
        assert 0.5 <= ratio <= 2.0, (q, exact, interpolated)
    median = bucket_quantile(buckets, count, 0.50)
    assert median == pytest.approx(5.0, rel=0.01)
    # And it refines the upper bound (8.0) of the bucket holding the median.
    assert abs(median - 5.0) < abs(8.0 - 5.0)


def test_interpolated_quantile_empty_and_bounds():
    buckets, count = _snapshot_buckets([], lo=-20, hi=6)
    assert math.isnan(bucket_quantile(buckets, count, 0.5))
    with pytest.raises(ValueError):
        bucket_quantile(buckets, count, -0.1)


# -- the snapshot reader ----------------------------------------------------------
def _requests_snapshot():
    reg = MetricsRegistry()
    reg.counter("req", verb="predict", outcome="ok").inc(3)
    reg.counter("req", verb="predict", outcome="error").inc(1)
    reg.counter("req", verb="estimate", outcome="ok").inc(2)
    reg.histogram("lat", verb="predict").observe(0.1)
    reg.histogram("lat", verb="predict").observe(0.2)
    reg.histogram("lat", verb="estimate").observe(3.0)
    return reg.snapshot()


def test_family_sum_matches_labels_as_a_subset():
    metrics = _requests_snapshot()
    assert family_sum(metrics, "req") == 6.0
    assert family_sum(metrics, "req", (("verb", "predict"),)) == 4.0
    assert family_sum(metrics, "req", (("outcome", "ok"),)) == 5.0
    assert family_sum(metrics, "req", (("verb", "predict"), ("outcome", "ok"))) == 3.0
    assert family_sum(metrics, "req", (("verb", "drain"),)) == 0.0


def test_family_sum_counts_histogram_observations():
    metrics = _requests_snapshot()
    assert family_sum(metrics, "lat") == 3.0
    assert family_sum(metrics, "lat", (("verb", "predict"),)) == 2.0


def test_family_sum_of_an_absent_family_is_zero():
    assert family_sum(_requests_snapshot(), "missing") == 0.0
    assert family_sum({}, "req", (("verb", "predict"),)) == 0.0


def test_merged_buckets_adds_matching_samples_and_keeps_inf():
    reg = MetricsRegistry()  # bounds 0.25, 0.5, 1, 2, 4, then +Inf
    reg.histogram("lat", lo=-2, hi=2, verb="predict", worker="0").observe(0.2)
    reg.histogram("lat", lo=-2, hi=2, verb="predict", worker="1").observe(0.2)
    reg.histogram("lat", lo=-2, hi=2, verb="predict", worker="1").observe(9.0)
    reg.histogram("lat", lo=-2, hi=2, verb="estimate").observe(3.0)
    family = reg.snapshot()["lat"]
    assert merged_buckets(family, (("verb", "predict"),)) == [
        [0.25, 2], [0.5, 0], [1.0, 0], [2.0, 0], [4.0, 0], ["+Inf", 1]]
    everything = merged_buckets(family)
    assert everything == [
        [0.25, 2], [0.5, 0], [1.0, 0], [2.0, 0], [4.0, 1], ["+Inf", 1]]
    assert merged_buckets(family, (("verb", "drain"),)) == []
    assert merged_buckets(None) == []
    # The merged form is what bucket_quantile reads.
    assert bucket_quantile(everything, 4, 1.0) == 4.0


def test_snapshot_roundtrips_through_json():
    reg = MetricsRegistry()
    reg.counter("units_total", help="units", outcome="done").inc(3)
    reg.gauge("coverage").set(0.75)
    reg.histogram("lat_seconds", lo=-4, hi=0).observe(0.1)
    snap = json.loads(json.dumps(reg.snapshot()))
    assert snap["units_total"]["type"] == "counter"
    assert snap["units_total"]["samples"][0]["labels"] == {"outcome": "done"}
    assert snap["units_total"]["samples"][0]["value"] == 3
    hist = snap["lat_seconds"]["samples"][0]
    assert hist["count"] == 1
    assert hist["buckets"][-1][0] == "+Inf"
    # And the rendered text from the JSON round-trip is identical.
    assert prometheus_text(snap) == reg.to_prometheus()


def test_prometheus_text_is_valid_exposition():
    reg = MetricsRegistry()
    reg.counter("units_total", help="finished units", outcome="done").inc(3)
    reg.counter("units_total", outcome='we "quote"\nnewline\\slash').inc()
    reg.gauge("coverage", help="fraction solved").set(0.75)
    reg.histogram("lat_seconds", help="latencies", lo=-2, hi=2).observe(0.3)
    text = reg.to_prometheus()
    assert_valid_prometheus(text)
    # Histogram convention: cumulative buckets ending at +Inf, sum, count.
    assert 'lat_seconds_bucket{le="+Inf"} 1' in text
    assert "lat_seconds_sum 0.3" in text
    assert "lat_seconds_count 1" in text
    cumulative = [
        int(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith("lat_seconds_bucket")
    ]
    assert cumulative == sorted(cumulative)


def test_prometheus_nonfinite_values_render_canonically():
    # Regression: NaN gauges used to render as lowercase 'nan' (repr),
    # which the exposition-format parser rejects.
    reg = MetricsRegistry()
    reg.gauge("g_nan").set(float("nan"))
    reg.gauge("g_inf").set(float("inf"))
    reg.gauge("g_ninf").set(float("-inf"))
    text = reg.to_prometheus()
    assert_valid_prometheus(text)
    assert "g_nan NaN" in text
    assert "g_inf +Inf" in text
    assert "g_ninf -Inf" in text
    assert "g_nan nan" not in text  # the old lowercase-repr bug


def test_prometheus_numeric_label_values_are_coerced():
    # Regression: non-string label values crashed the escaping path
    # (int has no .replace); they must render as quoted strings.
    reg = MetricsRegistry()
    reg.counter("units_total", node=3).inc()
    reg.gauge("load", ratio=0.5).set(1.0)
    text = reg.to_prometheus()
    assert_valid_prometheus(text)
    assert 'units_total{node="3"} 1' in text
    assert 'load{ratio="0.5"} 1' in text


def test_prometheus_label_escaping_covers_all_specials():
    reg = MetricsRegistry()
    reg.counter("c_total", path='a\\b "q"\nend').inc()
    text = reg.to_prometheus()
    assert_valid_prometheus(text)
    assert r'path="a\\b \"q\"\nend"' in text
    # Help text escapes backslash and newline too.
    reg2 = MetricsRegistry()
    reg2.counter("d_total", help="line1\nline2\\tail").inc()
    text2 = reg2.to_prometheus()
    assert_valid_prometheus(text2)
    assert r"# HELP d_total line1\nline2\\tail" in text2


def test_reset_drops_all_families():
    reg = MetricsRegistry()
    reg.counter("a_total").inc()
    reg.reset()
    assert reg.families() == []
    assert family_sum(reg.snapshot(), "a_total") == 0


def test_merge_adds_counters_and_histograms_and_skips_gauges():
    worker = MetricsRegistry()
    worker.counter("events_total", help="h", kind="a").inc(3)
    worker.gauge("depth").set(7)
    worker.histogram("sizes", lo=0, hi=4).observe(3.0)
    worker.histogram("sizes", lo=0, hi=4).observe(100.0)
    home = MetricsRegistry()
    home.counter("events_total", help="h", kind="a").inc(2)
    home.histogram("sizes", lo=0, hi=4).observe(1.0)

    home.merge(json.loads(json.dumps(worker.snapshot())))
    assert home.value("events_total", kind="a") == 5
    assert "depth" not in home.families()
    sizes = home.histogram("sizes", lo=0, hi=4)
    assert sizes.count == 3 and sizes.sum == 104.0
    assert sizes.bucket_counts == [1, 0, 1, 0, 0, 1]

    narrow = MetricsRegistry()
    narrow.histogram("sizes", lo=0, hi=1).observe(1.0)
    with pytest.raises(ValueError):
        home.merge(narrow.snapshot())
