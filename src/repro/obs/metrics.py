"""Process-local metrics registry: counters, gauges, log2-bucket histograms.

The registry is the numeric half of :mod:`repro.obs`: named metric
*families*, each carrying zero or more *children* distinguished by label
values (the Prometheus data model, without the Prometheus client — the
whole subsystem is stdlib-only).  Three instrument types:

* :class:`Counter` — monotonically increasing float (`inc`);
* :class:`Gauge` — a value that goes both ways (`set` / `inc` / `dec`);
* :class:`Histogram` — observations bucketed into **fixed log2 buckets**
  (upper bounds ``2**lo .. 2**hi``), chosen because every quantity we
  instrument — journal fsync latencies, sweep batch sizes, RTO
  escalation delays — spans orders of magnitude, where log2 edges give
  constant relative resolution with a handful of integers per family.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain dicts that
round-trip through JSON; :func:`prometheus_text` renders a snapshot in
the Prometheus text exposition format, so ``repro obs export`` can
re-expose a snapshot written by an earlier run.

Thread-safety: a single lock per registry guards family creation; child
updates are plain float ops (atomic enough under the GIL for telemetry).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "family_sum",
    "merged_buckets",
    "prometheus_text",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default log2 bucket exponent range: 2**-20 s (~1 us) .. 2**6 s (64 s)
#: covers every latency this codebase produces, from a journal append on
#: tmpfs to a dead-peer stall.
DEFAULT_LOG2_LO = -20
DEFAULT_LOG2_HI = 6


def _check_labels(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"bad label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount!r}")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Observations in fixed log2 buckets (upper bounds ``2**lo .. 2**hi``).

    ``observe(v)`` lands ``v`` in the first bucket whose upper bound is
    ``>= v``; values above ``2**hi`` land in the implicit ``+Inf``
    bucket.  Counts are stored per-bucket (not cumulative); cumulative
    sums are produced at exposition time.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, lo: int = DEFAULT_LOG2_LO, hi: int = DEFAULT_LOG2_HI) -> None:
        if hi <= lo:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        self.bounds: list[float] = [float(2.0 ** e) for e in range(lo, hi + 1)]
        self.bucket_counts: list[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


def bucket_quantile(buckets: Sequence[Sequence[Any]], count: int, q: float) -> float:
    """Interpolated quantile from snapshot-form buckets.

    ``buckets`` is the snapshot encoding: ``[[bound, n], ..., ["+Inf", n]]``
    with *per-bucket* (non-cumulative) counts.  The estimate assumes
    observations are uniformly spread within their bucket (the
    ``histogram_quantile`` convention): the q-th observation is placed by
    linear interpolation between the bucket's lower and upper bound.  The
    first bucket's lower edge is 0; a quantile landing in the ``+Inf``
    bucket clamps to the highest finite bound.  Returns NaN for an empty
    histogram.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return float("nan")
    rank = q * count
    seen = 0.0
    lower = 0.0
    for bound, n in buckets:
        if bound == "+Inf":
            # Everything left is above the last finite edge: clamp.
            return lower
        upper = float(bound)
        n = float(n)
        if n and seen + n >= rank:
            frac = (rank - seen) / n
            return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
        seen += n
        lower = upper
    return lower


def _labels_include(sample: Mapping[str, Any], labels: Iterable[tuple[str, str]]) -> bool:
    got = sample.get("labels", {})
    return all(str(got.get(key)) == value for key, value in labels)


def family_sum(
    metrics: Mapping[str, Any], name: str, labels: Sequence[tuple[str, str]] = (),
) -> float:
    """Sum over one family of a snapshot's metrics section.

    Samples count when their labels include every ``(key, value)`` of
    ``labels``.  Histogram samples add their observation counts; counter
    and gauge samples add their values.  An absent family reads 0.
    """
    family = metrics.get(name)
    if not family:
        return 0.0
    key = "count" if family["type"] == "histogram" else "value"
    return sum((
        float(sample[key]) for sample in family.get("samples", ())
        if _labels_include(sample, labels)
    ), 0.0)


def merged_buckets(
    family: Optional[Mapping[str, Any]], labels: Sequence[tuple[str, str]] = (),
) -> list[list[Any]]:
    """Per-bucket counts of a histogram family, added across its samples
    whose labels include ``labels``.

    Returns the snapshot form ``[[bound, n], ..., ["+Inf", n]]`` that
    :func:`bucket_quantile` reads, or ``[]`` when no sample matches.
    All samples of a family share one bucket layout.
    """
    merged: list[list[Any]] = []
    for sample in (family or {}).get("samples", ()):
        if not _labels_include(sample, labels):
            continue
        if not merged:
            merged = [[bound, 0] for bound, _ in sample["buckets"]]
        for slot, (_, n) in zip(merged, sample["buckets"]):
            slot[1] += int(n)
    return merged


class _Family:
    """One named metric family: a type, a help string, labeled children."""

    def __init__(self, name: str, kind: str, help: str, **hist_kwargs: Any) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.hist_kwargs = hist_kwargs
        self.children: dict[tuple[tuple[str, str], ...], Any] = {}

    def child(self, labels: Mapping[str, Any]):
        key = _check_labels(labels)
        got = self.children.get(key)
        if got is None:
            if self.kind == "counter":
                got = Counter()
            elif self.kind == "gauge":
                got = Gauge()
            else:
                got = Histogram(**self.hist_kwargs)
            self.children[key] = got
        return got


class MetricsRegistry:
    """All metric families of one telemetry session."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # -- instrument accessors (create-on-first-use) --------------------------
    def _family(self, name: str, kind: str, help: str, **kwargs: Any) -> _Family:
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad metric name {name!r}")
            with self._lock:
                family = self._families.setdefault(name, _Family(name, kind, help, **kwargs))
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._family(name, "counter", help).child(labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._family(name, "gauge", help).child(labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        lo: int = DEFAULT_LOG2_LO,
        hi: int = DEFAULT_LOG2_HI,
        **labels: Any,
    ) -> Histogram:
        return self._family(name, "histogram", help, lo=lo, hi=hi).child(labels)

    # -- reading -------------------------------------------------------------
    def families(self) -> list[str]:
        return sorted(self._families)

    def value(self, name: str, **labels: Any) -> float:
        """Current value of one counter/gauge child (0.0 if never touched)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        child = family.children.get(_check_labels(labels))
        if child is None:
            return 0.0
        if isinstance(child, Histogram):
            raise TypeError(f"{name!r} is a histogram; read snapshot() instead")
        return child.value

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready view of every family (see :func:`prometheus_text`)."""
        out: dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for key in sorted(family.children):
                child = family.children[key]
                labels = dict(key)
                if isinstance(child, Histogram):
                    samples.append({
                        "labels": labels,
                        "buckets": [
                            [bound, count]
                            for bound, count in zip(child.bounds, child.bucket_counts)
                        ] + [["+Inf", child.bucket_counts[-1]]],
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[name] = {"type": family.kind, "help": family.help, "samples": samples}
        return out

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Add another registry's counters and histograms (its
        :meth:`snapshot`, e.g. from a worker process) into this one.

        Gauges are skipped: a level measured in another process is not
        a level of this one.  A histogram keeps the other registry's
        log2 bucket range, which must match this registry's family of
        the same name.
        """
        for name, family in snapshot.items():
            kind, help_text = family["type"], family.get("help", "")
            for sample in family["samples"]:
                labels = sample.get("labels", {})
                if kind == "counter":
                    self.counter(name, help_text, **labels).inc(float(sample["value"]))
                elif kind == "histogram":
                    buckets = sample["buckets"]
                    child = self.histogram(
                        name, help_text, lo=round(math.log2(buckets[0][0])),
                        hi=round(math.log2(buckets[-2][0])), **labels,
                    )
                    if len(child.bucket_counts) != len(buckets):
                        raise ValueError(f"histogram {name!r}: bucket ranges differ")
                    for index, (_bound, count) in enumerate(buckets):
                        child.bucket_counts[index] += int(count)
                    child.sum += float(sample["sum"])
                    child.count += int(sample["count"])

    def reset(self) -> None:
        """Drop every family (fresh registry semantics, same object)."""
        with self._lock:
            self._families.clear()

    def to_prometheus(self) -> str:
        return prometheus_text(self.snapshot())


def _fmt_labels(labels: Mapping[str, Any], extra: Optional[tuple[str, str]] = None) -> str:
    items: Iterable[tuple[str, Any]] = list(labels.items())
    if extra is not None:
        items = list(items) + [extra]
    if not items:
        return ""
    body = ",".join(
        '%s="%s"' % (
            k,
            str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for k, v in items
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot: Mapping[str, Any]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Histograms follow the convention: cumulative ``_bucket`` series with
    ``le`` labels ending in ``+Inf``, plus ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        help_text = str(family.get("help", "")).replace("\\", r"\\").replace("\n", r"\n")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {family['type']}")
        for sample in family["samples"]:
            labels = sample.get("labels", {})
            if family["type"] == "histogram":
                cumulative = 0
                for bound, count in sample["buckets"]:
                    cumulative += count
                    le = "+Inf" if bound == "+Inf" else _fmt_value(float(bound))
                    lines.append(
                        f"{name}_bucket{_fmt_labels(labels, ('le', le))} {cumulative}"
                    )
                lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(sample['sum'])}")
                lines.append(f"{name}_count{_fmt_labels(labels)} {sample['count']}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(sample['value'])}")
    return "\n".join(lines) + "\n"
