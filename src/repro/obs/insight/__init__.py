"""repro.obs.insight — the model-fidelity observatory.

The telemetry layer answers *what the process did* (counters, spans,
events).  This package answers the paper's actual question — *is the
model still right, and where is it wrong?* — continuously, from the same
telemetry stream:

* :mod:`repro.obs.insight.residuals` — streaming (prediction,
  measurement) residual monitors with per-model / per-collective /
  per-size-bucket scorecards comparable to
  :mod:`repro.analysis.accuracy`;
* :mod:`repro.obs.insight.detectors` — online escalation detectors that
  re-derive the gather irregularity thresholds ``M1``/``M2`` and the
  escalation value from live transfer telemetry and compare them against
  the offline :func:`repro.estimation.empirical.detect_gather_irregularity`;
* :mod:`repro.obs.insight.alerts` — a declarative alert rules engine
  over metric snapshots with firing/resolved lifecycle and an optional
  ``on_fire`` hook;
* :mod:`repro.obs.insight.dashboard` — one dependency-free HTML
  dashboard plus a terminal summary (``repro obs dashboard`` /
  ``repro obs watch``).

Everything here is stdlib-only and reads the telemetry snapshot
document, so it works equally on a live session and on a
``--metrics-out`` file from a finished run.
"""

from repro.obs.insight.alerts import (
    AlertEngine,
    AlertRule,
    AlertState,
    default_rules,
)
from repro.obs.insight.dashboard import (
    build_dashboard,
    render_html,
    render_terminal,
    watch,
)
from repro.obs.insight.detectors import (
    Divergence,
    EscalationDetector,
    LiveIrregularity,
)
from repro.obs.insight.residuals import (
    BucketScore,
    ResidualMonitor,
    ResidualRecord,
    Scorecard,
    render_scorecards,
    scorecards,
    size_bucket,
)

__all__ = [
    "AlertEngine",
    "AlertRule",
    "AlertState",
    "BucketScore",
    "Divergence",
    "EscalationDetector",
    "LiveIrregularity",
    "ResidualMonitor",
    "ResidualRecord",
    "Scorecard",
    "build_dashboard",
    "default_rules",
    "render_html",
    "render_scorecards",
    "render_terminal",
    "scorecards",
    "size_bucket",
    "watch",
]
