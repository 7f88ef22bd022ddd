"""Prediction-service load benchmark: latency, throughput, identity.

Boots the daemon in-process (:class:`repro.serve.ServerThread` — a real
socket listener with real framing) and drives it at 1, 8 and 64
concurrent closed-loop clients, at least 1,000 requests per level (so
p99 has ten samples beyond it), measuring per-request wall latency and
aggregate throughput.  Three things are asserted, not just reported:

1. **Identity, always**: every wire reply is bit-identical to the
   in-process ``api.predict`` answer for the same request — the batch
   coalescing window must never change a number.
2. **Scalability**: 64 concurrent clients must push at least as much
   aggregate throughput as one sequential client — coalescing has to
   pay for its window under load.
3. **A conservative absolute floor** on the sequential rate, so a
   pathological regression (e.g. an accidental sleep per request)
   fails loudly even on a 1-core CI runner.

Results land in ``BENCH_service.json`` at the repo root::

    PYTHONPATH=src python -m pytest benchmarks/test_service.py -s
"""

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro import api
from repro.cluster import GroundTruth
from repro.models import ExtendedLMOModel, GatherIrregularity
from repro.serve import ServeConfig, ServerThread

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

KB = 1024
CONCURRENCY_LEVELS = (1, 8, 64)
#: Requests per level, split evenly across its clients (rounded up:
#: 1,000, 125 each at 8, 16 each at 64).
REQUESTS_PER_LEVEL = 1000
MIN_SEQUENTIAL_RPS = 20.0  # absolute floor; a healthy box does hundreds
MAX_P99_SECONDS = 2.0      # per-request, even at 64 concurrent clients


def make_model():
    irr = GatherIrregularity(m1=4 * KB, m2=65 * KB, escalation_value=0.22,
                             p_at_m2=0.7)
    return ExtendedLMOModel.from_ground_truth(GroundTruth.random(8, seed=3), irr)


def make_cases(count, offset=0):
    cases = []
    for i in range(count):
        j = i + offset
        if j % 2 == 0:
            cases.append(("scatter", "linear", float(KB * (j % 40 + 1)), j % 8))
        else:
            cases.append(("gather", "linear", float(2 * KB * (j % 40 + 1)), j % 8))
    return cases


def drive_level(host, clients):
    """One load level: per-request latencies, wall time, and replies."""
    latencies = []
    replies = []
    per_client = math.ceil(REQUESTS_PER_LEVEL / clients)

    def one_client(client_index):
        cases = make_cases(per_client, offset=client_index * per_client)
        out = []
        with host.client() as client:
            for case in cases:
                operation, algorithm, nbytes, root = case
                t0 = time.perf_counter()
                p = client.predict("lmo", operation, algorithm, nbytes,
                                   root=root)
                out.append((case, p, time.perf_counter() - t0))
        return out

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        for chunk in pool.map(one_client, range(clients)):
            for case, reply, latency in chunk:
                replies.append((case, reply))
                latencies.append(latency)
    wall = time.perf_counter() - start
    return latencies, wall, replies


def percentile(values, q):
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def test_service_latency_throughput_and_identity():
    model = make_model()
    config = ServeConfig(port=0, models={"lmo": model}, telemetry=False)
    levels = {}
    with ServerThread(config) as host:
        for clients in CONCURRENCY_LEVELS:
            latencies, wall, replies = drive_level(host, clients)
            # Identity: every wire reply == the in-process facade answer.
            for (operation, algorithm, nbytes, root), reply in replies:
                local = api.predict(model, operation, algorithm, nbytes,
                                    root=root)
                assert reply == local, (
                    f"wire reply diverged from api.predict for "
                    f"{operation}/{algorithm} {nbytes} B root {root}"
                )
            levels[str(clients)] = {
                "clients": clients,
                "requests_per_client": len(latencies) // clients,
                "requests": len(latencies),
                "p50_ms": percentile(latencies, 0.50) * 1e3,
                "p99_ms": percentile(latencies, 0.99) * 1e3,
                "throughput_rps": len(latencies) / wall,
            }

    doc = {
        "benchmark": "prediction service load",
        "cpus": os.cpu_count() or 1,
        "requests_per_level": REQUESTS_PER_LEVEL,
        "levels": levels,
        "identity": True,
    }
    RESULT_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nservice bench -> {RESULT_PATH}")
    for clients in CONCURRENCY_LEVELS:
        row = levels[str(clients)]
        print(f"  {clients:>2} clients, n={row['requests']}: "
              f"p50 {row['p50_ms']:7.2f} ms, p99 {row['p99_ms']:7.2f} ms, "
              f"{row['throughput_rps']:8.1f} req/s")

    # The gates (self-contained: nothing here depends on a past run).
    sequential = levels["1"]["throughput_rps"]
    loaded = levels["64"]["throughput_rps"]
    assert sequential >= MIN_SEQUENTIAL_RPS, (
        f"sequential throughput {sequential:.1f} req/s below the "
        f"{MIN_SEQUENTIAL_RPS} req/s floor"
    )
    assert loaded >= sequential, (
        f"64-client throughput {loaded:.1f} req/s fell below the sequential "
        f"rate {sequential:.1f} req/s — coalescing is not paying for its window"
    )
    assert levels["64"]["p99_ms"] <= MAX_P99_SECONDS * 1e3, (
        f"p99 at 64 clients is {levels['64']['p99_ms']:.1f} ms"
    )
