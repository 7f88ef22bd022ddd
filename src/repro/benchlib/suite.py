"""Grid benchmarking: operations x algorithms x sizes, rendered as a table.

The front-end MPIBlib-style workflow: measure a whole menu in one go and
print a comparison table — the raw material behind algorithm-switching
decisions and behind every figure of Section V.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.benchlib.driver import BenchmarkPoint, CollectiveBenchmark
from repro.cluster.machine import SimulatedCluster
from repro.mpi.collectives import ALGORITHMS, VARIABLE_BLOCK
from repro.stats import MeasurementPolicy

__all__ = ["BenchmarkSuite", "SuiteResult"]

KB = 1024
DEFAULT_SIZES = (1 * KB, 16 * KB, 128 * KB)

#: Operations whose algorithms need a combine callable to run.
_NEEDS_COMBINE = {"reduce", "allreduce", "reduce_scatter"}


@dataclass
class SuiteResult:
    """All measured points of one suite run."""

    points: dict[tuple[str, str, int], BenchmarkPoint] = field(default_factory=dict)

    def best_algorithm(self, operation: str, nbytes: int) -> str:
        """The measured winner for one (operation, size)."""
        candidates = {
            algo: point.mean
            for (op, algo, m), point in self.points.items()
            if op == operation and m == nbytes
        }
        if not candidates:
            raise KeyError(f"no measurements for {operation} at {nbytes} bytes")
        return min(candidates, key=candidates.__getitem__)

    def render(self) -> str:
        """Comparison table: one row per (operation, algorithm)."""
        sizes = sorted({m for (_op, _algo, m) in self.points})
        rows = sorted({(op, algo) for (op, algo, _m) in self.points})
        header = f"{'operation':<15} {'algorithm':<20}" + "".join(
            f"{m // KB:>8}K" for m in sizes
        )
        lines = [header]
        for op, algo in rows:
            cells = []
            for m in sizes:
                point = self.points.get((op, algo, m))
                star = ""
                if point is not None and self.best_algorithm(op, m) == algo:
                    star = "*"
                cells.append(
                    f"{point.mean * 1e3:>7.2f}{star or ' '}" if point else f"{'-':>8}"
                )
            lines.append(f"{op:<15} {algo:<20}" + "".join(cells))
        lines.append("(milliseconds; * marks the measured winner per size)")
        return "\n".join(lines)


class BenchmarkSuite:
    """Measure many collectives on one cluster with one policy."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        policy: Optional[MeasurementPolicy] = None,
        timing_method: str = "global",
    ):
        self.bench = CollectiveBenchmark(
            cluster,
            policy=policy if policy is not None else MeasurementPolicy(max_reps=10),
            timing_method=timing_method,
        )

    @property
    def cluster(self) -> SimulatedCluster:
        return self.bench.cluster

    def run(
        self,
        operations: Optional[Sequence[str]] = None,
        sizes: Sequence[int] = DEFAULT_SIZES,
    ) -> SuiteResult:
        """Measure every registered algorithm of the chosen operations.

        Algorithms that cannot run on this cluster (power-of-two-only on
        a non-power-of-two size, etc.) are skipped.  A negative size is
        rejected up front, so that skipping cannot hide it.
        """
        for nbytes in sizes:
            if nbytes < 0:
                raise ValueError(f"negative message size {nbytes}")
        chosen = set(operations) if operations is not None else {
            op for op, _algo in ALGORITHMS
        }
        chosen -= VARIABLE_BLOCK
        result = SuiteResult()
        for (operation, algorithm) in sorted(ALGORITHMS):
            if operation not in chosen:
                continue
            for nbytes in sizes:
                kwargs = {}
                if operation in _NEEDS_COMBINE:
                    kwargs["combine"] = lambda a, b: a
                if operation == "barrier" and nbytes != sizes[0]:
                    continue  # size-independent: measure once
                try:
                    point = self.bench.measure(operation, algorithm, int(nbytes),
                                               **kwargs)
                except ValueError:
                    continue
                result.points[(operation, algorithm, int(nbytes))] = point
        return result
