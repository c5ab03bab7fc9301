"""Service counters: decisions, batching behaviour, certifier hits.

Plain in-process counters (no clock reads — latencies are *observed*
here, measured by the batcher against :mod:`repro.service.clock`).
Everything lands in one :meth:`ServiceMetrics.snapshot` dict, which is
what ``GET /v1/metrics`` serves and what the bench harness records into
the benchmark JSON ``extra_info``.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Any, Deque, Dict, List

from repro.service.protocol import Decision

#: Ring-buffer size for latency percentiles (recent-window estimate).
LATENCY_WINDOW = 8192


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of pre-sorted values."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


class ServiceMetrics:
    """Mutable counters shared by the engine, batcher and HTTP layer."""

    def __init__(self) -> None:
        self.decisions_total = 0
        self.accepted_total = 0
        self.errors_total = 0
        self.by_op: Counter = Counter()
        self.by_via: Counter = Counter()
        self.batches_total = 0
        self.batch_sizes: Counter = Counter()  # size -> count (histogram)
        self.certifier_certified = 0
        self.certifier_unknown = 0
        self.requests_in_flight = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # -- observations ----------------------------------------------------------

    def observe_decision(self, decision: Decision) -> None:
        self.decisions_total += 1
        self.by_op[decision.op] += 1
        self.by_via[decision.via] += 1
        if decision.error is not None:
            self.errors_total += 1
        elif decision.ok and decision.op in ("add", "trial"):
            self.accepted_total += 1

    def observe_latency(self, seconds: float) -> None:
        """Queue-to-decision latency of one request (batcher-measured)."""
        self._latencies.append(seconds)

    def observe_batch(self, size: int) -> None:
        self.batches_total += 1
        self.batch_sizes[size] += 1

    def observe_certifier(self, certified: int, unknown: int) -> None:
        """Accumulate one :class:`DeltaCertifier`'s stats delta."""
        self.certifier_certified += certified
        self.certifier_unknown += unknown

    # -- derived ---------------------------------------------------------------

    @property
    def certifier_hit_rate(self) -> float:
        total = self.certifier_certified + self.certifier_unknown
        return self.certifier_certified / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        n = sum(self.batch_sizes.values())
        total = sum(size * count for size, count in self.batch_sizes.items())
        return total / n if n else 0.0

    def latency_percentiles(self) -> Dict[str, float]:
        values = sorted(self._latencies)
        return {
            "p50": percentile(values, 0.50),
            "p90": percentile(values, 0.90),
            "p99": percentile(values, 0.99),
        }

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready dict with every counter and derived rate."""
        return {
            "decisions_total": self.decisions_total,
            "accepted_total": self.accepted_total,
            "errors_total": self.errors_total,
            "by_op": dict(self.by_op),
            "by_via": dict(self.by_via),
            "batches_total": self.batches_total,
            "batch_size_histogram": {
                str(size): count for size, count in sorted(self.batch_sizes.items())
            },
            "mean_batch_size": self.mean_batch_size,
            "certifier": {
                "certified": self.certifier_certified,
                "unknown": self.certifier_unknown,
                "hit_rate": self.certifier_hit_rate,
            },
            "requests_in_flight": self.requests_in_flight,
            "latency_seconds": self.latency_percentiles(),
        }
