"""Shared helpers for the benchmark/reproduction harness."""

import math
import os
import time

from repro.experiments.report import as_text


def bench_scale() -> int:
    """Sample-count multiplier from the REPRO_BENCH_SCALE env var."""
    return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))


def print_curves(curves, title: str = "") -> None:
    """Print a regenerated figure/ablation as a fixed-width table."""
    print()
    if title:
        print(f"=== {title} ===")
    print(as_text(curves))


def auc(series) -> float:
    """Mean acceptance over the buckets (NaN buckets skipped) — a scalar
    summary for 'test X outperforms test Y on this workload'."""
    vals = [r for r in series.ratios if not math.isnan(r)]
    return sum(vals) / len(vals) if vals else 0.0


def interleaved_min(benchmark, vector, scalar, runs: int = 3):
    """Time ``vector`` and ``scalar`` as the minimum of ``runs``
    interleaved runs each, so a CPU-bound neighbour on a shared host
    slows both sides alike instead of whichever one it happens to
    overlap.

    The first vector run is the benchmark's pedantic round (so it lands
    in the benchmark JSON); scalar and vector then alternate until each
    side has ``runs`` timings.  Returns ``(t_vector, t_scalar,
    vector_result, scalar_result)``.
    """
    vector_result = benchmark.pedantic(vector, rounds=1, iterations=1)
    t_vector = benchmark.stats.stats.min
    t_scalar = math.inf
    for k in range(runs):
        t0 = time.perf_counter()
        scalar_result = scalar()
        t_scalar = min(t_scalar, time.perf_counter() - t0)
        if k < runs - 1:
            t0 = time.perf_counter()
            vector()
            t_vector = min(t_vector, time.perf_counter() - t0)
    return t_vector, t_scalar, vector_result, scalar_result
