"""Ablation: simulation is only an upper bound (§6).

The paper can only simulate the synchronous release pattern; random
release offsets and sporadic inter-arrival jitter find counterexamples
the synchronous pattern misses.  These benches measure how much
acceptance melts under the pattern searches — run on the batched
simulator, which fans the pattern axis into the batch dimension
(``samples x patterns`` rows per bucket in one ``simulate_batch``
sweep) — and the smoke-marked comparison pins the offset ablation to
the scalar reference (``simulate`` + ``simulate_with_offsets`` on the
same offset stream) with *identical* curves while recording the
speedup, so release-pattern regressions are caught per-PR.
"""

import pytest

from benchmarks.helpers import auc, interleaved_min, print_curves

from repro.experiments.ablations import offset_ablation, sporadic_ablation
from repro.experiments.acceptance import feasible_batch_at
from repro.fpga.device import Fpga
from repro.gen.profiles import paper_unconstrained
from repro.sched.edf_nf import EdfNf
from repro.sim.offsets import sample_offsets, simulate_with_offsets
from repro.sim.simulator import default_horizon, simulate
from repro.util.rngutil import rng_from_seed, spawn_rngs

GRID = (40.0, 60.0, 80.0)


def _assert_search_below_baseline(curves, baseline, searched):
    for a, b in zip(curves[baseline].ratios, curves[searched].ratios):
        assert a >= b  # searching can only remove acceptances


def test_bench_offset_search(benchmark, scale):
    samples = 25 * scale
    curves = benchmark.pedantic(
        lambda: offset_ablation(samples=samples, offset_samples=10, seed=43),
        rounds=1,
        iterations=1,
    )
    print_curves(curves, "synchronous-release vs offset-searched acceptance")
    _assert_search_below_baseline(curves, "sim:synchronous", "sim:offset-search")
    gap = auc(curves["sim:synchronous"]) - auc(curves["sim:offset-search"])
    print(f"acceptance removed by offset search: {gap:.4f} (mean)")


def test_bench_sporadic_search(benchmark, scale):
    samples = 25 * scale
    curves = benchmark.pedantic(
        lambda: sporadic_ablation(samples=samples, sporadic_samples=10, seed=47),
        rounds=1,
        iterations=1,
    )
    print_curves(curves, "periodic vs sporadic-searched acceptance")
    _assert_search_below_baseline(curves, "sim:periodic", "sim:sporadic-search")
    gap = auc(curves["sim:periodic"]) - auc(curves["sim:sporadic-search"])
    print(f"acceptance removed by sporadic search: {gap:.4f} (mean)")


def _scalar_offset_ratios(samples, patterns, seed, horizon_factor=10):
    """``offset_ablation``'s two curves from the scalar oracles.

    Same buckets and streams as the ablation (its defaults: 10-task
    unconstrained profile, width 100): the synchronous verdict from
    ``simulate``, the searched one from ``simulate_with_offsets`` on the
    bucket's shared taskset-major offset stream.  A sync-failing set is
    already rejected, so its assignments are drawn and discarded to keep
    the stream aligned.
    """
    fpga = Fpga(width=100)
    rngs = spawn_rngs(seed, len(GRID))
    sync_ratios, offset_ratios = [], []
    for i, us in enumerate(GRID):
        batch = feasible_batch_at(paper_unconstrained(10), us, samples, rngs[i])
        offset_rng = rng_from_seed(seed * 1000 + i)
        sync_ok = offset_ok = 0
        for ts in batch.to_tasksets():
            horizon = default_horizon(ts, factor=horizon_factor)
            if not simulate(ts, fpga, EdfNf(), horizon).schedulable:
                for _ in range(patterns):
                    sample_offsets(ts, offset_rng)
                continue
            sync_ok += 1
            offset_ok += simulate_with_offsets(
                ts, fpga, EdfNf(), horizon, offset_rng,
                samples=patterns, include_synchronous=False,
            ).schedulable
        sync_ratios.append(sync_ok / samples)
        offset_ratios.append(offset_ok / samples)
    return {
        "sim:synchronous": tuple(sync_ratios),
        "sim:offset-search": tuple(offset_ratios),
    }


@pytest.mark.bench_smoke
def test_bench_offset_search_vector_vs_scalar(benchmark):
    """Offset search, batched vs scalar reference: identical curves,
    batched faster.

    Both sides draw the same offset assignments (taskset-major stream)
    and extend every pattern's horizon by its largest offset, so the
    curves must match exactly — the per-PR guard for the batched
    release-pattern path.  Each side's time is the minimum of 3
    interleaved runs.
    """
    samples, patterns = 20, 5
    benchmark.group = "offset-search-backend"
    vector_time, scalar_time, curves, scalar = interleaved_min(
        benchmark,
        lambda: offset_ablation(
            us_grid=GRID, samples=samples, offset_samples=patterns, seed=43,
        ),
        lambda: _scalar_offset_ratios(samples, patterns, seed=43),
    )

    for label in curves.labels:
        assert curves[label].ratios == scalar[label], label
    _assert_search_below_baseline(curves, "sim:synchronous", "sim:offset-search")
    print(f"\noffset search: scalar {scalar_time:.2f} s, "
          f"vector {vector_time:.2f} s "
          f"-> {scalar_time / vector_time:.1f}x "
          f"({samples} sets x {patterns} patterns x {len(GRID)} buckets)")
