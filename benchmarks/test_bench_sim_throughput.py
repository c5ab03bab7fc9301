"""Simulator throughput: events/second on a representative workload.

The discrete-event simulator is the cost driver of every ``sim:`` curve;
this bench pins its performance on the fig3b workload shape so
regressions show up.  The batch benches compare the scalar per-taskset
event loop against the vectorized FREE-mode batch simulator
(:func:`repro.vector.sim_vec.simulate_batch`) at B=1000 and report the
per-set speedup that lets the acceptance engine simulate full buckets.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.helpers import interleaved_min

from repro.fpga.device import Fpga
from repro.gen.profiles import paper_unconstrained
from repro.gen.sweep import generate_at_system_utilization
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf
from repro.sim.simulator import MigrationMode, default_horizon, simulate
from repro.util.rngutil import rng_from_seed
from repro.vector import sim_vec
from repro.vector.batch import generate_batch
from repro.vector.grid import simulate_grid
from repro.vector.sim_vec import simulate_batch

FPGA = Fpga(width=100)
BATCH = 1000  # the ISSUE's reference batch size for the speedup target


def _workload():
    return generate_at_system_utilization(
        paper_unconstrained(10), 60.0, rng_from_seed(77)
    )


def test_bench_simulate_nf(benchmark):
    ts = _workload()
    horizon = default_horizon(ts, factor=20)
    benchmark.group = "simulate"
    res = benchmark(
        lambda: simulate(ts, FPGA, EdfNf(), horizon, stop_at_first_miss=False)
    )
    print(f"\ndecision points: {res.metrics.decision_points}, "
          f"jobs: {res.metrics.jobs_released}")


def test_bench_simulate_fkf(benchmark):
    ts = _workload()
    horizon = default_horizon(ts, factor=20)
    benchmark.group = "simulate"
    benchmark(lambda: simulate(ts, FPGA, EdfFkf(), horizon, stop_at_first_miss=False))


def test_bench_simulate_with_placement(benchmark):
    ts = _workload()
    horizon = default_horizon(ts, factor=20)
    benchmark.group = "simulate"
    benchmark(
        lambda: simulate(
            ts, FPGA, EdfNf(), horizon,
            mode=MigrationMode.RELOCATABLE, stop_at_first_miss=False,
        )
    )


def test_bench_simulate_with_trace(benchmark):
    ts = _workload()
    horizon = default_horizon(ts, factor=20)
    benchmark.group = "simulate"
    res = benchmark(
        lambda: simulate(
            ts, FPGA, EdfNf(), horizon,
            record_trace=True, stop_at_first_miss=False,
        )
    )
    assert res.trace is not None


def _sim_batch():
    """B=1000 fig3b-shaped sets pinned at US=60 (all run to horizon —
    the worst case for the batch path, which cannot retire rows early)."""
    raw = generate_batch(paper_unconstrained(10), BATCH, rng_from_seed(55))
    return raw.scaled_to_system_utilization(np.full(BATCH, 60.0))


@pytest.mark.bench_smoke
@pytest.mark.parametrize("sched_name,sched_cls",
                         [("EDF-NF", EdfNf), ("EDF-FkF", EdfFkf)])
def test_bench_sim_batch_vector_vs_scalar(benchmark, sched_name, sched_cls):
    """Batched vs scalar simulation throughput (and verdict parity).

    Both sides are timed as the minimum of three interleaved runs (see
    :func:`benchmarks.helpers.interleaved_min`).
    """
    batch = _sim_batch()
    benchmark.group = f"sim-batch-{sched_name}"

    def vector():
        return simulate_batch(batch, 100, sched_name)

    # Scalar reference over a subsample (full B=1000 scalar passes would
    # dominate the suite's runtime).
    sub = 60

    def scalar():
        out = []
        for i in range(sub):
            ts = batch.taskset(i)
            out.append(
                simulate(ts, FPGA, sched_cls(), default_horizon(ts)).schedulable
            )
        return out

    t_vector, t_scalar, res, scalar_ok = interleaved_min(benchmark, vector, scalar)
    vector_per_set = t_vector / BATCH
    scalar_per_set = t_scalar / sub

    assert (np.array(scalar_ok) == res.schedulable[:sub]).all()
    speedup = scalar_per_set / vector_per_set
    print(f"\n{sched_name}: scalar {scalar_per_set * 1e3:.2f} ms/set, "
          f"vector {vector_per_set * 1e3:.3f} ms/set "
          f"-> {speedup:.1f}x at B={BATCH}")
    # Measured ~12-14x on the reference machine (the printed line above is
    # the demonstration); 5x is the regression floor, wide enough that
    # noisy CI neighbours cannot fail the suite without a real regression.
    assert speedup > 5.0


@pytest.mark.bench_smoke
def test_bench_sim_batch_throughput(benchmark):
    """Batched-simulator throughput at B=1000 with the default settings
    (verdicts checked against the scalar simulator on a subsample)."""
    batch = _sim_batch()
    benchmark.group = "sim-batch-throughput"

    res = benchmark(lambda: simulate_batch(batch, 100, "EDF-NF"))

    sub = 20
    reference = [
        simulate(batch.taskset(i), FPGA, EdfNf(),
                 default_horizon(batch.taskset(i))).schedulable
        for i in range(sub)
    ]
    assert (res.schedulable[:sub] == np.array(reference)).all()
    assert res.schedulable.dtype == np.bool_
    per_set = benchmark.stats.stats.mean / BATCH
    print(f"\nnumpy: {per_set * 1e6:.1f} us/set at B={BATCH}")


@pytest.mark.bench_smoke
def test_bench_sim_batch_fused_sharded(benchmark, monkeypatch):
    """Fused stepping + row sharding vs the pre-fusion serial path.

    The benchmarked configuration is the default fast path:
    ``simulate_grid`` over the batch with ``sim_workers = min(4, cpus)``
    worker processes, each running the kernel at its default
    ``sim_vec.FUSE`` (eight event steps per kernel pass).  The baseline
    is the exact pre-fusion behaviour: ``simulate_batch`` with
    ``sim_vec.FUSE`` patched to 1 (one event step per pass), serial.

    Fusion cuts the per-pass liveness readback, verdict scatter and row
    compaction ~8x (asserted on the pass counters below) — roughly
    throughput-neutral single-core.  The wall-clock multiplier comes
    from sharding, so the speedup floor scales with the cores this
    runner may use: >= 2x with >= 4 cores (the CI runner class),
    >= 1.3x with 2-3, and >= 0.9x (fusion alone must not regress;
    measured ~1.15x) on a single core, where a process pool cannot
    help.  Verdicts and ``min_slack`` must be bit-identical to the
    baseline in every configuration.  ``cpus`` and the load average
    land in ``extra_info``: the floors assume the cores are idle.
    """
    batch = _sim_batch()
    cpus = len(os.sched_getaffinity(0))
    workers = min(4, cpus)
    benchmark.group = "sim-batch-fused"

    def sharded():
        [out] = simulate_grid(
            batch, [batch.count], FPGA, [dict(scheduler="EDF-NF")],
            sim_workers=workers,
        )
        return out

    res = benchmark(sharded)

    def once(fn, fuse=sim_vec.FUSE):
        with monkeypatch.context() as patch:
            patch.setattr(sim_vec, "FUSE", fuse)
            t0 = time.perf_counter()
            out = fn()
            return time.perf_counter() - t0, out

    def serial():
        return simulate_batch(batch, 100, "EDF-NF")

    # Interleave the baseline/fused/sharded measurements so load drift
    # on a shared runner hits both sides of every ratio equally.
    t_baseline = t_fused_serial = t_sharded = float("inf")
    for _ in range(3):
        dt, base = once(serial, fuse=1)
        t_baseline = min(t_baseline, dt)
        dt, fused_serial = once(serial)
        t_fused_serial = min(t_fused_serial, dt)
        dt, _ = once(sharded)
        t_sharded = min(t_sharded, dt)
    t_fused_sharded = min(benchmark.stats.stats.min, t_sharded)

    # the hard contract: fusion and sharding are invisible per row
    for other in (fused_serial, res):
        assert (other.schedulable == base.schedulable).all()
        assert np.array_equal(other.min_slack, base.min_slack, equal_nan=True)

    # fusion factor: >= 5x fewer kernel passes than event steps
    assert fused_serial.event_steps >= 5 * fused_serial.kernel_passes
    assert base.kernel_passes == base.event_steps  # unfused = 1 step/pass

    speedup = t_baseline / t_fused_sharded
    benchmark.extra_info.update(
        sim_workers=workers,
        cpus=cpus,
        loadavg=[round(x, 2) for x in os.getloadavg()],
        fuse=sim_vec.FUSE,
        kernel_passes=fused_serial.kernel_passes,
        event_steps=fused_serial.event_steps,
        fusion_factor=round(fused_serial.fusion_factor, 2),
        # row-events: every row advances one event per live step, so the
        # per-row counters sum to the work actually simulated
        events_per_sec=round(
            float(np.asarray(fused_serial.events).sum()) / t_fused_serial, 1
        ),
        t_unfused_serial=round(t_baseline, 4),
        t_fused_serial=round(t_fused_serial, 4),
        t_fused_sharded=round(t_fused_sharded, 4),
        speedup_vs_unfused_serial=round(speedup, 3),
    )
    print(f"\nfused+sharded(w={workers}): {t_fused_sharded:.3f}s vs "
          f"unfused serial {t_baseline:.3f}s -> {speedup:.2f}x; "
          f"passes {fused_serial.kernel_passes} for "
          f"{fused_serial.event_steps} events "
          f"({fused_serial.fusion_factor:.1f}x fused)")
    floor = 2.0 if workers >= 4 else (1.3 if workers >= 2 else 0.9)
    assert speedup >= floor
