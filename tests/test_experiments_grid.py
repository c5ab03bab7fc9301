"""One bounded pass per figure grid: block-filtered binned draws and
merged simulator calls, checked against the per-bucket loops they
replace."""

import math
import os
import tracemalloc

import numpy as np
import pytest

import repro.experiments.acceptance as acceptance
from repro.experiments.ablations import (
    nf_vs_fkf_ablation,
    offset_ablation,
    placement_ablation,
    sporadic_ablation,
)
from repro.experiments.acceptance import (
    TEST_FUNCS,
    acceptance_experiment,
    binned_batch_at,
    feasible_batch_at,
)
from repro.fpga.device import Fpga
from repro.fpga.placement import PlacementPolicy
from repro.gen.profiles import (
    GenerationProfile,
    paper_unconstrained,
    spatially_light_temporally_heavy,
)
from repro.search.drivers import (
    uniform_offset_search_batch,
    uniform_offset_search_grid,
    uniform_sporadic_search_batch,
    uniform_sporadic_search_grid,
)
from repro.sim.simulator import MigrationMode
from repro.util.rngutil import rng_from_seed, spawn_rngs
from repro.vector import grid
from repro.vector.batch import TaskSetBatch, generate_batch
from repro.vector.grid import split_rows, stack_rows
from repro.vector.sim_vec import (
    default_horizon_batch,
    sample_release_times_batch,
    simulate_batch,
)


def _binned_oracle(profile, us_target, tolerance, count, rng,
                   max_rounds=30, chunk=50_000):
    """``binned_batch_at`` as whole-batch ``generate_batch`` draws, then
    a ``US`` mask (the implementation before block filtering)."""
    kept, have, drawn = [], 0, 0
    draw_size = min(chunk, max(2048, 4 * count))
    for _ in range(max_rounds):
        draw = generate_batch(profile, draw_size, rng)
        drawn += draw_size
        mask = np.abs(draw.system_utilization - us_target) <= tolerance
        if mask.any():
            kept.append(draw.rows(mask))
            have += int(mask.sum())
        if have >= count:
            break
        if have > 0:
            need = count - have
            draw_size = int(min(chunk, max(1024, math.ceil(1.5 * need * drawn / have))))
        else:
            draw_size = min(chunk, draw_size * 4)
    if have == 0:
        return None
    return TaskSetBatch(
        *(np.concatenate([getattr(b, f) for b in kept])[:count]
          for f in ("wcet", "period", "deadline", "area"))
    )


INTEGER_PERIODS = GenerationProfile(
    n_tasks=6, period_min=5, period_max=20, integer_periods=True,
    util_min=0.05, util_max=0.9, area_min=1, area_max=40, name="int-periods",
)

BIN_CASES = [
    # (profile, target, tolerance, count, max_rounds)
    (spatially_light_temporally_heavy(10), 60.0, 2.5, 40, 30),
    (spatially_light_temporally_heavy(10), 42.0, 2.5, 25, 30),  # sparse bucket
    (INTEGER_PERIODS, 30.0, 1.0, 60, 30),
    (paper_unconstrained(4), 1000.0, 1.0, 10, 6),  # unreachable: hits the cap
]


class TestBlockFilteredBinning:
    @pytest.mark.parametrize("seed", [1, 7, 2007])
    @pytest.mark.parametrize(
        "profile,target,tolerance,count,rounds", BIN_CASES,
        ids=["heavy", "heavy-sparse", "integer-periods", "unreachable"],
    )
    def test_bit_identical_to_whole_batch_mask(
        self, profile, target, tolerance, count, rounds, seed
    ):
        rng_new, rng_old = rng_from_seed(seed), rng_from_seed(seed)
        new = binned_batch_at(profile, target, tolerance, count, rng_new,
                              max_rounds=rounds)
        old = _binned_oracle(profile, target, tolerance, count, rng_old,
                             max_rounds=rounds)
        assert (new is None) == (old is None)
        if new is not None:
            for field in ("wcet", "period", "deadline", "area"):
                a, b = getattr(new, field), getattr(old, field)
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a, b), field
        # Both consumed the stream identically.
        assert rng_new.random() == rng_old.random()

    def test_unreachable_bucket_reaches_the_round_cap(self, monkeypatch):
        sizes = []
        real = acceptance.raw_draws

        def spy(profile, count, rng):
            sizes.append(count)
            return real(profile, count, rng)

        monkeypatch.setattr(acceptance, "raw_draws", spy)
        assert binned_batch_at(
            paper_unconstrained(4), 1000.0, 1.0, 10, rng_from_seed(1),
            max_rounds=6,
        ) is None
        assert sizes == [2048, 8192, 32768, 50_000, 50_000, 50_000]

    def test_capped_round_memory_is_bounded(self):
        """One 50,000-row round at N=10 peaks near its three raw
        ``(50000, 10)`` draws (12 MB), not at whole-batch temporaries
        (about 35 MB before block filtering)."""
        profile = spatially_light_temporally_heavy(10)
        rng = rng_from_seed(3)
        tracemalloc.start()
        try:
            binned_batch_at(profile, 60.0, 2.5, 20_000, rng, max_rounds=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak / 2**20


class TestGridRows:
    def _batches(self, sizes):
        rng = rng_from_seed(5)
        return [generate_batch(paper_unconstrained(3), max(n, 1), rng).rows(slice(0, n))
                for n in sizes]

    def test_stack_and_split_restore_each_batch(self):
        batches = self._batches([5, 9, 0, 1, 13])
        flat = stack_rows(batches)
        assert flat.count == 28
        parts = split_rows(flat.wcet, [b.count for b in batches])
        for batch, part in zip(batches, parts):
            assert np.array_equal(part, batch.wcet)

    def test_row_slices(self):
        assert grid.row_slices(20, 3) == [slice(lo, min(20, lo + 3)) for lo in range(0, 20, 3)]
        assert [s.stop - s.start for s in grid.row_slices(20, 0)] == [1] * 20
        assert grid.row_slices(20, 100) == [slice(0, 20)]
        assert grid.row_slices(0, 4) == []

    @pytest.mark.parametrize("cap", [1, 4, 7, 100])
    def test_release_tables_follow_each_batch_stream(self, cap, monkeypatch):
        """Every chunk's schedules come from the streams of the batches
        its rows belong to, as if each batch were sampled whole."""
        monkeypatch.setattr(grid, "TABLE_ROWS_PER_CALL", cap)
        batches = self._batches([5, 0, 9, 3])
        seen = []

        def spy(batch, fpga, *args, release_times=None, **kwargs):
            seen.append(release_times)
            return simulate_batch(batch, fpga, *args, release_times=release_times, **kwargs)

        monkeypatch.setattr(grid, "simulate_batch", spy)
        rngs = [rng_from_seed(100 + i) for i in range(len(batches))]
        grid.simulate_grid(stack_rows(batches), [b.count for b in batches],
                           Fpga(width=100), [{}], release_rngs=rngs,
                           jitter=0.3, horizon_factor=4)
        assert all(t.shape[0] <= cap for t in seen)
        width = max(t.shape[2] for t in seen)
        flat = np.concatenate([
            np.pad(t, ((0, 0), (0, 0), (0, width - t.shape[2])), constant_values=np.inf)
            for t in seen
        ])
        parts = split_rows(flat, [b.count for b in batches])
        for i, (batch, part) in enumerate(zip(batches, parts)):
            whole = sample_release_times_batch(
                batch, default_horizon_batch(batch, factor=4), rng_from_seed(100 + i), 0.3
            )
            assert np.array_equal(part[:, :, :whole.shape[2]], whole)
            assert np.isinf(part[:, :, whole.shape[2]:]).all()

    @pytest.mark.parametrize("sporadic", [False, True])
    def test_one_worker_calls_module_simulate_batch_in_process(
        self, sporadic, monkeypatch
    ):
        """At ``sim_workers=1`` every call goes, in this process, through
        the module-level ``simulate_batch`` (the name a tracer patches),
        once per (slice, config) in slice-major order, over the capped
        slices of the merged rows."""
        monkeypatch.setattr(grid, "GRID_ROWS_PER_CALL", 7)
        monkeypatch.setattr(grid, "TABLE_ROWS_PER_CALL", 7)
        batches = self._batches([5, 0, 9, 3])
        configs = [dict(scheduler="EDF-NF"), dict(scheduler="EDF-FkF")]
        seen = []

        def spy(batch, fpga, scheduler, **kwargs):
            seen.append((os.getpid(), batch.count, scheduler,
                         "release_times" in kwargs))
            return simulate_batch(batch, fpga, scheduler, **kwargs)

        monkeypatch.setattr(grid, "simulate_batch", spy)
        rngs = [rng_from_seed(i) for i in range(4)] if sporadic else None
        grid.simulate_grid(stack_rows(batches), [b.count for b in batches],
                           Fpga(width=100), configs, sim_workers=1,
                           release_rngs=rngs, horizon_factor=4)
        assert seen == [
            (os.getpid(), rows.stop - rows.start, config["scheduler"], sporadic)
            for rows in grid.row_slices(17, 7)
            for config in configs
        ]


class TestUniformSearchGrid:
    """The grid searches equal their one-batch drivers run per batch."""

    @pytest.mark.parametrize("kind", ["offset", "sporadic"])
    def test_grid_equals_per_batch_driver(self, kind, monkeypatch):
        monkeypatch.setattr(grid, "GRID_ROWS_PER_CALL", 5)
        monkeypatch.setattr(grid, "TABLE_ROWS_PER_CALL", 5)
        rng = rng_from_seed(9)
        batches = [feasible_batch_at(paper_unconstrained(4), us, n, rng)
                   for us, n in ((60.0, 4), (80.0, 1), (90.0, 6))]
        fpga = Fpga(width=100)
        grid_fn, batch_fn = {
            "offset": (uniform_offset_search_grid, uniform_offset_search_batch),
            "sporadic": (uniform_sporadic_search_grid, uniform_sporadic_search_batch),
        }[kind]
        outcomes = grid_fn(batches, fpga, patterns=3, horizon_factor=4,
                           rngs=[rng_from_seed(7 + i) for i in range(3)])
        for i, (batch, outcome) in enumerate(zip(batches, outcomes)):
            alone = batch_fn(batch, fpga, patterns=3, horizon_factor=4,
                             rng=rng_from_seed(7 + i))
            assert np.array_equal(outcome.found, alone.found)
            assert np.array_equal(outcome.min_slack, alone.min_slack)
            assert np.array_equal(outcome.patterns_used, alone.patterns_used)

    def test_one_rng_per_batch(self):
        with pytest.raises(ValueError, match="one rng per batch"):
            uniform_offset_search_grid([], Fpga(width=100), patterns=2,
                                       rngs=[rng_from_seed(1)])


def _set_caps(monkeypatch, rows):
    """Cap every merged call at ``rows`` rows (``None``: the defaults)."""
    if rows is not None:
        monkeypatch.setattr(grid, "GRID_ROWS_PER_CALL", rows)
        monkeypatch.setattr(grid, "TABLE_ROWS_PER_CALL", rows)


def _per_bucket_curves(profile, fpga, grid, samples, seed, *, tests, schedulers,
                       sim_n, release="periodic", jitter=0.5, horizon_factor=20,
                       max_events=1_000_000, mode=MigrationMode.FREE):
    """``acceptance_experiment`` (flat, rescale) as the per-bucket loop:
    one analytic call per test and one simulator call per scheduler and
    bucket, each bucket on its own streams."""
    ratios = {label: [] for label in list(tests) + [f"sim:{s}" for s in schedulers]}
    exceeded = 0
    for i, (rng, us) in enumerate(zip(spawn_rngs(seed, len(grid)), grid)):
        batch = feasible_batch_at(profile, float(us), samples, rng)
        for test in tests:
            ratios[test].append(int(TEST_FUNCS[test](batch, fpga.capacity).sum()) / batch.count)
        sub = batch.rows(slice(0, sim_n))
        kwargs = {}
        if release == "sporadic":
            kwargs = dict(
                release_times=sample_release_times_batch(
                    sub, default_horizon_batch(sub, factor=horizon_factor),
                    rng_from_seed(seed * 1_000_003 + i), jitter,
                ),
            )
        for sched in schedulers:
            res = simulate_batch(sub, fpga, sched, mode=mode,
                                 horizon_factor=horizon_factor,
                                 max_events=max_events, **kwargs)
            ratios[f"sim:{sched}"].append(int(res.schedulable.sum()) / sub.count)
            exceeded += int(res.budget_exceeded.sum())
    return ratios, exceeded


ENGINE_CASES = {
    "budget": dict(profile=paper_unconstrained(4), grid=[20.0, 50.0, 80.0],
                   samples=60, seed=5, sim_n=10, horizon_factor=5, max_events=3,
                   schedulers=("EDF-NF",)),
    "sporadic": dict(profile=paper_unconstrained(5), grid=[30.0, 60.0, 90.0],
                     samples=23, seed=11, sim_n=17, horizon_factor=6,
                     release="sporadic", jitter=0.4,
                     schedulers=("EDF-NF", "EDF-FkF")),
    "placed": dict(profile=paper_unconstrained(4), grid=[40.0, 70.0],
                   samples=19, seed=3, sim_n=19, horizon_factor=5,
                   mode=MigrationMode.RELOCATABLE, schedulers=("EDF-NF",)),
}


class TestMergedGridEqualsPerBucket:
    @pytest.mark.parametrize("cap", [None, 7, 64])
    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_curves_and_budget_counter(self, case, cap, monkeypatch):
        _set_caps(monkeypatch, cap)
        spec = dict(ENGINE_CASES[case])
        fpga = Fpga(width=100)
        tests = ("DP", "GN1", "GN2")
        expected, exceeded = _per_bucket_curves(
            spec["profile"], fpga, spec["grid"], spec["samples"], spec["seed"],
            tests=tests, schedulers=spec["schedulers"], sim_n=spec["sim_n"],
            release=spec.get("release", "periodic"),
            jitter=spec.get("jitter", 0.5),
            horizon_factor=spec["horizon_factor"],
            max_events=spec.get("max_events", 1_000_000),
            mode=spec.get("mode", MigrationMode.FREE),
        )
        curves = acceptance_experiment(
            spec["profile"], fpga, spec["grid"], spec["samples"], spec["seed"],
            tests=tests,
            sim_schedulers=spec["schedulers"],
            sim_samples_per_point=spec["sim_n"],
            sim_mode=spec.get("mode", MigrationMode.FREE),
            sim_release=spec.get("release", "periodic"),
            sim_jitter=spec.get("jitter", 0.5),
            horizon_factor=spec["horizon_factor"],
            max_events=spec.get("max_events", 1_000_000),
        )
        for label, ratios in expected.items():
            assert curves[label].ratios == tuple(ratios), label
        assert curves.sim_budget_exceeded == exceeded
        if case == "budget":
            assert exceeded == 30  # 3 buckets x 10 sims

    def test_ci_target_and_binning_do_not_depend_on_the_cap(self, monkeypatch):
        def run():
            adaptive = acceptance_experiment(
                paper_unconstrained(4), Fpga(width=100), [20.0, 60.0, 95.0],
                200, 13, sim_schedulers=("EDF-NF", "EDF-FkF"),
                sim_release="sporadic", horizon_factor=4, ci_target=0.12,
            )
            binned = acceptance_experiment(
                spatially_light_temporally_heavy(10), Fpga(width=100),
                [40.0, 60.0, 80.0], 15, 17, sampling="bin", horizon_factor=4,
            )
            return adaptive, binned

        reference = run()
        _set_caps(monkeypatch, 5)
        assert run() == reference
        adaptive, _ = reference
        assert adaptive.bucket_samples is not None
        assert len(set(adaptive.bucket_samples)) > 1  # sizing did adapt


class TestMergedAblations:
    """Each ablation's curves do not depend on how its buckets are
    split into simulator calls (a one-row cap is the per-row loop)."""

    @pytest.mark.parametrize("run", [
        lambda: placement_ablation(
            us_grid=(40.0, 70.0), samples=9, seed=41, horizon_factor=4,
            policies=(PlacementPolicy.FIRST_FIT, PlacementPolicy.BEST_FIT),
        ),
        lambda: nf_vs_fkf_ablation(us_grid=(40.0, 80.0), samples=11, seed=37),
        lambda: offset_ablation(us_grid=(50.0, 80.0), samples=8,
                                offset_samples=3, seed=43, horizon_factor=4),
        lambda: sporadic_ablation(us_grid=(50.0, 80.0), samples=8,
                                  sporadic_samples=3, seed=47, horizon_factor=4),
        lambda: offset_ablation(us_grid=(50.0, 80.0), samples=8,
                                offset_samples=4, seed=43, horizon_factor=4,
                                search="adaptive", search_rounds=2),
        lambda: sporadic_ablation(us_grid=(50.0, 80.0), samples=8,
                                  sporadic_samples=4, seed=47, horizon_factor=4,
                                  search="adaptive", search_rounds=2),
    ], ids=["placement", "nf-vs-fkf", "offset", "sporadic",
            "offset-adaptive", "sporadic-adaptive"])
    def test_curves_do_not_depend_on_the_cap(self, run, monkeypatch):
        reference = run()
        _set_caps(monkeypatch, 1)
        assert run() == reference

    def test_adaptive_search_matches_per_bucket_driver(self):
        from repro.search.drivers import adaptive_offset_search_batch
        from repro.search.proposal import SearchConfig

        grid, samples, seed, hf = (50.0, 80.0), 8, 43, 4
        curves = offset_ablation(us_grid=grid, samples=samples,
                                 offset_samples=4, seed=seed, horizon_factor=hf,
                                 search="adaptive", search_rounds=2)
        fpga = Fpga(width=100)
        expected = []
        for i, (rng, us) in enumerate(zip(spawn_rngs(seed, len(grid)), grid)):
            batch = feasible_batch_at(paper_unconstrained(10), us, samples, rng)
            sync = simulate_batch(batch, fpga, "EDF-NF", horizon_factor=hf).schedulable
            live = np.nonzero(sync)[0]
            streams = spawn_rngs(seed * 1000 + i, batch.count)
            searched = sync.copy()
            if live.size:
                outcome = adaptive_offset_search_batch(
                    batch.rows(live), fpga, "EDF-NF", budget=4,
                    rngs=[streams[b] for b in live],
                    config=SearchConfig(rounds=2, elite_frac=0.25),
                    horizon_factor=hf,
                )
                searched[live] &= ~outcome.found
            expected.append(int(searched.sum()) / samples)
        assert curves["sim:offset-search"].ratios == tuple(expected)
