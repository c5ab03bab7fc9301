"""Tests for the acceptance-ratio engine and experiment plumbing."""

import math

import numpy as np
import pytest

from repro.experiments.acceptance import (
    AcceptanceCurves,
    AcceptanceSeries,
    acceptance_experiment,
    binned_batch_at,
    feasible_batch_at,
)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import as_csv, as_markdown, as_text, render, sparkline
from repro.experiments.tables import run_tables, render_tables
from repro.fpga.device import Fpga, StaticRegion
from repro.gen.profiles import paper_unconstrained, spatially_light_temporally_heavy
from repro.util.rngutil import rng_from_seed


class TestFeasibleBatchAt:
    def test_hits_target_exactly(self):
        batch = feasible_batch_at(paper_unconstrained(5), 40.0, 50, rng_from_seed(1))
        assert batch.count == 50
        assert np.allclose(batch.system_utilization, 40.0)
        assert batch.feasible_mask.all()

    def test_unreachable_target_raises(self):
        from repro.gen.profiles import GenerationProfile

        tiny = GenerationProfile(n_tasks=2, area_min=1, area_max=2)
        with pytest.raises(RuntimeError):
            feasible_batch_at(tiny, 80.0, 10, rng_from_seed(2), max_rounds=5)

    def test_validation(self):
        with pytest.raises(ValueError):
            feasible_batch_at(paper_unconstrained(3), 0, 5, rng_from_seed(1))
        with pytest.raises(ValueError):
            feasible_batch_at(paper_unconstrained(3), 10.0, 0, rng_from_seed(1))


class TestBinnedBatchAt:
    def test_keeps_raw_joint_distribution(self):
        profile = spatially_light_temporally_heavy(10)
        batch = binned_batch_at(profile, 60.0, 3.0, 40, rng_from_seed(3))
        assert batch is not None
        # US within tolerance, and per-task utilizations stay heavy
        assert np.all(np.abs(batch.system_utilization - 60.0) <= 3.0)
        assert (batch.wcet / batch.period >= 0.5 - 1e-12).all()

    def test_unreachable_bucket_returns_none(self):
        profile = spatially_light_temporally_heavy(10)
        # US < 5 impossible: 10 tasks x u>=0.5 x A>=1 => US >= 5
        batch = binned_batch_at(profile, 2.0, 0.5, 10, rng_from_seed(4),
                                max_rounds=2, chunk=2000)
        assert batch is None

    def test_validation(self):
        with pytest.raises(ValueError):
            binned_batch_at(paper_unconstrained(3), 10.0, 0, 5, rng_from_seed(1))
        with pytest.raises(ValueError):
            binned_batch_at(paper_unconstrained(3), 10.0, 1.0, 0, rng_from_seed(1))
        with pytest.raises(ValueError):
            binned_batch_at(paper_unconstrained(3), 10.0, 1.0, 5, rng_from_seed(1),
                            chunk=0)

    def test_adaptive_draw_sizing(self, monkeypatch):
        """Small requests must not trigger flat 50k-set draws per round."""
        import repro.experiments.acceptance as acc

        sizes = []
        real = acc.generate_batch

        def spy(profile, count, rng):
            sizes.append(count)
            return real(profile, count, rng)

        monkeypatch.setattr(acc, "generate_batch", spy)
        batch = binned_batch_at(
            paper_unconstrained(10), 60.0, 5.0, 25, rng_from_seed(11)
        )
        assert batch is not None and batch.count == 25
        assert sizes[0] == 2048  # max(2048, 4*25), not 50_000
        assert all(s <= 50_000 for s in sizes)


class TestAcceptanceExperiment:
    def _run(self, **kw):
        defaults = dict(
            profile=paper_unconstrained(4),
            fpga=Fpga(width=100),
            us_grid=[20.0, 50.0, 80.0],
            samples_per_point=60,
            seed=5,
            sim_samples_per_point=10,
            horizon_factor=5,
        )
        defaults.update(kw)
        return acceptance_experiment(**defaults)

    def test_produces_all_series(self):
        curves = self._run()
        assert set(curves.labels) == {"DP", "GN1", "GN2", "sim:EDF-NF"}
        for s in curves.series:
            assert len(s.ratios) == 3
            assert all(0 <= r <= 1 for r in s.ratios)

    def test_ratios_decrease_with_utilization(self):
        curves = self._run()
        for label in ("DP", "GN1", "GN2"):
            r = curves[label].ratios
            assert r[0] >= r[-1]

    def test_simulation_dominates_tests(self):
        """The paper's headline: all tests pessimistic vs simulation."""
        curves = self._run(samples_per_point=40, sim_samples_per_point=40)
        sim = curves["sim:EDF-NF"].ratios
        for label in ("DP", "GN1", "GN2"):
            for test_r, sim_r in zip(curves[label].ratios, sim):
                # identical tasksets per bucket -> strict dominance holds
                assert test_r <= sim_r + 1e-12

    def test_reproducible(self):
        a = self._run()
        b = self._run()
        assert a.series == b.series

    def test_seed_changes_results(self):
        a = self._run()
        b = self._run(seed=6)
        assert a.series != b.series

    def test_no_simulation_mode(self):
        curves = self._run(sim_schedulers=())
        assert set(curves.labels) == {"DP", "GN1", "GN2"}

    def test_binned_mode_with_unreachable_bucket(self):
        curves = acceptance_experiment(
            spatially_light_temporally_heavy(10),
            Fpga(width=100),
            [2.0, 3.0, 60.0],  # spacing 1 -> bin tolerance 0.5
            samples_per_point=30,
            seed=7,
            tests=("GN1",),
            sim_schedulers=(),
            sampling="bin",
        )
        r = curves["GN1"].ratios
        # US < 5 is impossible for 10 tasks with u >= 0.5 and A >= 1
        assert math.isnan(r[0]) and math.isnan(r[1])
        assert not math.isnan(r[2])

    def test_validation(self):
        with pytest.raises(ValueError):
            self._run(tests=("XXX",))
        with pytest.raises(ValueError):
            self._run(sim_schedulers=("RoundRobin",))
        with pytest.raises(ValueError):
            self._run(samples_per_point=0)
        with pytest.raises(ValueError):
            self._run(sampling="magic")
        with pytest.raises(ValueError):
            self._run(sim_backend="quantum")
        with pytest.raises(ValueError):
            self._run(bin_tolerance=0.0)

    def test_series_lookup(self):
        curves = self._run(sim_schedulers=())
        assert curves["DP"].label == "DP"
        with pytest.raises(KeyError):
            curves["nope"]
        assert curves["DP"].at(20.0) == curves["DP"].ratios[0]
        with pytest.raises(KeyError):
            curves["DP"].at(33.0)

    def test_series_at_tolerates_computed_grids(self):
        """Regression: linspace buckets differ from literals by ulps; an
        exact == lookup used to KeyError on them."""
        grid = np.linspace(0.1, 0.7, 3)  # 0.1, 0.4000000000000001, 0.7
        series = AcceptanceSeries("DP", tuple(grid), (1.0, 0.5, 0.0))
        assert series.at(0.4) == 0.5
        assert series.at(grid[1]) == 0.5
        assert series.at(0.1) == 1.0
        with pytest.raises(KeyError):
            series.at(0.5)

    def test_vector_and_scalar_backends_agree(self):
        """The tentpole contract: identical sim curves from both backends."""
        v = self._run(sim_backend="vector", sim_samples_per_point=30)
        s = self._run(sim_backend="scalar", sim_samples_per_point=30)
        assert v["sim:EDF-NF"].ratios == s["sim:EDF-NF"].ratios
        assert v.sim_budget_exceeded == s.sim_budget_exceeded == 0

    def test_vector_backend_simulates_full_batch(self):
        """No 200-set subsample cap on the vector backend."""
        curves = self._run(samples_per_point=250, sim_samples_per_point=None)
        assert curves.sim_samples_per_point == 250
        scalar = self._run(
            samples_per_point=250, sim_samples_per_point=None,
            sim_backend="scalar", sim_schedulers=(),
        )
        assert scalar.sim_samples_per_point == 200

    def test_event_budget_survives_sweep(self):
        """A blown max_events budget must not abort the experiment."""
        for backend in ("vector", "scalar"):
            curves = self._run(sim_backend=backend, max_events=3)
            assert curves.sim_budget_exceeded == 30  # 3 buckets x 10 sims
            assert all(r == 0.0 for r in curves["sim:EDF-NF"].ratios)

    def test_explicit_bin_tolerance(self):
        curves = acceptance_experiment(
            spatially_light_temporally_heavy(10),
            Fpga(width=100),
            [60.0],
            samples_per_point=20,
            seed=7,
            tests=("GN1",),
            sim_schedulers=(),
            sampling="bin",
            bin_tolerance=3.0,
        )
        assert not math.isnan(curves["GN1"].ratios[0])

    def test_single_bucket_bin_requires_tolerance(self):
        with pytest.raises(ValueError, match="bin_tolerance"):
            acceptance_experiment(
                spatially_light_temporally_heavy(10),
                Fpga(width=100),
                [60.0],
                samples_per_point=20,
                seed=7,
                tests=("GN1",),
                sim_schedulers=(),
                sampling="bin",
            )

    def test_rows_shape(self):
        curves = self._run(sim_schedulers=())
        rows = curves.rows()
        assert len(rows) == 3
        assert len(rows[0]) == 4  # us + 3 tests


class TestArrayBackendThreading:
    """sim_array_backend plumbing + the device-backend serial override."""

    def _run(self, **kw):
        defaults = dict(
            profile=paper_unconstrained(3),
            fpga=Fpga(width=100),
            us_grid=[30.0, 70.0],
            samples_per_point=25,
            seed=9,
            sim_samples_per_point=8,
            horizon_factor=4,
        )
        defaults.update(kw)
        return acceptance_experiment(**defaults)

    def test_explicit_numpy_backend_matches_default(self):
        a = self._run()
        b = self._run(sim_array_backend="numpy")
        assert a.series == b.series

    def test_unknown_array_backend_rejected_eagerly(self):
        with pytest.raises(ValueError, match="array backend"):
            self._run(sim_array_backend="quantum")

    def test_unavailable_array_backend_raises_backend_unavailable(self):
        from repro.vector import xp as xp_mod

        if xp_mod.backend_available("torch"):
            pytest.skip("torch installed here")
        with pytest.raises(xp_mod.BackendUnavailable):
            self._run(sim_array_backend="torch")

    def test_host_backend_keeps_workers_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            curves = self._run(workers=2, sim_backend="scalar")
        assert curves["sim:EDF-NF"].ratios


class TestFigures:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {"fig3a", "fig3b", "fig4a", "fig4b"}

    def test_run_figure_small(self):
        curves = run_figure("fig3a", samples=30, sim_samples=0, seed=1)
        assert curves.name.startswith("Fig 3(a)")
        assert len(curves["DP"].ratios) == FIGURES["fig3a"].points

    def test_fig4b_uses_binning(self):
        assert FIGURES["fig4b"].sampling == "bin"


class TestTablesRunner:
    def test_all_tables_match_paper(self):
        outcomes = run_tables()
        assert all(o.matches_paper for o in outcomes.values())

    def test_render(self):
        text = render_tables(run_tables())
        assert "table1" in text and "accept" in text and "NO" not in text


class TestRegistry:
    def test_contains_every_design_md_experiment(self):
        expected = {
            "fig3a", "fig3b", "fig4a", "fig4b",
            "ablation-alpha", "ablation-nf-fkf",
            "ablation-placement", "ablation-offsets",
        }
        assert expected <= set(EXPERIMENTS)

    def test_get_experiment(self):
        assert get_experiment("fig3a").experiment_id == "fig3a"
        with pytest.raises(KeyError):
            get_experiment("fig9z")


class TestReport:
    def _curves(self):
        return AcceptanceCurves(
            name="demo",
            capacity=100,
            samples_per_point=10,
            sim_samples_per_point=5,
            series=(
                AcceptanceSeries("DP", (10.0, 20.0), (1.0, 0.5)),
                AcceptanceSeries("sim:EDF-NF", (10.0, 20.0), (1.0, 1.0)),
            ),
        )

    def test_text(self):
        out = as_text(self._curves())
        assert "demo" in out and "DP" in out and "0.500" in out

    def test_text_normalized(self):
        out = as_text(self._curves(), normalize=True)
        assert "0.100" in out  # 10/100

    def test_csv(self):
        out = as_csv(self._curves())
        lines = out.strip().split("\n")
        assert lines[0] == "us,DP,sim:EDF-NF"
        assert lines[1].startswith("10,")

    def test_markdown(self):
        out = as_markdown(self._curves())
        assert out.count("|") > 8

    def test_sparkline(self):
        line = sparkline(self._curves(), "DP")
        assert "DP" in line and "█" in line

    def test_render_dispatch(self):
        for fmt in ("text", "csv", "markdown"):
            assert render(self._curves(), fmt)
        with pytest.raises(ValueError):
            render(self._curves(), "xml")


class TestCiTargetSizing:
    """Adaptive per-bucket sampling (ROADMAP: size buckets by CI width)."""

    def _run(self, **kw):
        defaults = dict(
            profile=paper_unconstrained(4),
            fpga=Fpga(width=100),
            us_grid=[10.0, 50.0, 90.0],
            samples_per_point=400,
            seed=9,
            horizon_factor=5,
        )
        defaults.update(kw)
        return acceptance_experiment(**defaults)

    def test_uncertain_buckets_draw_more_samples(self):
        """Buckets whose series sit near 0/1 stop near the pilot size;
        the bucket with the most knife-edge ratios spends the most."""
        curves = self._run(ci_target=0.05)
        assert curves.bucket_samples is not None
        assert len(curves.bucket_samples) == 3
        assert all(32 <= n <= 400 for n in curves.bucket_samples)
        assert max(curves.bucket_samples) > min(curves.bucket_samples)
        # the most-uncertain bucket (worst p(1-p) across series) gets
        # the largest draw
        variance = [
            max(s.ratios[i] * (1 - s.ratios[i]) for s in curves.series)
            for i in range(3)
        ]
        assert curves.bucket_samples.index(max(curves.bucket_samples)) == (
            variance.index(max(variance))
        )
        # flat mode records no per-bucket counts
        assert self._run().bucket_samples is None

    def test_tighter_target_draws_more(self):
        loose = self._run(ci_target=0.1)
        tight = self._run(ci_target=0.02)
        assert sum(tight.bucket_samples) >= sum(loose.bucket_samples)

    def test_reproducible(self):
        a = self._run(ci_target=0.05)
        b = self._run(ci_target=0.05)
        assert a.series == b.series
        assert a.bucket_samples == b.bucket_samples

    def test_ratios_stay_sane_and_monotone_enough(self):
        curves = self._run(ci_target=0.05)
        for s in curves.series:
            assert all(0 <= r <= 1 for r in s.ratios)
        for label in ("DP", "GN1", "GN2"):
            r = curves[label].ratios
            assert r[0] >= r[-1]

    def test_binned_sampling_supported(self):
        curves = acceptance_experiment(
            spatially_light_temporally_heavy(10),
            Fpga(width=100),
            [55.0, 65.0],
            samples_per_point=200,
            seed=11,
            tests=("GN1",),
            sim_schedulers=(),
            sampling="bin",
            ci_target=0.08,
        )
        assert curves.bucket_samples is not None
        assert all(n <= 200 for n in curves.bucket_samples)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._run(ci_target=0.0)
        with pytest.raises(ValueError):
            self._run(ci_target=0.7)
        with pytest.raises(ValueError):
            self._run(ci_target=0.05, sim_backend="scalar")
        with pytest.raises(ValueError):
            self._run(ci_target=0.05, sim_samples_per_point=10)
        # scalar backend is fine when no sim curves are requested
        curves = self._run(
            ci_target=0.1, sim_backend="scalar", sim_schedulers=()
        )
        assert curves.bucket_samples is not None

    def test_run_figure_and_cli_expose_ci_target(self):
        curves = run_figure("fig3a", samples=200, seed=3, ci_target=0.1)
        assert curves.bucket_samples is not None
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["run", "fig3a", "--ci-target", "0.05"]
        )
        assert args.ci_target == 0.05


class TestOffsetAblationSoundness:
    """The offset/sporadic searches are refinements: searched curves must
    sit pointwise at or below their baseline curves (regression for the
    bug where a sync-failing set could count as offset-accepted)."""

    GRID = (40.0, 60.0, 85.0)

    def test_offset_curve_pointwise_below_sync(self):
        from repro.experiments.ablations import offset_ablation

        curves = offset_ablation(
            us_grid=self.GRID, samples=15, offset_samples=4, seed=43
        )
        sync = curves["sim:synchronous"].ratios
        searched = curves["sim:offset-search"].ratios
        for a, b in zip(sync, searched):
            assert b <= a
        assert all(0 <= r <= 1 for r in sync + searched)

    def test_sporadic_curve_pointwise_below_periodic(self):
        from repro.experiments.ablations import sporadic_ablation

        curves = sporadic_ablation(
            us_grid=self.GRID, samples=15, sporadic_samples=4, seed=47
        )
        periodic = curves["sim:periodic"].ratios
        searched = curves["sim:sporadic-search"].ratios
        for a, b in zip(periodic, searched):
            assert b <= a

    @pytest.mark.parametrize(
        "ablation,kw",
        [
            ("offset_ablation", {"offset_samples": 3}),
            ("sporadic_ablation", {"sporadic_samples": 3}),
        ],
    )
    def test_vector_and_scalar_backends_agree(self, ablation, kw):
        """Shared offset/schedule streams -> identical curves."""
        from repro.experiments import ablations

        fn = getattr(ablations, ablation)
        v = fn(us_grid=(50.0, 80.0), samples=8, seed=5, sim_backend="vector", **kw)
        s = fn(us_grid=(50.0, 80.0), samples=8, seed=5, sim_backend="scalar", **kw)
        for label in v.labels:
            assert v[label].ratios == s[label].ratios, label

    def test_zero_pattern_samples_degenerate_to_baseline(self):
        from repro.experiments.ablations import offset_ablation, sporadic_ablation

        o = offset_ablation(us_grid=(60.0,), samples=10, offset_samples=0, seed=3)
        assert o["sim:synchronous"].ratios == o["sim:offset-search"].ratios
        s = sporadic_ablation(
            us_grid=(60.0,), samples=10, sporadic_samples=0, seed=3
        )
        assert s["sim:periodic"].ratios == s["sim:sporadic-search"].ratios

    def test_validation(self):
        from repro.experiments.ablations import offset_ablation, sporadic_ablation

        with pytest.raises(ValueError):
            offset_ablation(samples=5, sim_backend="quantum")
        with pytest.raises(ValueError):
            offset_ablation(samples=5, offset_samples=-1)
        with pytest.raises(ValueError):
            sporadic_ablation(samples=5, sim_backend="quantum")
        with pytest.raises(ValueError):
            sporadic_ablation(samples=5, sporadic_samples=-1)


class TestSimReleaseThreading:
    """sim_release/sim_jitter reach the engine's vector sim curves."""

    def _run(self, **kw):
        defaults = dict(
            profile=paper_unconstrained(4),
            fpga=Fpga(width=100),
            us_grid=[30.0, 70.0],
            samples_per_point=20,
            seed=17,
            tests=(),
            horizon_factor=5,
        )
        defaults.update(kw)
        return acceptance_experiment(**defaults)

    def test_sporadic_curves_produced_and_reproducible(self):
        a = self._run(sim_release="sporadic")
        b = self._run(sim_release="sporadic")
        assert a.series == b.series
        for s in a.series:
            assert all(0 <= r <= 1 for r in s.ratios)

    def test_zero_jitter_degenerates_to_periodic(self):
        """sim_jitter=0 draws gap == T schedules: same curves as the
        periodic pattern (and proof the jitter knob reaches the sampler)."""
        lo = self._run(sim_release="sporadic", sim_jitter=0.0)
        periodic = self._run()
        assert lo.series == periodic.series

    def test_schedulers_share_patterns(self):
        """Both sim curves in a bucket see the same sampled schedules, so
        NF dominance over FkF holds pairwise under sporadic release."""
        curves = self._run(
            sim_release="sporadic", sim_schedulers=("EDF-NF", "EDF-FkF")
        )
        for a, b in zip(
            curves["sim:EDF-NF"].ratios, curves["sim:EDF-FkF"].ratios
        ):
            assert b <= a + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            self._run(sim_release="bursty")
        with pytest.raises(ValueError):
            self._run(sim_jitter=-0.5)
        with pytest.raises(ValueError):
            self._run(sim_release="sporadic", sim_backend="scalar")
        # scalar backend fine when no sim curves requested
        curves = self._run(
            sim_release="sporadic", sim_backend="scalar",
            sim_schedulers=(), tests=("DP",),
        )
        assert curves.labels == ("DP",)

    def test_run_figure_exposes_release_and_mode(self):
        from repro.fpga.placement import PlacementPolicy
        from repro.sim.simulator import MigrationMode

        sporadic = run_figure(
            "fig3a", samples=20, sim_samples=10, seed=3,
            sim_release="sporadic", horizon_factor=5,
        )
        assert "sim:EDF-NF" in sporadic.labels
        placed = run_figure(
            "fig3a", samples=20, sim_samples=10, seed=3,
            sim_mode=MigrationMode.RELOCATABLE,
            sim_policy=PlacementPolicy.BEST_FIT, horizon_factor=5,
        )
        free = run_figure(
            "fig3a", samples=20, sim_samples=10, seed=3, horizon_factor=5,
        )
        for p, f in zip(placed["sim:EDF-NF"].ratios, free["sim:EDF-NF"].ratios):
            assert p <= f + 1e-12


class TestSimModeThreading:
    """mode/policy reach the engine's sim curves on both backends."""

    def _run(self, **kw):
        from repro.fpga.placement import PlacementPolicy
        from repro.sim.simulator import MigrationMode

        defaults = dict(
            profile=paper_unconstrained(4),
            fpga=Fpga(width=30, static_regions=(StaticRegion(12, 3),)),
            us_grid=[12.0, 20.0],
            samples_per_point=12,
            seed=13,
            tests=(),
            sim_samples_per_point=12,
            horizon_factor=4,
            sim_mode=MigrationMode.RELOCATABLE,
            sim_policy=PlacementPolicy.BEST_FIT,
        )
        defaults.update(kw)
        return acceptance_experiment(**defaults)

    def test_vector_and_scalar_agree_in_placement_mode(self):
        v = self._run(sim_backend="vector")
        s = self._run(sim_backend="scalar")
        assert v["sim:EDF-NF"].ratios == s["sim:EDF-NF"].ratios

    def test_placement_mode_is_no_more_accepting_than_free(self):
        from repro.sim.simulator import MigrationMode

        placed = self._run(sim_backend="vector")
        free = self._run(sim_backend="vector", sim_mode=MigrationMode.FREE)
        for p, f in zip(placed["sim:EDF-NF"].ratios, free["sim:EDF-NF"].ratios):
            assert p <= f + 1e-12

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            self._run(sim_mode="relocatable")
        with pytest.raises(ValueError):
            self._run(sim_policy="best-fit")
