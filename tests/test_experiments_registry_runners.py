"""End-to-end smoke tests: every registered experiment runner executes.

Tiny sample counts — these verify plumbing (runner signature, series
labels, bucket counts), not statistics; the benchmarks assert the shapes.
"""

import math

import pytest

from repro.experiments.ablations import (
    nf_vs_fkf_ablation,
    offset_ablation,
    placement_ablation,
    sporadic_ablation,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment


class TestRegistryRunnersExecute:
    @pytest.mark.parametrize("eid", ["fig3a", "fig3b", "fig4a"])
    def test_figure_runners(self, eid):
        curves = EXPERIMENTS[eid].runner(30, 7)
        assert set(curves.labels) >= {"DP", "GN1", "GN2"}
        assert all(len(s.ratios) == len(s.utilizations) for s in curves.series)

    def test_knobs_are_keyword_only(self):
        """A stray positional (the old ``workers`` slot) fails loudly
        instead of binding to a knob."""
        for eid in EXPERIMENTS:
            with pytest.raises(TypeError):
                EXPERIMENTS[eid].runner(30, 7, 1)

    def test_unknown_knob_raises(self):
        """No runner swallows a keyword it does not use."""
        for eid in EXPERIMENTS:
            with pytest.raises(TypeError):
                get_experiment(eid).runner(20, 1, no_such_knob=3)

    def test_fig4b_runner_binned(self):
        curves = EXPERIMENTS["fig4b"].runner(30, 7)
        gn1 = curves["GN1"].ratios
        assert any(not math.isnan(r) for r in gn1)

    def test_alpha_runner(self):
        curves = EXPERIMENTS["ablation-alpha"].runner(40, 7)
        assert set(curves.labels) == {"DP", "DP-real"}


class TestAblationRunnersDirect:
    def test_nf_vs_fkf_small(self):
        curves = nf_vs_fkf_ablation(us_grid=(40.0, 80.0), samples=6, seed=3)
        nf, fkf = curves["sim:EDF-NF"], curves["sim:EDF-FkF"]
        for a, b in zip(nf.ratios, fkf.ratios):
            assert 0 <= b <= a <= 1

    def test_placement_small(self):
        from repro.fpga.placement import PlacementPolicy

        curves = placement_ablation(
            us_grid=(40.0, 70.0), samples=5, seed=3,
            policies=(PlacementPolicy.BEST_FIT,),
        )
        assert "sim:FREE" in curves.labels
        assert "sim:RELOC/best-fit" in curves.labels
        assert "sim:PINNED" in curves.labels

    def test_offsets_small(self):
        curves = offset_ablation(
            us_grid=(50.0, 80.0), samples=5, offset_samples=3, seed=3
        )
        sync = curves["sim:synchronous"]
        searched = curves["sim:offset-search"]
        for a, b in zip(sync.ratios, searched.ratios):
            assert b <= a

    def test_sporadic_small(self):
        curves = sporadic_ablation(
            us_grid=(50.0, 80.0), samples=5, sporadic_samples=3, seed=3
        )
        periodic = curves["sim:periodic"]
        searched = curves["sim:sporadic-search"]
        for a, b in zip(periodic.ratios, searched.ratios):
            assert b <= a

    def test_release_pattern_runners_registered(self):
        """Both release-pattern searches run off the registry with their
        search knobs, and refuse the figure-only sim_* sweep knobs."""
        from repro.sim.simulator import MigrationMode

        for eid in ("ablation-offsets", "ablation-sporadic"):
            curves = EXPERIMENTS[eid].runner(
                4, 3, sim_search="uniform", sim_search_rounds=4,
                sim_elite_frac=0.25,
            )
            assert len(curves.series) == 2
            with pytest.raises(TypeError):
                EXPERIMENTS[eid].runner(4, 3, sim_mode=MigrationMode.FREE)

    def test_sporadic_runner_honours_sim_jitter(self):
        """--sim-jitter reaches sporadic_ablation: zero jitter makes every
        sampled pattern periodic, so the searched curve collapses onto
        the baseline."""
        curves = EXPERIMENTS["ablation-sporadic"].runner(
            6, 3, sim_jitter=0.0
        )
        assert curves["sim:periodic"].ratios == (
            curves["sim:sporadic-search"].ratios
        )


class TestCensusCli:
    def test_census_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["census", "--samples", "300", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "pattern" in out and "fraction" in out
