"""Tests for the repro-experiments command line."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import RUN_KNOBS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig9z"])

    def test_defaults(self):
        """Runner knobs default to ``None`` (not given): the runner's own
        defaults apply unless the user names a flag."""
        args = build_parser().parse_args(["run", "fig3a"])
        assert args.samples is None
        assert args.seed == 2007
        assert args.format == "text"
        for knob in RUN_KNOBS:
            assert getattr(args, knob) is None, knob

    def test_sim_sweep_flags(self):
        args = build_parser().parse_args([
            "run", "fig3b", "--sim-mode", "relocatable",
            "--sim-policy", "best-fit",
            "--sim-release", "sporadic", "--sim-jitter", "0.8",
        ])
        assert args.sim_mode == "relocatable"
        assert args.sim_policy == "best-fit"
        assert args.sim_release == "sporadic"
        assert args.sim_jitter == 0.8
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3a", "--sim-mode", "warp"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3a", "--sim-release", "x"])

    @pytest.mark.parametrize(
        "flag",
        [["--sim-backend", "scalar"], ["--workers", "2"],
         ["--array-backend", "numpy"]],
        ids=["sim-backend", "workers", "array-backend"],
    )
    def test_removed_engine_flags_rejected(self, flag, tmp_path):
        """One simulation engine on one array library: neither entry
        point takes an engine, a scalar-pool or an array-backend flag
        any more."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3a", *flag])
        script = Path(__file__).parent.parent / "scripts" / "regenerate_results.py"
        result = subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path), *flag],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 2
        assert "unrecognized arguments" in result.stderr


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "ablation-alpha" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "| table1 | accept | reject | reject | yes |" in out

    def test_run_small_alpha_ablation(self, capsys):
        assert main(["run", "ablation-alpha", "--samples", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "DP" in out and "DP-real" in out

    def test_run_csv_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "sub" / "alpha.csv"
        code = main([
            "run", "ablation-alpha", "--samples", "40",
            "--format", "csv", "--out", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        assert out_file.read_text().startswith("us,")

    def test_run_with_plot(self, capsys):
        assert main(["run", "ablation-alpha", "--samples", "30", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "|" in out  # sparkline frame

    def test_run_sporadic_ablation(self, capsys):
        assert main(["run", "ablation-sporadic", "--samples", "4",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sim:periodic" in out and "sim:sporadic-search" in out

    @pytest.mark.parametrize(
        "experiment, flag",
        [("ablation-alpha", ["--sim-workers", "2"]),
         ("ablation-offsets", ["--ci-target", "0.1"]),
         ("ablation-placement", ["--sim-mode", "pinned"]),
         ("churn", ["--sim-search", "adaptive"]),
         ("fig3a", ["--search-rounds", "3"])],
    )
    def test_run_rejects_knob_the_experiment_does_not_take(
        self, experiment, flag, capsys
    ):
        """A flag the chosen runner has no keyword for exits 2 and names
        the flag, before any sampling starts."""
        with pytest.raises(SystemExit) as exc:
            main(["run", experiment, "--samples", "4", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"experiment {experiment!r} does not take {flag[0]}" in err

    def test_run_passes_only_given_knobs(self, monkeypatch, capsys):
        """Unset flags do not reach the runner; given ones do, converted."""
        from repro.experiments import cli
        from repro.experiments.registry import EXPERIMENTS, Experiment
        from repro.fpga.placement import PlacementPolicy

        seen = {}

        def runner(samples, seed, *, sim_policy=None, sim_jitter=None):
            seen.update(samples=samples, seed=seed, policy=sim_policy,
                        jitter=sim_jitter)
            return EXPERIMENTS["ablation-alpha"].runner(20, seed)

        fake = Experiment("fake", "knob probe", runner, default_samples=9)
        monkeypatch.setattr(cli, "get_experiment", lambda _id: fake)
        assert main(["run", "fig3a", "--sim-policy", "best-fit"]) == 0
        assert seen == {"samples": 9, "seed": 2007,
                        "policy": PlacementPolicy.BEST_FIT, "jitter": None}

    def test_run_figure_with_sim_sweep_flags(self, capsys):
        """--sim-mode/--sim-release reach the figure-style runners
        (the ROADMAP registry-exposure item)."""
        assert main([
            "run", "fig3a", "--samples", "15", "--seed", "3",
            "--sim-mode", "relocatable", "--sim-policy", "best-fit",
            "--sim-release", "sporadic",
        ]) == 0
        out = capsys.readouterr().out
        assert "sim:EDF-NF" in out
