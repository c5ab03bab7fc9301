"""Experiment registry: id -> runner, for the CLI and the benchmarks.

Every table, figure and ablation of the reproduction is reachable
from here, so ``repro-experiments run <id>`` regenerates any artifact of
the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.experiments import ablations, churn
from repro.experiments.acceptance import AcceptanceCurves
from repro.experiments.figures import FIGURES, run_figure
from repro.fpga.placement import PlacementPolicy
from repro.sim.simulator import MigrationMode


@dataclass(frozen=True)
class Experiment:
    """A runnable experiment with scalable sample counts."""

    experiment_id: str
    description: str
    #: ``runner(samples, seed, **knobs) -> AcceptanceCurves``.  The
    #: knobs are keyword-only and drawn from: ci_target, sim_mode,
    #: sim_policy, sim_release, sim_jitter, sim_workers, sim_search,
    #: sim_search_rounds, sim_elite_frac.  Each runner names exactly the
    #: knobs it honours, so a knob it cannot honour (ci_target on the
    #: offset search, the sim_* sweeps on ablations that sweep those axes
    #: themselves, sim_search on experiments without a pattern search)
    #: raises ``TypeError``.  Every sim curve runs on the batched
    #: simulator; sim_workers (figures only) spreads a figure's merged
    #: simulator calls over that many processes.
    runner: Callable[..., AcceptanceCurves]
    default_samples: int


def _figure_runner(figure_id: str):
    def run(
        samples: int,
        seed: int,
        *,
        ci_target: Optional[float] = None,
        sim_mode: MigrationMode = MigrationMode.FREE,
        sim_policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
        sim_release: str = "periodic",
        sim_jitter: float = 0.5,
        sim_workers: int = 1,
    ) -> AcceptanceCurves:
        return run_figure(
            figure_id,
            samples=samples,
            seed=seed,
            sim_samples=None,  # the whole bucket
            sim_mode=sim_mode,
            sim_policy=sim_policy,
            sim_release=sim_release,
            sim_jitter=sim_jitter,
            sim_workers=sim_workers,
            ci_target=ci_target,
        )

    return run


EXPERIMENTS: Dict[str, Experiment] = {
    **{
        fid: Experiment(
            fid,
            spec.title,
            _figure_runner(fid),
            default_samples=1000,
        )
        for fid, spec in FIGURES.items()
    },
    "ablation-alpha": Experiment(
        "ablation-alpha",
        "DP with integer-area alpha vs Danne's real-area alpha",
        lambda samples, seed, *, ci_target=None:
            ablations.alpha_ablation(
                samples=samples, seed=seed, ci_target=ci_target
            ),
        default_samples=2000,
    ),
    "ablation-nf-fkf": Experiment(
        "ablation-nf-fkf",
        "Simulated acceptance of EDF-NF vs EDF-FkF",
        lambda samples, seed, *, ci_target=None:
            ablations.nf_vs_fkf_ablation(
                samples=samples, seed=seed, ci_target=ci_target
            ),
        default_samples=60,
    ),
    # Every simulation-backed ablation runs on the batched simulator —
    # including the release-pattern searches, which fan their pattern
    # axis into the batch dimension and take the sim_search axis
    # ("uniform" draws, "adaptive" = the repro.search cross-entropy
    # importance sampler with sim_search_rounds / sim_elite_frac knobs).
    "ablation-placement": Experiment(
        "ablation-placement",
        "Free migration vs contiguous placement (fragmentation cost)",
        lambda samples, seed:
            ablations.placement_ablation(samples=samples, seed=seed),
        default_samples=400,
    ),
    "ablation-offsets": Experiment(
        "ablation-offsets",
        "Synchronous-release simulation vs offset-searched upper bound",
        lambda samples, seed, *, sim_search="uniform", sim_search_rounds=4,
        sim_elite_frac=0.25:
            ablations.offset_ablation(
                samples=samples, seed=seed, search=sim_search,
                search_rounds=sim_search_rounds, elite_frac=sim_elite_frac,
            ),
        default_samples=200,
    ),
    "churn": Experiment(
        "churn",
        "Online admission under arrival/departure churn (incremental engine)",
        churn.churn_runner,
        default_samples=400,
    ),
    "ablation-sporadic": Experiment(
        "ablation-sporadic",
        "Periodic-release simulation vs sporadic-searched upper bound",
        lambda samples, seed, *, sim_jitter=0.5, sim_search="uniform",
        sim_search_rounds=4, sim_elite_frac=0.25:
            ablations.sporadic_ablation(
                samples=samples, seed=seed, jitter=sim_jitter,
                search=sim_search, search_rounds=sim_search_rounds,
                elite_frac=sim_elite_frac,
            ),
        default_samples=200,
    ),
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look an experiment up by id (KeyError lists the known ids)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
