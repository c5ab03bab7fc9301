"""Figures 3 and 4: acceptance ratio vs total system utilization.

Paper setup (§6): device of 100 columns; areas uniform {1..100}; periods
uniform (5,20); implicit deadlines; WCET = period × uniform factor; at
least 10,000 tasksets per experiment group.

* Fig 3(a): 4 tasks, unconstrained distributions;
* Fig 3(b): 10 tasks, unconstrained distributions;
* Fig 4(a): 10 spatially-heavy, temporally-light tasks;
* Fig 4(b): 10 spatially-light, temporally-heavy tasks.

Each figure compares DP, GN1, GN2 and simulation.  Reproduction targets
the *shape* claims: all tests pessimistic vs simulation; DP best for many
tasks, GN1 best for few; all poor when spatially heavy; GN1 best / DP
worst when temporally heavy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.acceptance import AcceptanceCurves, acceptance_experiment
from repro.fpga.device import Fpga
from repro.fpga.placement import PlacementPolicy
from repro.sim.simulator import MigrationMode
from repro.gen.profiles import (
    GenerationProfile,
    paper_unconstrained,
    spatially_heavy_temporally_light,
    spatially_light_temporally_heavy,
)
from repro.gen.sweep import utilization_grid


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure."""

    figure_id: str
    title: str
    profile: GenerationProfile
    capacity: int = 100
    us_min: float = 5.0
    us_max: float = 95.0
    points: int = 19
    #: "rescale" hits buckets exactly by scaling WCETs; "bin" keeps raw
    #: draws near the bucket (paper methodology).  Fig 4(b) *needs* "bin":
    #: rescaling to low US would push the per-task utilizations out of the
    #: temporally-heavy regime and erase the claimed GN1-vs-DP ordering.
    sampling: str = "rescale"

    def grid(self) -> Sequence[float]:
        return utilization_grid(self.us_min, self.us_max, self.points)


FIGURES = {
    "fig3a": FigureSpec(
        "fig3a",
        "Fig 3(a): 4 tasks, unconstrained C and A",
        paper_unconstrained(4),
    ),
    "fig3b": FigureSpec(
        "fig3b",
        "Fig 3(b): 10 tasks, unconstrained C and A",
        paper_unconstrained(10),
    ),
    "fig4a": FigureSpec(
        "fig4a",
        "Fig 4(a): 10 spatially heavy, temporally light tasks",
        spatially_heavy_temporally_light(10),
        # wide tasks cannot reach very low/very high US targets reliably
        us_min=10.0,
        us_max=90.0,
        points=17,
    ),
    "fig4b": FigureSpec(
        "fig4b",
        "Fig 4(b): 10 spatially light, temporally heavy tasks",
        spatially_light_temporally_heavy(10),
        # raw draws concentrate around US ~ 115; buckets below ~40 are
        # unreachable without rescaling (which would break the profile)
        us_min=40.0,
        us_max=95.0,
        points=12,
        sampling="bin",
    ),
}


def run_figure(
    figure_id: str,
    samples: int = 1000,
    seed: int = 2007,
    sim_samples: Optional[int] = 100,
    sim_schedulers: Sequence[str] = ("EDF-NF",),
    sim_mode: MigrationMode = MigrationMode.FREE,
    sim_policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
    sim_release: str = "periodic",
    sim_jitter: float = 0.5,
    sim_workers: int = 1,
    horizon_factor: int = 20,
    ci_target: Optional[float] = None,
) -> AcceptanceCurves:
    """Regenerate one of the paper's figures as an acceptance-curve table.

    Paper-fidelity runs want ``samples >= 10_000`` (the paper's group
    size); the default is sized for interactive use.  The sim curve runs
    on the batched simulator over the first ``sim_samples`` tasksets of
    each bucket; ``None`` simulates the full bucket, and 0 disables the
    simulation curve (and keeps the label out as well).

    ``sim_mode``/``sim_policy`` re-simulate the figure's sim curve under
    the §7 placement-aware migration models, and ``sim_release``/
    ``sim_jitter`` under sporadic release patterns — so any figure-style
    curve can be regenerated for the non-paper workload families too
    (see :func:`~repro.experiments.acceptance.acceptance_experiment`).
    ``sim_workers`` spreads the figure's merged simulator calls over
    that many processes (verdicts bit-identical to serial).

    ``ci_target`` switches bucket sizing from flat ``samples`` to
    adaptive: each bucket draws only as many tasksets as its series need
    for a 95% CI half-width of ``ci_target``, with ``samples`` as the
    cap (see :func:`~repro.experiments.acceptance.acceptance_experiment`).
    """
    spec = FIGURES[figure_id]
    sim_enabled = sim_samples is None or sim_samples > 0
    if ci_target is not None and sim_enabled:
        sim_samples = None  # adaptive sizing simulates the full bucket
    return acceptance_experiment(
        spec.profile,
        Fpga(width=spec.capacity),
        spec.grid(),
        samples_per_point=samples,
        seed=seed,
        tests=("DP", "GN1", "GN2"),
        sim_schedulers=sim_schedulers if sim_enabled else (),
        sim_samples_per_point=sim_samples,
        sim_mode=sim_mode,
        sim_policy=sim_policy,
        sim_release=sim_release,
        sim_jitter=sim_jitter,
        sim_workers=sim_workers,
        horizon_factor=horizon_factor,
        name=spec.title,
        sampling=spec.sampling,
        ci_target=ci_target,
    )
