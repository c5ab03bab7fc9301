"""The churn scenario: admission control under a task arrival/departure stream.

The paper's §6 experiments score tests on *independently drawn* tasksets;
a deployed admission controller instead faces **churn** — a long-lived
resident set hit by a stream of service arrivals and departures, with
every decision made online.  This experiment replays seeded churn streams
at increasing per-task load and records, per analytical test, the
fraction of arrivals it admits — the online analogue of the acceptance
curves, produced entirely by the :mod:`repro.incremental` engine.

Residency is governed by the portfolio ("ANY"), the paper's §6
recommendation: an arrival joins the resident set iff *some* bound
accepts the union, and every bound is scored against that same shared
stream so the curves are comparable.  Departures retire a uniformly
random resident task.

``cross_check=True`` reruns every decision through the scalar
DP/GN1/GN2/portfolio on the equivalent :class:`~repro.model.task.TaskSet`
and asserts **bit-identical** results — the experiment then doubles as an
end-to-end incremental-parity audit (slower; used by the test-suite).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence, Tuple

from repro.core.composite import paper_portfolio
from repro.core.interfaces import SchedulerKind
from repro.experiments.acceptance import AcceptanceCurves, AcceptanceSeries
from repro.fpga.device import Fpga
from repro.gen.profiles import GenerationProfile
from repro.gen.random_tasksets import generate_taskset
from repro.incremental import AdmissionState
from repro.model.task import TaskSet
from repro.util.rngutil import spawn_rngs

#: Default per-arrival time-utilization buckets (the x-axis): the center
#: of the uniform factor window each bucket draws WCETs from.
DEFAULT_UTIL_BUCKETS: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)

#: Default service-request shape (mirrors examples/admission_control.py).
DEFAULT_PROFILE = GenerationProfile(
    n_tasks=1,
    area_min=5,
    area_max=45,
    period_min=5,
    period_max=20,
    name="churn-arrivals",
)

_SERIES = ("DP", "GN1", "GN2", "ANY")


def churn_experiment(
    events: int = 400,
    seed: int = 0,
    *,
    capacity: int = 100,
    util_buckets: Sequence[float] = DEFAULT_UTIL_BUCKETS,
    util_halfwidth: float = 0.05,
    profile: GenerationProfile = DEFAULT_PROFILE,
    departure_prob: float = 0.3,
    scheduler: SchedulerKind = SchedulerKind.EDF_NF,
    cross_check: bool = False,
) -> AcceptanceCurves:
    """Run one churn stream per utilization bucket and score the tests.

    ``events`` counts stream steps per bucket (arrival or departure);
    each bucket's arrivals draw their utilization factor uniformly from
    ``bucket ± util_halfwidth`` (clamped to [0, 1]).  Returns standard
    :class:`AcceptanceCurves` so the CLI/plotting pipeline applies as-is.
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    fpga = Fpga(width=capacity)
    accepted: Dict[str, list] = {label: [] for label in _SERIES}
    rngs = spawn_rngs(seed, len(util_buckets))
    for bucket, rng in zip(util_buckets, rngs):
        lo = max(0.0, bucket - util_halfwidth)
        hi = min(1.0, bucket + util_halfwidth)
        bucket_profile = replace(profile, util_min=lo, util_max=hi)
        counts = {label: 0 for label in _SERIES}
        offered = 0
        state = AdmissionState(fpga)
        for step in range(events):
            if len(state) and rng.random() < departure_prob:
                names = [t.name for t in state]
                state.remove(names[int(rng.integers(len(names)))])
                _maybe_cross_check(state, fpga, scheduler, cross_check)
                continue
            task = generate_taskset(bucket_profile, rng, name_prefix=f"e{step}_")[0]
            state.add(task)
            offered += 1
            verdicts = {name: state.accepts(name) for name in ("DP", "GN1", "GN2")}
            if scheduler not in state.analyzers["GN1"].test.schedulers:
                verdicts["GN1"] = False  # not applicable to this scheduler
            portfolio_ok = state.portfolio_accepts(scheduler)
            _maybe_cross_check(state, fpga, scheduler, cross_check)
            for name in ("DP", "GN1", "GN2"):
                counts[name] += verdicts[name]
            counts["ANY"] += portfolio_ok
            if not portfolio_ok:
                state.remove(task.name)
        for label in _SERIES:
            accepted[label].append(counts[label] / offered if offered else 1.0)
    return AcceptanceCurves(
        name="churn",
        capacity=capacity,
        samples_per_point=events,
        sim_samples_per_point=0,
        series=tuple(
            AcceptanceSeries(label, tuple(util_buckets), tuple(accepted[label]))
            for label in _SERIES
        ),
    )


def _maybe_cross_check(
    state: AdmissionState,
    fpga: Fpga,
    scheduler: SchedulerKind,
    enabled: bool,
) -> None:
    """Assert the incremental verdicts equal the scalar ones, bit-for-bit."""
    if not enabled or len(state) == 0:
        return
    taskset = TaskSet(state.tasks)
    for name in ("DP", "GN1", "GN2"):
        scalar = state.analyzers[name].test(taskset, fpga)
        incremental = state.result(name)
        if incremental != scalar:
            raise AssertionError(
                f"incremental {name} diverged from scalar on {len(taskset)} tasks:"
                f"\n  incremental: {incremental}\n  scalar:      {scalar}"
            )
    scalar_portfolio = paper_portfolio(scheduler)(taskset, fpga)
    if state.portfolio_result(scheduler) != scalar_portfolio:
        raise AssertionError("incremental portfolio diverged from scalar")


def churn_runner(samples: int, seed: int) -> AcceptanceCurves:
    """Registry adapter: ``samples`` = churn events per bucket.  It takes
    no knobs: the churn stream is analytical-only."""
    return churn_experiment(events=samples, seed=seed)
