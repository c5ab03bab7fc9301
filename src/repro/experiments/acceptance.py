"""The acceptance-ratio experiment engine (paper §6 methodology).

For each total-system-utilization bucket, generate many tasksets from a
profile, rescaled so ``US(Γ)`` hits the bucket exactly, then record the
fraction accepted by each schedulability test and by simulation.  Tests
run vectorized over the whole batch; simulation runs either on the whole
batch as well (``sim_backend="vector"`` — the default, via
:func:`repro.vector.sim_vec.simulate_batch`, in any
:class:`~repro.sim.simulator.MigrationMode`) or one taskset at a time on
a subsample, optionally across worker processes
(``sim_backend="scalar"``).  Both backends produce bit-identical
verdicts per configuration; tasksets whose event loop blows the
``max_events`` budget are recorded as not-schedulable-within-budget and
counted in :attr:`AcceptanceCurves.sim_budget_exceeded` instead of
aborting the sweep.

Bucket sizes are either flat (``samples_per_point`` tasksets each) or
adaptive (``ci_target``): a pilot draw per bucket estimates each series'
acceptance probability and the bucket is extended only as far as needed
for a 95% confidence-interval half-width of ``ci_target``, with
``samples_per_point`` as the cap — saturated buckets (ratios near 0/1)
get cheap, knife-edge buckets get the full budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.device import Fpga
from repro.fpga.placement import PlacementPolicy
from repro.gen.profiles import GenerationProfile
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf
from repro.sim.simulator import MigrationMode
from repro.util.parallel import parallel_map
from repro.util.rngutil import rng_from_seed, spawn_rngs
from repro.vector import xp
from repro.vector.batch import TaskSetBatch, generate_batch
from repro.vector.dp_vec import dp_accepts
from repro.vector.gn1_vec import gn1_accepts
from repro.vector.gn2_vec import gn2_accepts
from repro.vector.sim_vec import (
    default_horizon_batch,
    sample_release_times_batch,
    simulate_batch,
)

#: 95% two-sided normal quantile for the ``ci_target`` bucket sizing.
_CI_Z = 1.96
#: Smallest pilot draw the adaptive mode will take per bucket.
_CI_PILOT_MIN = 32

#: Vectorized analytical tests available to the engine.
TEST_FUNCS = {
    "DP": lambda batch, cap: dp_accepts(batch, cap),
    "DP-real": lambda batch, cap: dp_accepts(batch, cap, integer_areas=False),
    "GN1": lambda batch, cap: gn1_accepts(batch, cap),
    "GN2": lambda batch, cap: gn2_accepts(batch, cap),
    "ANY": lambda batch, cap: (
        dp_accepts(batch, cap) | gn1_accepts(batch, cap) | gn2_accepts(batch, cap)
    ),
}

_SCHEDULERS = {"EDF-NF": EdfNf, "EDF-FkF": EdfFkf}


@dataclass(frozen=True)
class AcceptanceSeries:
    """One curve: acceptance ratio per utilization bucket."""

    label: str
    utilizations: Tuple[float, ...]
    ratios: Tuple[float, ...]

    def at(self, utilization: float, rel_tol: float = 1e-9) -> float:
        """Ratio at a bucket value (KeyError if absent).

        Buckets are matched tolerantly (``math.isclose`` with ``rel_tol``
        and a matching absolute floor): computed grids such as
        ``np.linspace`` values differ from the "same" literal by a few
        ulps, and an exact ``==`` would silently miss them.
        """
        for u, r in zip(self.utilizations, self.ratios):
            if math.isclose(u, utilization, rel_tol=rel_tol, abs_tol=rel_tol):
                return r
        raise KeyError(utilization)


@dataclass(frozen=True)
class AcceptanceCurves:
    """A full experiment: several series over the same buckets."""

    name: str
    capacity: int
    samples_per_point: int
    sim_samples_per_point: int
    series: Tuple[AcceptanceSeries, ...]
    #: Simulations that blew the ``max_events`` budget and were recorded
    #: as not schedulable (0 on healthy sweeps).
    sim_budget_exceeded: int = 0
    #: Actual tasksets drawn per bucket when adaptive (``ci_target``)
    #: sizing ran; ``None`` for flat ``samples_per_point`` sweeps.
    bucket_samples: Optional[Tuple[int, ...]] = None

    def __getitem__(self, label: str) -> AcceptanceSeries:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(label)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(s.label for s in self.series)

    def rows(self) -> List[Tuple[float, ...]]:
        """(utilization, ratio_1, ratio_2, ...) rows for tabular output."""
        buckets = self.series[0].utilizations
        out = []
        for idx, u in enumerate(buckets):
            out.append((u,) + tuple(s.ratios[idx] for s in self.series))
        return out


def feasible_batch_at(
    profile: GenerationProfile,
    us_target: float,
    count: int,
    rng: np.random.Generator,
    max_rounds: int = 60,
) -> TaskSetBatch:
    """``count`` tasksets from ``profile`` rescaled to ``US == us_target``.

    Vectorized analogue of :func:`repro.gen.sweep.generate_at_system_utilization`:
    infeasible rescales (some task's utilization would exceed 1) are
    discarded and redrawn.  Raises :class:`RuntimeError` when the target
    is unreachable for the profile.
    """
    if us_target <= 0:
        raise ValueError("us_target must be > 0")
    if count < 1:
        raise ValueError("count must be >= 1")
    kept: List[TaskSetBatch] = []
    have = 0
    for _ in range(max_rounds):
        draw = generate_batch(profile, count, rng)
        scaled = draw.scaled_to_system_utilization(np.full(count, us_target))
        mask = scaled.feasible_mask
        if mask.any():
            kept.append(
                TaskSetBatch(
                    scaled.wcet[mask],
                    scaled.period[mask],
                    scaled.deadline[mask],
                    scaled.area[mask],
                )
            )
            have += int(mask.sum())
        if have >= count:
            break
    if have < count:
        raise RuntimeError(
            f"profile {profile.name!r} cannot reach US={us_target}: "
            f"only {have}/{count} feasible samples in {max_rounds} rounds"
        )
    merged = TaskSetBatch(
        np.concatenate([b.wcet for b in kept])[:count],
        np.concatenate([b.period for b in kept])[:count],
        np.concatenate([b.deadline for b in kept])[:count],
        np.concatenate([b.area for b in kept])[:count],
    )
    return merged


def binned_batch_at(
    profile: GenerationProfile,
    us_target: float,
    tolerance: float,
    count: int,
    rng: np.random.Generator,
    max_rounds: int = 30,
    chunk: int = 50_000,
) -> Optional[TaskSetBatch]:
    """Up to ``count`` *raw* draws whose ``US`` lands within ``tolerance``
    of ``us_target`` (no rescaling — the paper's §6 binning methodology).

    Unlike :func:`feasible_batch_at`, the drawn tasksets keep the
    profile's joint distribution exactly (crucial for Figure 4(b), where
    rescaling would destroy the "temporally heavy" property — DESIGN.md
    §4.8).  Returns ``None`` when the bucket is unreachable; a short batch
    when only some samples landed.

    Round sizes adapt to the request: the first round draws a few times
    ``count`` (instead of a flat ``chunk`` regardless of how few samples
    were asked for), and later rounds extrapolate from the observed hit
    rate.  ``chunk`` caps any single round's draw.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    kept: List[TaskSetBatch] = []
    have = 0
    drawn = 0
    draw_size = min(chunk, max(2048, 4 * count))
    for _ in range(max_rounds):
        draw = generate_batch(profile, draw_size, rng)
        drawn += draw_size
        mask = np.abs(draw.system_utilization - us_target) <= tolerance
        if mask.any():
            kept.append(
                TaskSetBatch(
                    draw.wcet[mask], draw.period[mask],
                    draw.deadline[mask], draw.area[mask],
                )
            )
            have += int(mask.sum())
        if have >= count:
            break
        if have > 0:
            # Draw what the observed hit rate suggests (x1.5 headroom).
            need = count - have
            draw_size = int(min(chunk, max(1024, math.ceil(1.5 * need * drawn / have))))
        else:
            draw_size = min(chunk, draw_size * 4)
    if have == 0:
        return None
    return TaskSetBatch(
        np.concatenate([b.wcet for b in kept])[:count],
        np.concatenate([b.period for b in kept])[:count],
        np.concatenate([b.deadline for b in kept])[:count],
        np.concatenate([b.area for b in kept])[:count],
    )


def _simulate_one(args) -> Tuple[bool, bool]:
    """Worker: one taskset, one scheduler (picklable for process pools).

    Returns ``(schedulable, budget_exceeded)``.  A ``SimulationError``
    (event budget blown) is caught here so one pathological taskset
    cannot abort a whole sweep — the set counts as not schedulable
    within budget.
    """
    taskset, fpga, scheduler_name, mode, policy, horizon_factor, max_events = args
    from repro.sim.simulator import SimulationError, default_horizon, simulate

    scheduler = _SCHEDULERS[scheduler_name]()
    horizon = default_horizon(taskset, factor=horizon_factor)
    try:
        result = simulate(
            taskset, fpga, scheduler, horizon,
            mode=mode, placement_policy=policy,
            max_events=max_events,
        )
    except SimulationError:
        return False, True
    return result.schedulable, False


def _ci_required_samples(counts: Dict[str, List[int]], ci_target: float) -> int:
    """Samples needed so every series' 95% CI half-width <= ``ci_target``.

    Uses the worst (largest-variance) add-one-smoothed estimate across
    the series, so a pilot that saw only 0s or 1s still carries a small
    non-degenerate variance instead of claiming certainty.
    """
    worst = 0.0
    for hits, n in counts.values():
        if n == 0:
            continue
        p = (hits + 1) / (n + 2)
        worst = max(worst, p * (1 - p))
    return math.ceil(_CI_Z * _CI_Z * worst / (ci_target * ci_target))


def acceptance_experiment(
    profile: GenerationProfile,
    fpga: Fpga,
    us_grid: Sequence[float],
    samples_per_point: int,
    seed: int,
    *,
    tests: Sequence[str] = ("DP", "GN1", "GN2"),
    sim_schedulers: Sequence[str] = ("EDF-NF",),
    sim_samples_per_point: Optional[int] = None,
    sim_backend: str = "vector",
    sim_array_backend: Optional[str] = None,
    sim_mode: MigrationMode = MigrationMode.FREE,
    sim_policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
    sim_release: str = "periodic",
    sim_jitter: float = 0.5,
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
    workers: int = 1,
    sim_workers: Optional[int] = None,
    name: Optional[str] = None,
    sampling: str = "rescale",
    bin_tolerance: Optional[float] = None,
    ci_target: Optional[float] = None,
) -> AcceptanceCurves:
    """Run the full §6 experiment for one workload profile.

    ``tests`` picks analytical curves from :data:`TEST_FUNCS`;
    ``sim_schedulers`` adds simulation curves (labelled ``sim:<name>``),
    simulated under ``sim_mode``/``sim_policy`` (the paper's FREE
    migration by default; RELOCATABLE/PINNED quantify the §7 placement
    cost, honouring ``fpga``'s static regions on both backends).

    ``sim_release`` selects the release pattern of the sim curves:
    ``"periodic"`` (the paper's synchronous pattern) or ``"sporadic"``
    (one jittered schedule per taskset, gaps
    ``T_i * (1 + U(0, sim_jitter))``, sampled from a per-bucket stream
    derived from ``seed``).  Sporadic release patterns are generated and
    replayed through the batched simulator, so they require
    ``sim_backend="vector"``; every scheduler in a bucket sees the same
    sampled schedules (paired comparisons).

    ``sim_backend`` selects how those curves are computed:

    - ``"vector"`` (default): the batched simulator
      (:func:`repro.vector.sim_vec.simulate_batch`) runs the *whole*
      bucket — ``sim_samples_per_point`` defaults to
      ``samples_per_point``, so the sim curve sees every taskset the
      analytical curves see;
    - ``"scalar"``: the per-taskset event simulator, subsampled to
      ``sim_samples_per_point`` (default: min(samples, 200)) tasksets
      per bucket; ``workers > 1`` parallelizes it over processes.

    ``sim_array_backend`` picks the :mod:`repro.vector.xp` array
    namespace the batched simulator computes on (``"numpy"`` or
    ``"torch"``); ``None`` follows the process override /
    ``REPRO_ARRAY_BACKEND`` / numpy precedence.  The seeded sporadic
    sampler runs in numpy whatever the backend (its draw order is
    pinned to the scalar reference).

    Both backends yield bit-identical verdicts per taskset.  Simulations
    exceeding ``max_events`` are recorded as not schedulable and counted
    in :attr:`AcceptanceCurves.sim_budget_exceeded` rather than aborting
    the sweep.

    ``sim_workers`` shards each vector-sim bucket's batch dimension over
    a process pool inside :func:`simulate_batch` (verdicts bit-identical
    to serial; ``None`` defers to the ``REPRO_SIM_WORKERS`` environment
    variable, then 1).  It is independent of ``workers``, which
    parallelizes over *tasksets* on the scalar backend.

    ``sampling`` selects how buckets are filled: ``"rescale"`` draws from
    the profile and rescales WCETs to the exact target (fast, exact
    buckets); ``"bin"`` keeps raw draws whose ``US`` falls near the target
    (the paper's methodology — preserves the profile's joint shape, see
    Figure 4(b)).  The bin half-width is ``bin_tolerance`` when given
    (must be > 0), else half the smallest grid spacing; a single-bucket
    grid has no spacing to derive it from, so ``"bin"`` then *requires*
    an explicit ``bin_tolerance``.  Binned buckets that attract no
    samples yield ``nan``.

    ``ci_target`` switches per-bucket sizing from flat to adaptive: each
    bucket starts with a pilot draw (a tenth of the budget, at least
    ``_CI_PILOT_MIN``) and is extended only until every series' 95%
    confidence-interval half-width falls below ``ci_target``, capped at
    ``samples_per_point``.  The per-bucket draw counts are recorded in
    :attr:`AcceptanceCurves.bucket_samples`.  Adaptive sizing needs every
    series to cover the full bucket, so it requires the vector sim
    backend (or no sim curves) and rejects an explicit sim subsample.
    """
    if sampling not in ("rescale", "bin"):
        raise ValueError(f"unknown sampling mode {sampling!r}")
    if sim_backend not in ("vector", "scalar"):
        raise ValueError(f"unknown sim_backend {sim_backend!r}")
    # Resolve eagerly: a bad/uninstalled backend fails here, not after
    # the first bucket's taskset generation.
    xp.get_backend(sim_array_backend)
    if not isinstance(sim_mode, MigrationMode):
        raise ValueError(f"sim_mode must be a MigrationMode, got {sim_mode!r}")
    if not isinstance(sim_policy, PlacementPolicy):
        raise ValueError(f"sim_policy must be a PlacementPolicy, got {sim_policy!r}")
    if sim_release not in ("periodic", "sporadic"):
        raise ValueError(f"unknown sim_release {sim_release!r}")
    if sim_jitter < 0:
        raise ValueError("sim_jitter must be >= 0")
    if sim_release == "sporadic" and sim_schedulers and sim_backend != "vector":
        raise ValueError(
            "sim_release='sporadic' requires sim_backend='vector' (the "
            "scalar backend has no batched schedule replay)"
        )
    unknown = set(tests) - set(TEST_FUNCS)
    if unknown:
        raise ValueError(f"unknown tests: {sorted(unknown)}")
    unknown = set(sim_schedulers) - set(_SCHEDULERS)
    if unknown:
        raise ValueError(f"unknown schedulers: {sorted(unknown)}")
    if samples_per_point < 1:
        raise ValueError("samples_per_point must be >= 1")
    if bin_tolerance is not None and bin_tolerance <= 0:
        raise ValueError("bin_tolerance must be > 0")
    if ci_target is not None:
        if not (0 < ci_target < 0.5):
            raise ValueError("ci_target must be in (0, 0.5)")
        if sim_schedulers:
            if sim_backend != "vector":
                raise ValueError(
                    "ci_target sizing requires sim_backend='vector' "
                    "(every series must cover the full bucket)"
                )
            if sim_samples_per_point is not None and sim_samples_per_point > 0:
                raise ValueError(
                    "ci_target sizing simulates full buckets; drop "
                    "sim_samples_per_point (or set it to 0 to disable sim)"
                )
    if sim_samples_per_point is None:
        sim_n = (
            samples_per_point
            if sim_backend == "vector"
            else min(samples_per_point, 200)
        )
    else:
        sim_n = min(sim_samples_per_point, samples_per_point)
    capacity = fpga.capacity

    sim_labels = [f"sim:{s}" for s in sim_schedulers]
    labels = list(tests) + sim_labels
    ratios: Dict[str, List[float]] = {label: [] for label in labels}
    bucket_samples: List[int] = []

    grid_list = [float(u) for u in us_grid]
    if bin_tolerance is not None:
        tolerance = bin_tolerance
    elif len(grid_list) > 1:
        tolerance = min(b - a for a, b in zip(grid_list, grid_list[1:])) / 2
    elif sampling == "bin":
        raise ValueError(
            "'bin' sampling with a single-bucket grid needs an explicit "
            "bin_tolerance (no grid spacing to derive one from)"
        )
    else:
        tolerance = None  # rescale mode never bins
    budget_exceeded = 0
    rngs = spawn_rngs(seed, len(us_grid))
    for bucket_idx, us_target in enumerate(grid_list):
        rng = rngs[bucket_idx]
        # One sporadic-pattern stream per bucket, consumed sequentially
        # across the pilot/extension draws — identical settings replay
        # identical schedules.
        release_rng = (
            rng_from_seed(seed * 1_000_003 + bucket_idx)
            if sim_release == "sporadic"
            else None
        )

        def draw(n: int) -> Optional[TaskSetBatch]:
            if sampling == "rescale":
                return feasible_batch_at(profile, us_target, n, rng)
            return binned_batch_at(profile, us_target, tolerance, n, rng)

        #: per-series (hits, denominator) over this bucket's draws.
        counts: Dict[str, List[int]] = {label: [0, 0] for label in labels}

        def accumulate(batch: TaskSetBatch) -> None:
            nonlocal budget_exceeded
            for test in tests:
                mask = TEST_FUNCS[test](batch, capacity)
                counts[test][0] += int(mask.sum())
                counts[test][1] += batch.count
            if not sim_schedulers or sim_n <= 0:
                return
            k = batch.count if ci_target is not None else min(sim_n, batch.count)
            if sim_backend == "vector":
                sub = TaskSetBatch(
                    batch.wcet[:k], batch.period[:k],
                    batch.deadline[:k], batch.area[:k],
                )
                if release_rng is not None:
                    # Sample once per batch so every scheduler's curve
                    # sees the same sporadic patterns (paired).
                    release_kwargs = dict(
                        release="sporadic",
                        release_times=sample_release_times_batch(
                            sub,
                            default_horizon_batch(sub, factor=horizon_factor),
                            release_rng,
                            sim_jitter,
                        ),
                    )
                else:
                    release_kwargs = {}
                for sched in sim_schedulers:
                    res = simulate_batch(
                        sub, fpga, sched,
                        mode=sim_mode, placement_policy=sim_policy,
                        horizon_factor=horizon_factor, max_events=max_events,
                        array_backend=sim_array_backend,
                        sim_workers=sim_workers,
                        **release_kwargs,
                    )
                    counts[f"sim:{sched}"][0] += int(res.schedulable.sum())
                    counts[f"sim:{sched}"][1] += k
                    budget_exceeded += int(res.budget_exceeded.sum())
            else:
                tasksets = [batch.taskset(i) for i in range(k)]
                for sched in sim_schedulers:
                    args = [
                        (ts, fpga, sched, sim_mode, sim_policy,
                         horizon_factor, max_events)
                        for ts in tasksets
                    ]
                    outcomes = parallel_map(_simulate_one, args, workers=workers)
                    counts[f"sim:{sched}"][0] += sum(ok for ok, _ in outcomes)
                    counts[f"sim:{sched}"][1] += len(outcomes)
                    budget_exceeded += sum(ex for _, ex in outcomes)

        if ci_target is None:
            first_n = samples_per_point
        else:
            first_n = min(
                samples_per_point,
                max(_CI_PILOT_MIN, math.ceil(samples_per_point / 10)),
            )
        batch = draw(first_n)
        if batch is None:
            for label in labels:
                ratios[label].append(float("nan"))
            bucket_samples.append(0)
            continue
        accumulate(batch)
        drawn = batch.count
        if ci_target is not None:
            needed = min(samples_per_point, _ci_required_samples(counts, ci_target))
            if needed > drawn:
                extra = draw(needed - drawn)
                if extra is not None:
                    accumulate(extra)
                    drawn += extra.count
        bucket_samples.append(drawn)
        for label in labels:
            hits, n = counts[label]
            ratios[label].append(hits / n if n else float("nan"))

    buckets = tuple(float(u) for u in us_grid)
    series = tuple(
        AcceptanceSeries(label, buckets, tuple(ratios[label])) for label in labels
    )
    return AcceptanceCurves(
        name=name or profile.name,
        capacity=capacity,
        samples_per_point=samples_per_point,
        sim_samples_per_point=sim_n,
        series=series,
        sim_budget_exceeded=budget_exceeded,
        bucket_samples=tuple(bucket_samples) if ci_target is not None else None,
    )
