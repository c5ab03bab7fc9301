"""The acceptance-ratio experiment engine (paper §6 methodology).

For each total-system-utilization bucket, generate many tasksets from a
profile, rescaled so ``US(Γ)`` hits the bucket exactly, then record the
fraction accepted by each schedulability test and by simulation.  Tests
and simulation both run vectorized over the whole batch — simulation
through :func:`repro.vector.sim_vec.simulate_batch`, in any
:class:`~repro.sim.simulator.MigrationMode`.  Tasksets whose event loop
blows the ``max_events`` budget are recorded as
not-schedulable-within-budget and counted in
:attr:`AcceptanceCurves.sim_budget_exceeded` instead of aborting the
sweep.

Bucket sizes are either flat (``samples_per_point`` tasksets each) or
adaptive (``ci_target``): a pilot draw per bucket estimates each series'
acceptance probability and the bucket is extended only as far as needed
for a 95% confidence-interval half-width of ``ci_target``, with
``samples_per_point`` as the cap — saturated buckets (ratios near 0/1)
get cheap, knife-edge buckets get the full budget.

A grid runs as one bounded pass: every bucket is drawn first, from its
own stream, and the buckets' rows are then concatenated into analytic
and simulator calls of bounded size (:mod:`repro.vector.grid`), whose
per-row verdicts split back per bucket.  Rows never interact, so the
curves equal the per-bucket ones bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fpga.device import Fpga
from repro.fpga.placement import PlacementPolicy
from repro.gen.profiles import GenerationProfile
from repro.sim.simulator import MigrationMode
from repro.util.rngutil import rng_from_seed, spawn_rngs
from repro.vector import grid
from repro.vector.batch import TaskSetBatch, generate_batch, raw_draws, sequential_sum
from repro.vector.dp_vec import dp_accepts
from repro.vector.gn1_vec import gn1_accepts
from repro.vector.gn2_vec import gn2_accepts
from repro.vector.grid import simulate_grid, split_rows, stack_rows

#: 95% two-sided normal quantile for the ``ci_target`` bucket sizing.
_CI_Z = 1.96
#: Smallest pilot draw the adaptive mode will take per bucket.
_CI_PILOT_MIN = 32

#: Rows per block when :func:`binned_batch_at` filters a round's draws:
#: bounds the ``wcet``/``US`` temporaries to a block, not a round.
_BIN_BLOCK = 4096

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

#: Schedulers the batched simulator implements.
_SCHEDULERS = ("EDF-NF", "EDF-FkF")


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
            kept.append(scaled.rows(mask))
            have += int(mask.sum())
        if have >= count:
            break
    if have < count:
        raise RuntimeError(
            f"profile {profile.name!r} cannot reach US={us_target}: "
            f"only {have}/{count} feasible samples in {max_rounds} rounds"
        )
    return stack_rows(kept).rows(slice(0, count))


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
    rescaling would destroy the "temporally heavy" property — README,
    "Design notes" §4.8).  Returns ``None`` when the bucket is
    unreachable; a short batch when only some samples landed.

    Round sizes adapt to the request: the first round draws a few times
    ``count`` (instead of a flat ``chunk`` regardless of how few samples
    were asked for), and later rounds extrapolate from the observed hit
    rate.  ``chunk`` caps any single round's draw.

    Each round's raw draws are filtered in blocks of :data:`_BIN_BLOCK`
    rows: ``US`` is evaluated with the same float operations as
    :attr:`TaskSetBatch.system_utilization` on a
    :func:`~repro.vector.batch.generate_batch` draw, and the ``wcet``,
    ``deadline`` and float ``area`` arrays are built for the kept rows
    only, so the result is bit-identical to filtering whole batches.
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
        hits = _bin_rows(
            *raw_draws(profile, draw_size, rng), us_target, tolerance
        )
        drawn += draw_size
        kept.extend(hits)
        have += sum(b.count for b in hits)
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
    return stack_rows(kept).rows(slice(0, count))


def _bin_rows(
    period: np.ndarray,
    factor: np.ndarray,
    area: np.ndarray,
    us_target: float,
    tolerance: float,
) -> List[TaskSetBatch]:
    """The raw draws whose ``US`` lies within ``tolerance`` of
    ``us_target``, filtered :data:`_BIN_BLOCK` rows at a time."""
    kept = []
    for lo in range(0, period.shape[0], _BIN_BLOCK):
        rows = slice(lo, lo + _BIN_BLOCK)
        block_period = period[rows]
        wcet = block_period * factor[rows]
        block_area = area[rows].astype(np.float64)
        us = sequential_sum(wcet * block_area / block_period, axis=1)
        mask = np.abs(us - us_target) <= tolerance
        if mask.any():
            kept.append(
                TaskSetBatch(wcet, block_period, block_period, block_area).rows(mask)
            )
    return kept


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
    sim_mode: MigrationMode = MigrationMode.FREE,
    sim_policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
    sim_release: str = "periodic",
    sim_jitter: float = 0.5,
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
    sim_workers: int = 1,
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
    cost, honouring ``fpga``'s static regions).  The batched simulator
    (:func:`repro.vector.sim_vec.simulate_batch`) computes every sim
    curve over the first ``sim_samples_per_point`` tasksets of each
    bucket; ``None`` (the default) simulates the *whole* bucket, so the
    sim curve sees every taskset the analytical curves see.

    ``sim_release`` selects the release pattern of the sim curves:
    ``"periodic"`` (the paper's synchronous pattern) or ``"sporadic"``
    (one jittered schedule per taskset, gaps
    ``T_i * (1 + U(0, sim_jitter))``, sampled from a per-bucket stream
    derived from ``seed``).  Every scheduler in a bucket sees the same
    sampled schedules (paired comparisons).

    Simulations exceeding ``max_events`` are recorded as not schedulable
    and counted in :attr:`AcceptanceCurves.sim_budget_exceeded` rather
    than aborting the sweep.

    ``sim_workers`` spreads each grid's merged simulator calls over a
    process pool (:func:`repro.vector.grid.simulate_grid`; verdicts
    bit-identical to serial).

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
    series to cover the full bucket, so it rejects an explicit sim
    subsample.
    """
    if sampling not in ("rescale", "bin"):
        raise ValueError(f"unknown sampling mode {sampling!r}")
    if not isinstance(sim_mode, MigrationMode):
        raise ValueError(f"sim_mode must be a MigrationMode, got {sim_mode!r}")
    if not isinstance(sim_policy, PlacementPolicy):
        raise ValueError(f"sim_policy must be a PlacementPolicy, got {sim_policy!r}")
    if sim_release not in ("periodic", "sporadic"):
        raise ValueError(f"unknown sim_release {sim_release!r}")
    if sim_jitter < 0:
        raise ValueError("sim_jitter must be >= 0")
    if int(sim_workers) < 1:
        raise ValueError(f"sim_workers must be >= 1, got {sim_workers!r}")
    unknown = set(tests) - set(TEST_FUNCS)
    if unknown:
        raise ValueError(f"unknown tests: {sorted(unknown)}")
    unknown = set(sim_schedulers) - set(_SCHEDULERS)
    if unknown:
        raise ValueError(f"unknown schedulers: {sorted(unknown)}")
    if samples_per_point < 1:
        raise ValueError("samples_per_point must be >= 1")
    if sim_samples_per_point is not None and sim_samples_per_point < 0:
        raise ValueError("sim_samples_per_point must be >= 0 (None = full bucket)")
    if bin_tolerance is not None and bin_tolerance <= 0:
        raise ValueError("bin_tolerance must be > 0")
    if ci_target is not None:
        if not (0 < ci_target < 0.5):
            raise ValueError("ci_target must be in (0, 0.5)")
        if (
            sim_schedulers
            and sim_samples_per_point is not None
            and sim_samples_per_point > 0
        ):
            raise ValueError(
                "ci_target sizing simulates full buckets; drop "
                "sim_samples_per_point (or set it to 0 to disable sim)"
            )
    if sim_samples_per_point is None:
        sim_n = samples_per_point
    else:
        sim_n = min(sim_samples_per_point, samples_per_point)
    capacity = fpga.capacity

    labels = list(tests) + [f"sim:{s}" for s in sim_schedulers]

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
    rngs = spawn_rngs(seed, len(grid_list))
    # One sporadic-pattern stream per bucket, consumed sequentially
    # across the pilot/extension draws — identical settings replay
    # identical schedules.
    release_rngs = (
        [rng_from_seed(seed * 1_000_003 + i) for i in range(len(grid_list))]
        if sim_release == "sporadic"
        else None
    )
    sim_configs = [
        dict(scheduler=sched, mode=sim_mode, placement_policy=sim_policy)
        for sched in sim_schedulers
    ]

    def draw(i: int, n: int) -> Optional[TaskSetBatch]:
        if sampling == "rescale":
            return feasible_batch_at(profile, grid_list[i], n, rngs[i])
        return binned_batch_at(profile, grid_list[i], tolerance, n, rngs[i])

    #: per bucket, per series (hits, denominator) over the bucket's draws.
    counts: List[Dict[str, List[int]]] = [
        {label: [0, 0] for label in labels} for _ in grid_list
    ]
    drawn = [0] * len(grid_list)
    budget_exceeded = 0

    def run_round(wants: Sequence[int]) -> None:
        """Draw ``wants[i]`` more tasksets for each bucket ``i``, stack
        the draws once and add every series' verdicts on the flat batch
        to ``counts``, in capped calls."""
        nonlocal budget_exceeded
        draws = {i: draw(i, n) for i, n in enumerate(wants) if n > 0}
        index = [i for i, batch in draws.items() if batch is not None]
        if not index:
            return
        sizes = [draws[i].count for i in index]
        flat = stack_rows([draws[i] for i in index])
        del draws  # the analytic tests and the simulator read `flat` only
        for i, n in zip(index, sizes):
            drawn[i] += n
        for test in tests:
            mask = np.empty(flat.count, dtype=bool)
            for rows in grid.row_slices(flat.count, grid.TABLE_ROWS_PER_CALL):
                mask[rows] = TEST_FUNCS[test](flat.rows(rows), capacity)
            for i, hits in zip(index, split_rows(mask, sizes)):
                counts[i][test][0] += int(hits.sum())
                counts[i][test][1] += hits.shape[0]
        if not sim_configs or sim_n <= 0:
            return
        sim_sizes = [min(n, sim_n) for n in sizes]
        if sim_sizes != sizes:  # each bucket's first sim_n rows
            flat = flat.rows(np.concatenate([np.arange(n) < sim_n for n in sizes]))
        results = simulate_grid(
            flat, sim_sizes, fpga, sim_configs,
            release_rngs=(
                None if release_rngs is None
                else [release_rngs[i] for i in index]
            ),
            jitter=sim_jitter,
            horizon_factor=horizon_factor,
            max_events=max_events,
            sim_workers=sim_workers,
        )
        for sched, res in zip(sim_schedulers, results):
            for i, ok in zip(index, split_rows(res.schedulable, sim_sizes)):
                counts[i][f"sim:{sched}"][0] += int(ok.sum())
                counts[i][f"sim:{sched}"][1] += ok.shape[0]
            budget_exceeded += res.budget_exceeded

    if ci_target is None:
        run_round([samples_per_point] * len(grid_list))
    else:
        pilot = max(_CI_PILOT_MIN, math.ceil(samples_per_point / 10))
        run_round([min(samples_per_point, pilot)] * len(grid_list))
        # An empty pilot counted nothing, so it needs no extension.
        run_round([
            min(samples_per_point, _ci_required_samples(counts[i], ci_target)) - drawn[i]
            for i in range(len(grid_list))
        ])

    buckets = tuple(float(u) for u in us_grid)
    series = tuple(
        AcceptanceSeries(
            label,
            buckets,
            tuple(
                hits / n if n else float("nan")
                for hits, n in (bucket[label] for bucket in counts)
            ),
        )
        for label in labels
    )
    return AcceptanceCurves(
        name=name or profile.name,
        capacity=capacity,
        samples_per_point=samples_per_point,
        sim_samples_per_point=sim_n,
        series=series,
        sim_budget_exceeded=budget_exceeded,
        bucket_samples=tuple(drawn) if ci_target is not None else None,
    )
