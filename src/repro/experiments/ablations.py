"""Ablation studies of the reproduction's design choices.

* :func:`alpha_ablation` — the paper's §3 integer-area correction
  (``Abnd = A(H)-Amax+1``) vs Danne & Platzner's real-area original:
  how much acceptance the one extra guaranteed-busy column buys.
* :func:`nf_vs_fkf_ablation` — simulated acceptance of EDF-NF vs EDF-FkF
  (the §1 dominance claim, quantified).
* :func:`placement_ablation` — §7 future work: how much schedulability
  the free-migration assumption is worth (FREE vs RELOCATABLE vs PINNED,
  by placement policy).
* :func:`offset_ablation` — §6's "simulation is only an upper bound":
  how much the synchronous-release acceptance drops when random release
  offsets are searched for counterexamples.
* :func:`sporadic_ablation` — the sporadic sibling: how much acceptance
  drops when jittered inter-arrival patterns are searched as well.

Every simulated curve comes from the batched simulator
:func:`repro.vector.sim_vec.simulate_batch`; the per-taskset simulators
of :mod:`repro.sim` are kept as test oracles only.

Every ablation fans its bucket axis into the *batch* dimension of
:func:`repro.vector.sim_vec.simulate_batch`: all buckets are drawn
first and simulated together through
:func:`repro.vector.grid.simulate_grid`, in calls of bounded size.
Both release-pattern searches fan their pattern axis in as well
(:func:`repro.search.drivers.uniform_offset_search_grid` and its
sporadic sibling): a bucket's ``B`` tasksets are repeated ``P`` times
(``B x P`` rows, one pattern per repeat, each bucket's patterns drawn
from its own stream) and reduced per taskset with "any failing pattern
⇒ unschedulable".  The searched verdict is always *intersected* with the
synchronous/periodic one, so the searched curve is pointwise <= the
baseline curve by construction (a pattern search can only remove
acceptances, never add them).

Both searches take a ``search`` axis: ``"uniform"`` draws patterns
independently (the historical behaviour, still the default), and
``"adaptive"`` spends the *same* per-taskset pattern budget through the
cross-entropy importance sampler of :mod:`repro.search` — per-task
proposals refit on the lowest-``min_slack`` (near-miss) patterns each
round, with a uniform-mixture exploration floor.  Every adaptive sample
is still a legal pattern and the intersection invariant is unchanged,
so adaptivity can only *lower* the searched curve toward the true
acceptance — more counterexamples found per simulated pattern.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.acceptance import (
    AcceptanceCurves,
    AcceptanceSeries,
    acceptance_experiment,
    feasible_batch_at,
)
from repro.fpga.device import Fpga
from repro.fpga.placement import PlacementPolicy
from repro.gen.profiles import GenerationProfile, paper_unconstrained
from repro.search.adaptive import round_sizes
from repro.search.drivers import (
    adaptive_offset_search_batch,
    adaptive_sporadic_search_batch,
    uniform_offset_search_grid,
    uniform_sporadic_search_grid,
)
from repro.search.proposal import SearchConfig
from repro.sim.simulator import MigrationMode
from repro.util.rngutil import rng_from_seed, spawn_rngs
from repro.vector import grid
from repro.vector.batch import TaskSetBatch
from repro.vector.grid import simulate_grid, split_rows, stack_rows


def _draw_buckets(
    profile: GenerationProfile, us_grid: Sequence[float], samples: int, seed: int
) -> List[TaskSetBatch]:
    """One rescaled bucket per grid point, each from its own stream."""
    rngs = spawn_rngs(seed, len(us_grid))
    return [
        feasible_batch_at(profile, float(us), samples, rngs[i])
        for i, us in enumerate(us_grid)
    ]


def _bucket_rngs(seed: int, buckets: int) -> List[np.random.Generator]:
    """The uniform searches' pattern streams, one per bucket."""
    return [rng_from_seed(seed * 1000 + i) for i in range(buckets)]


def _adaptive_search(
    driver, batches: List[TaskSetBatch], searched: List[np.ndarray],
    fpga: Fpga, seed: int, rows: int, *, budget: int, config: SearchConfig,
    **kwargs,
) -> None:
    """Run an adaptive search ``driver`` over the baseline survivors of
    every bucket, merged into calls that simulate at most ``rows`` rows
    in their largest round, and clear the tasksets it finds a miss for.

    Only survivors are searched: a failing row's searched verdict is
    already False.  Every taskset draws from its own child stream of
    its bucket's seed, so rows replay exactly as in a per-bucket search
    whichever call they land in.
    """
    live = [np.nonzero(ok)[0] for ok in searched]
    rngs = []
    for i, (batch, idx) in enumerate(zip(batches, live)):
        streams = spawn_rngs(seed * 1000 + i, batch.count)
        rngs.extend(streams[b] for b in idx)
    if not rngs:
        return
    survivors = stack_rows([b.rows(idx) for b, idx in zip(batches, live)])
    found = np.empty(survivors.count, dtype=bool)
    per_call = rows // max(round_sizes(budget, config.rounds))
    for part in grid.row_slices(survivors.count, per_call):
        found[part] = driver(
            survivors.rows(part), fpga, "EDF-NF", budget=budget,
            rngs=rngs[part], config=config, **kwargs,
        ).found
    for ok, idx, hit in zip(searched, live, split_rows(found, [len(i) for i in live])):
        ok[idx[hit]] = False


def _baseline(
    batches: List[TaskSetBatch], fpga: Fpga, horizon_factor: int
) -> List[np.ndarray]:
    """Each bucket's synchronous-periodic EDF-NF verdicts."""
    counts = [batch.count for batch in batches]
    [res] = simulate_grid(
        stack_rows(batches), counts, fpga, [{}], horizon_factor=horizon_factor
    )
    return split_rows(res.schedulable, counts)


def _search_config(search: str, search_rounds: int, elite_frac: float) -> SearchConfig:
    """Validate the search axis shared by both release-pattern ablations."""
    if search not in ("uniform", "adaptive"):
        raise ValueError(f"unknown search {search!r} (uniform or adaptive)")
    return SearchConfig(rounds=search_rounds, elite_frac=elite_frac)


def alpha_ablation(
    profile: GenerationProfile = None,
    us_grid: Sequence[float] = tuple(range(10, 100, 10)),
    samples: int = 2000,
    seed: int = 31,
    ci_target: Optional[float] = None,
) -> AcceptanceCurves:
    """DP with integer-area α vs Danne's real-area α (no simulation)."""
    profile = profile or paper_unconstrained(10)
    return acceptance_experiment(
        profile,
        Fpga(width=100),
        us_grid,
        samples_per_point=samples,
        seed=seed,
        tests=("DP", "DP-real"),
        sim_schedulers=(),
        name="ablation: integer vs real alpha",
        ci_target=ci_target,
    )


def nf_vs_fkf_ablation(
    profile: GenerationProfile = None,
    us_grid: Sequence[float] = tuple(range(20, 100, 10)),
    samples: int = 60,
    seed: int = 37,
    ci_target: Optional[float] = None,
) -> AcceptanceCurves:
    """Simulated acceptance of the two global EDF variants."""
    profile = profile or paper_unconstrained(10)
    return acceptance_experiment(
        profile,
        Fpga(width=100),
        us_grid,
        samples_per_point=samples,
        seed=seed,
        tests=(),
        sim_schedulers=("EDF-NF", "EDF-FkF"),
        sim_samples_per_point=None if ci_target is not None else samples,
        name="ablation: EDF-NF vs EDF-FkF (simulation)",
        ci_target=ci_target,
    )


def placement_ablation(
    profile: GenerationProfile = None,
    us_grid: Sequence[float] = tuple(range(20, 100, 10)),
    samples: int = 40,
    seed: int = 41,
    policies: Sequence[PlacementPolicy] = (PlacementPolicy.FIRST_FIT,),
    horizon_factor: int = 10,
    fpga: Optional[Fpga] = None,
) -> AcceptanceCurves:
    """Simulated acceptance: free migration vs contiguous placement modes.

    Quantifies the cost of dropping the paper's unrestricted-migration
    assumption — the gap between ``FREE`` and ``RELOCATABLE`` is pure
    fragmentation loss; ``PINNED`` additionally loses relocation.  Pass
    an ``fpga`` with static regions to study pre-fragmented devices.

    Every mode/policy curve shares the same per-bucket batches, so the
    gaps are paired comparisons.  Each curve runs through the batched
    simulator's array free-list, which makes full paper-scale buckets
    affordable.
    """
    profile = profile or paper_unconstrained(10)
    fpga = fpga or Fpga(width=100)
    batches = _draw_buckets(profile, us_grid, samples, seed)
    configs = [("sim:FREE", MigrationMode.FREE, PlacementPolicy.FIRST_FIT)]
    configs += [
        (f"sim:RELOC/{p.value}", MigrationMode.RELOCATABLE, p) for p in policies
    ]
    configs += [("sim:PINNED", MigrationMode.PINNED, PlacementPolicy.FIRST_FIT)]
    sizes = [batch.count for batch in batches]
    results = simulate_grid(
        stack_rows(batches), sizes, fpga,
        [dict(mode=mode, placement_policy=policy) for _, mode, policy in configs],
        horizon_factor=horizon_factor,
    )
    ratios: Dict[str, list] = {
        label: [float(ok.mean()) for ok in split_rows(res.schedulable, sizes)]
        for (label, _, _), res in zip(configs, results)
    }
    buckets = tuple(float(u) for u in us_grid)
    return AcceptanceCurves(
        name="ablation: placement modes",
        capacity=fpga.capacity,
        samples_per_point=samples,
        sim_samples_per_point=samples,
        series=tuple(
            AcceptanceSeries(label, buckets, tuple(vals))
            for label, vals in ratios.items()
        ),
    )


def offset_ablation(
    profile: GenerationProfile = None,
    us_grid: Sequence[float] = tuple(range(30, 100, 10)),
    samples: int = 40,
    offset_samples: int = 10,
    seed: int = 43,
    horizon_factor: int = 10,
    search: str = "uniform",
    search_rounds: int = 4,
    elite_frac: float = 0.25,
) -> AcceptanceCurves:
    """Synchronous-release acceptance vs offset-searched acceptance.

    The ``offset_samples`` pattern axis is fanned into the batch
    dimension — ``samples x offset_samples`` rows per bucket, every
    bucket's rows merged into capped :func:`simulate_batch` calls —
    which makes full-bucket searches affordable.

    ``search`` picks how the per-taskset budget of ``offset_samples``
    patterns is spent: ``"uniform"`` (default) draws assignments
    independently; ``"adaptive"`` runs the cross-entropy importance
    sampler of :mod:`repro.search` (``search_rounds`` rounds,
    ``elite_frac`` refit fraction) seeded per taskset, so low-slack
    regions of offset space get the budget.  The uniform search draws
    from one taskset-major stream per bucket, the adaptive search from a
    child stream per taskset.

    Soundness invariants (both searches):

    * every sampled offset lies in ``[0, T_i)`` — a legal pattern — and
      every pattern's window is extended by its largest offset (the
      horizon-extension rule — see :mod:`repro.sim.offsets`), so offset
      tasks never see fewer simulated jobs than the synchronous run;
    * the searched verdict is the *intersection* of the synchronous
      verdict and all sampled patterns, so the offset-searched curve is
      pointwise <= the synchronous curve.
    """
    profile = profile or paper_unconstrained(10)
    if offset_samples < 0:
        raise ValueError("offset_samples must be >= 0")
    config = _search_config(search, search_rounds, elite_frac)
    fpga = Fpga(width=100)
    batches = _draw_buckets(profile, us_grid, samples, seed)
    sync = _baseline(batches, fpga, horizon_factor)
    searched = [ok.copy() for ok in sync]
    if offset_samples:
        if search == "uniform":
            outcomes = uniform_offset_search_grid(
                batches, fpga, patterns=offset_samples,
                rngs=_bucket_rngs(seed, len(batches)),
                horizon_factor=horizon_factor,
            )
            for ok, outcome in zip(searched, outcomes):
                ok &= ~outcome.found
        else:
            _adaptive_search(
                adaptive_offset_search_batch, batches, searched, fpga, seed,
                grid.GRID_ROWS_PER_CALL,
                budget=offset_samples, config=config,
                horizon_factor=horizon_factor,
            )
    sync_ratios = [int(ok.sum()) / samples for ok in sync]
    offset_ratios = [int(ok.sum()) / samples for ok in searched]
    buckets = tuple(float(u) for u in us_grid)
    return AcceptanceCurves(
        name=f"ablation: synchronous vs offset-searched ({search}) simulation",
        capacity=fpga.capacity,
        samples_per_point=samples,
        sim_samples_per_point=samples,
        series=(
            AcceptanceSeries("sim:synchronous", buckets, tuple(sync_ratios)),
            AcceptanceSeries("sim:offset-search", buckets, tuple(offset_ratios)),
        ),
    )


def sporadic_ablation(
    profile: GenerationProfile = None,
    us_grid: Sequence[float] = tuple(range(30, 100, 10)),
    samples: int = 40,
    sporadic_samples: int = 10,
    jitter: float = 0.5,
    seed: int = 47,
    horizon_factor: int = 10,
    search: str = "uniform",
    search_rounds: int = 4,
    elite_frac: float = 0.25,
) -> AcceptanceCurves:
    """Periodic-release acceptance vs sporadic-searched acceptance.

    The paper's task model is sporadic (``T`` is a *minimum*
    inter-arrival time) but its simulation releases strictly
    periodically; this ablation searches ``sporadic_samples`` jittered
    patterns per taskset (gaps ``>= T_i`` always) for counterexamples,
    the release-pattern sibling of :func:`offset_ablation`.  The
    searched verdict is the intersection of the periodic verdict and
    every sampled pattern, so the sporadic curve is pointwise <= the
    periodic curve.

    ``search="uniform"`` (default) draws per-gap jitter independently
    (gaps ``T_i * (1 + U(0, jitter))``); ``"adaptive"`` spends the same
    budget through the cross-entropy sampler of :mod:`repro.search`
    over constant-per-task gap factors (``search_rounds`` rounds,
    ``elite_frac`` refit fraction) — tasks drift against each other at
    fitted rates, steering toward near-miss phase alignments.  Either
    way the pattern axis is fanned into the batch dimension of
    :func:`simulate_batch`.
    """
    profile = profile or paper_unconstrained(10)
    if sporadic_samples < 0:
        raise ValueError("sporadic_samples must be >= 0")
    config = _search_config(search, search_rounds, elite_frac)
    fpga = Fpga(width=100)
    batches = _draw_buckets(profile, us_grid, samples, seed)
    periodic = _baseline(batches, fpga, horizon_factor)
    searched = [ok.copy() for ok in periodic]
    if sporadic_samples:
        if search == "uniform":
            outcomes = uniform_sporadic_search_grid(
                batches, fpga, patterns=sporadic_samples,
                rngs=_bucket_rngs(seed, len(batches)),
                max_jitter_factor=jitter,
                horizon_factor=horizon_factor,
            )
            for ok, outcome in zip(searched, outcomes):
                ok &= ~outcome.found
        else:
            _adaptive_search(
                adaptive_sporadic_search_batch, batches, searched, fpga, seed,
                grid.TABLE_ROWS_PER_CALL,
                budget=sporadic_samples, max_jitter_factor=jitter,
                config=config, horizon_factor=horizon_factor,
            )
    periodic_ratios = [int(ok.sum()) / samples for ok in periodic]
    sporadic_ratios = [int(ok.sum()) / samples for ok in searched]
    buckets = tuple(float(u) for u in us_grid)
    return AcceptanceCurves(
        name=f"ablation: periodic vs sporadic-searched ({search}) simulation",
        capacity=fpga.capacity,
        samples_per_point=samples,
        sim_samples_per_point=samples,
        series=(
            AcceptanceSeries("sim:periodic", buckets, tuple(periodic_ratios)),
            AcceptanceSeries(
                "sim:sporadic-search", buckets, tuple(sporadic_ratios)
            ),
        ),
    )
