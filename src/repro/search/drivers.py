"""Batched release-pattern search drivers on ``simulate_batch``.

The four entry points — uniform/adaptive x offsets/sporadic — fan the
pattern axis into the batch dimension of
:func:`repro.vector.sim_vec.simulate_batch` (rows repeated
consecutively, one pattern per repeat) and score with its ``min_slack``
channel.  The uniform searches also run over a list of batches with one
generator each (``uniform_*_search_grid``), their fanned rows merged
into capped calls; the one-batch drivers are that case.  Sampling uses
per-row numpy generators for scalar-twin parity; the pattern mappings
live in :mod:`repro.search.patterns`.

This module imports :mod:`repro.vector` and therefore loads lazily via
the package ``__getattr__`` (the scalar twins sit *underneath*
``repro.vector`` on the import graph and must not pull it in).
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

import numpy as np

from repro.fpga.device import Fpga
from repro.sched.base import Scheduler
from repro.search.adaptive import SearchOutcome, adaptive_pattern_search
from repro.search.patterns import offsets_from_unit, release_times_from_unit
from repro.search.proposal import SearchConfig
from repro.vector.batch import TaskSetBatch
from repro.vector.grid import (
    GridResult,
    batch_slices,
    simulate_grid,
    split_rows,
    stack_rows,
)
from repro.vector.sim_vec import (
    default_horizon_batch,
    sample_offsets_batch,
    simulate_batch,
)


def _host_batch(batch: TaskSetBatch) -> TaskSetBatch:
    return TaskSetBatch(
        np.asarray(batch.wcet, dtype=np.float64),
        np.asarray(batch.period, dtype=np.float64),
        np.asarray(batch.deadline, dtype=np.float64),
        np.asarray(batch.area, dtype=np.float64),
    )


def _fan(batch: TaskSetBatch, times: int) -> TaskSetBatch:
    """Each row repeated ``times`` consecutively, so a ``(B, P)`` reshape
    of the fanned per-row results restores the (row, pattern) pairing."""
    return TaskSetBatch(
        np.repeat(batch.wcet, times, axis=0),
        np.repeat(batch.period, times, axis=0),
        np.repeat(batch.deadline, times, axis=0),
        np.repeat(batch.area, times, axis=0),
    )


def _trivial_outcome(count: int) -> SearchOutcome:
    return SearchOutcome(
        found=np.zeros(count, dtype=bool),
        min_slack=np.full(count, np.inf, dtype=np.float64),
        patterns_used=np.zeros(count, dtype=np.int64),
        rounds_run=0,
    )


def _uniform_search_grid(
    batches: Sequence[TaskSetBatch],
    patterns: int,
    rngs: Sequence[np.random.Generator],
    simulate: Callable[[TaskSetBatch, List[int]], GridResult],
) -> List[SearchOutcome]:
    """Stack the rows of ``batches``, fan ``patterns`` repeats of each,
    simulate the fanned rows with ``simulate(fanned, counts)`` (one
    pattern per repeat, batch ``i``'s ``counts[i]`` fanned rows drawn
    from ``rngs[i]``) and reduce each row with "any miss => found"."""
    if patterns < 0:
        raise ValueError("patterns must be >= 0")
    if len(rngs) != len(batches):
        raise ValueError(f"need one rng per batch: {len(rngs)} != {len(batches)}")
    counts = [batch.count for batch in batches]
    if patterns == 0 or not batches:
        return [_trivial_outcome(count) for count in counts]
    fanned = _fan(_host_batch(stack_rows(batches)), patterns)
    res = simulate(fanned, [count * patterns for count in counts])
    oks = split_rows(res.schedulable.reshape(-1, patterns), counts)
    slacks = split_rows(res.min_slack.reshape(-1, patterns), counts)
    return [
        SearchOutcome(
            found=~ok.all(axis=1),
            min_slack=slack.min(axis=1),
            patterns_used=np.full(count, patterns, dtype=np.int64),
            rounds_run=1,
        )
        if count else _trivial_outcome(0)
        for ok, slack, count in zip(oks, slacks, counts)
    ]


def uniform_offset_search_grid(
    batches: Sequence[TaskSetBatch],
    fpga: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    patterns: int,
    rngs: Sequence[np.random.Generator],
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
) -> List[SearchOutcome]:
    """Uniform offset search over several batches, one generator each,
    their fanned rows merged into capped simulator calls
    (:func:`repro.vector.grid.simulate_grid`).

    Draws ``patterns`` assignments per row — taskset-major, uniform in
    ``[0, T_i)``, the exact stream order of per-taskset
    :func:`repro.sim.offsets.sample_offsets` calls on ``rngs[i]`` — and
    reduces with "any miss => found".  Each pattern's window is extended
    by its largest offset inside ``simulate_batch`` (the
    horizon-extension rule).
    """

    def simulate(fanned: TaskSetBatch, counts: List[int]) -> GridResult:
        offsets = np.concatenate([
            sample_offsets_batch(fanned.rows(rows), rng)
            for rows, rng in zip(batch_slices(counts), rngs)
        ])
        [res] = simulate_grid(
            fanned, counts, fpga, [dict(scheduler=scheduler)],
            offsets=offsets,
            horizon_factor=horizon_factor,
            max_events=max_events,
        )
        return res

    return _uniform_search_grid(batches, patterns, rngs, simulate)


def uniform_offset_search_batch(
    batch: TaskSetBatch,
    fpga: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    patterns: int,
    rng: np.random.Generator,
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
) -> SearchOutcome:
    """Legacy uniform offset search as one batched sweep: the one-batch
    :func:`uniform_offset_search_grid`."""
    [outcome] = uniform_offset_search_grid(
        [batch], fpga, scheduler, patterns=patterns, rngs=[rng],
        horizon_factor=horizon_factor, max_events=max_events,
    )
    return outcome


def adaptive_offset_search_batch(
    batch: TaskSetBatch,
    fpga: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    budget: int,
    rngs: Sequence[np.random.Generator],
    config: SearchConfig = SearchConfig(),
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
) -> SearchOutcome:
    """Cross-entropy offset search over a batch (one proposal per row).

    Spends ``budget`` patterns per row: uniform exploration first, then
    rounds of proposal-guided draws refit on the lowest-``min_slack``
    elites (see :mod:`repro.search.proposal`).  Offsets are always
    ``u * T_i in [0, T_i)`` — legal patterns, sound certificates.
    ``rngs`` is one generator per row; row ``b`` replays exactly as a
    single-row search with ``rngs[b]``
    (:func:`repro.sim.offsets.adaptive_offset_search` is that twin).
    """
    host = _host_batch(batch)

    def score(live: np.ndarray, u: np.ndarray):
        live_count, patterns, n = u.shape
        offs = offsets_from_unit(host.period[live][:, None, :], u)
        res = simulate_batch(
            _fan(host.rows(live), patterns),
            fpga,
            scheduler,
            offsets=offs.reshape(-1, n),
            horizon_factor=horizon_factor,
            max_events=max_events,
        )
        return (
            res.min_slack.reshape(live_count, patterns),
            res.schedulable.reshape(live_count, patterns),
        )

    return adaptive_pattern_search(
        host.count, host.n_tasks, score, rngs, budget, config
    )


def uniform_sporadic_search_grid(
    batches: Sequence[TaskSetBatch],
    fpga: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    patterns: int,
    rngs: Sequence[np.random.Generator],
    max_jitter_factor: float = 0.5,
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
) -> List[SearchOutcome]:
    """Uniform sporadic search over several batches, one generator each,
    their fanned rows merged into capped simulator calls.

    Draws one per-gap jittered schedule per fanned row of batch ``i``
    from ``rngs[i]`` — the exact stream of sequential per-taskset
    :func:`repro.sim.sporadic.sample_release_schedule` calls — and
    reduces with "any miss => found".
    """

    def simulate(fanned: TaskSetBatch, counts: List[int]) -> GridResult:
        [res] = simulate_grid(
            fanned, counts, fpga, [dict(scheduler=scheduler)],
            release_rngs=rngs,
            jitter=max_jitter_factor,
            horizon_factor=horizon_factor,
            max_events=max_events,
        )
        return res

    return _uniform_search_grid(batches, patterns, rngs, simulate)


def uniform_sporadic_search_batch(
    batch: TaskSetBatch,
    fpga: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    patterns: int,
    rng: np.random.Generator,
    max_jitter_factor: float = 0.5,
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
) -> SearchOutcome:
    """Legacy uniform sporadic search as one batched sweep: the
    one-batch :func:`uniform_sporadic_search_grid`."""
    [outcome] = uniform_sporadic_search_grid(
        [batch], fpga, scheduler, patterns=patterns, rngs=[rng],
        max_jitter_factor=max_jitter_factor,
        horizon_factor=horizon_factor, max_events=max_events,
    )
    return outcome


def adaptive_sporadic_search_batch(
    batch: TaskSetBatch,
    fpga: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    budget: int,
    rngs: Sequence[np.random.Generator],
    max_jitter_factor: float = 0.5,
    config: SearchConfig = SearchConfig(),
    horizon_factor: int = 20,
    max_events: int = 1_000_000,
) -> SearchOutcome:
    """Cross-entropy sporadic search over a batch (one proposal per row).

    The proposal family is constant-per-task gaps
    ``T_i * (1 + u_i * max_jitter_factor)`` (see
    :func:`release_times_from_unit`): every gap respects the minimum
    inter-arrival, so any found miss is a sound certificate.  Scored on
    the batched simulator's ``min_slack`` over schedules replayed via
    ``release_times``; the scalar twin is
    :func:`repro.sim.sporadic.adaptive_sporadic_search`.
    """
    if max_jitter_factor < 0:
        raise ValueError("max_jitter_factor must be >= 0")
    host = _host_batch(batch)
    # default_horizon_batch handles N == 0 itself (trivial zero windows).
    hz = default_horizon_batch(host, factor=horizon_factor)

    def score(live: np.ndarray, u: np.ndarray):
        live_count, patterns, n = u.shape
        fanned = _fan(host.rows(live), patterns)
        hz_fan = np.repeat(hz[live], patterns)
        times = release_times_from_unit(
            fanned.period, u.reshape(-1, n), hz_fan, max_jitter_factor
        )
        res = simulate_batch(
            fanned,
            fpga,
            scheduler,
            release_times=times,
            horizon=hz_fan,
            max_events=max_events,
        )
        return (
            res.min_slack.reshape(live_count, patterns),
            res.schedulable.reshape(live_count, patterns),
        )

    return adaptive_pattern_search(
        host.count, host.n_tasks, score, rngs, budget, config
    )
