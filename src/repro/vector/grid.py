"""Merged simulator calls over a grid of batches.

An experiment grid is a list of batches (one per utilization bucket, or
per bucket and release pattern).  Its caller stacks their rows once
(:func:`stack_rows`) and hands :func:`simulate_grid` the flat batch with
its per-batch row counts; the flat batch is simulated in capped
:func:`~repro.vector.sim_vec.simulate_batch` calls, in-process or over a
process pool, and the results are flat arrays over the stacked rows,
which :func:`split_rows` cuts back per batch.  Rows never interact in
any vector kernel, so a row's verdict does not depend on which call (or
process) it lands in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.fpga.device import Fpga
from repro.util.parallel import parallel_map
from repro.vector.batch import TaskSetBatch
from repro.vector.sim_vec import (
    SimBatchResult,
    default_horizon_batch,
    sample_release_times_batch,
    simulate_batch,
)
from repro.vector.xp import host as np

#: Most rows one merged :func:`simulate_batch` call takes.  A call runs
#: until its slowest row is decided, and its per-pass cost is paid once
#: for all its rows, so large calls are much cheaper per row; periodic
#: simulator state costs about 1.5 kB per row at N=10.
GRID_ROWS_PER_CALL = 8192

#: Most rows one merged call takes when every row carries a table: the
#: analytic tests' ``(N, N)`` pair terms and sporadic release schedules
#: (about 17 kB per row at N=10 and ``horizon_factor=20``; the simulator
#: replays a schedule in place, so for sporadic calls that is the sampled
#: table alone).
TABLE_ROWS_PER_CALL = 512


@dataclass(frozen=True)
class GridResult:
    """One configuration's per-row results over the concatenated rows."""

    schedulable: "np.ndarray"  # (rows,) bool
    min_slack: "np.ndarray"  # (rows,) float64
    #: Rows that ran out of event budget.
    budget_exceeded: int


def stack_rows(batches: Sequence[TaskSetBatch]) -> TaskSetBatch:
    """The rows of ``batches`` (at least one), concatenated in order."""
    if len(batches) == 1:
        return batches[0]
    return TaskSetBatch(
        np.concatenate([b.wcet for b in batches]),
        np.concatenate([b.period for b in batches]),
        np.concatenate([b.deadline for b in batches]),
        np.concatenate([b.area for b in batches]),
    )


def batch_slices(counts: Sequence[int]) -> List[slice]:
    """The slice of the stacked rows that each batch of ``counts`` rows
    occupies."""
    stops = np.cumsum(counts, dtype=np.int64)
    return [slice(int(stop) - n, int(stop)) for n, stop in zip(counts, stops)]


def split_rows(flat: "np.ndarray", counts: Sequence[int]) -> List["np.ndarray"]:
    """``flat``, indexed by stacked row, cut into per-batch parts of
    ``counts`` rows."""
    return [flat[rows] for rows in batch_slices(counts)]


def row_slices(total: int, cap: int) -> List[slice]:
    """Consecutive slices of at most ``cap`` (at least one) rows covering
    ``range(total)``."""
    cap = max(1, cap)
    return [slice(lo, min(total, lo + cap)) for lo in range(0, total, cap)]


def _release_tables(
    flat: TaskSetBatch,
    rows: slice,
    counts: Sequence[int],
    release_rngs: Sequence["np.random.Generator"],
    horizon_factor: int,
    jitter: float,
) -> "np.ndarray":
    """Sporadic schedules for ``flat.rows(rows)``: the rows of batch
    ``i`` (``counts[i]`` rows) sampled from ``release_rngs[i]``,
    ``+inf``-padded to a common length."""
    tables = []
    for part, rng in zip(batch_slices(counts), release_rngs):
        lo, hi = max(rows.start, part.start), min(rows.stop, part.stop)
        if hi > lo:
            sub = flat.rows(slice(lo, hi))
            tables.append(
                sample_release_times_batch(
                    sub, default_horizon_batch(sub, factor=horizon_factor),
                    rng, jitter,
                )
            )
    if len(tables) == 1:
        return tables[0]
    out = np.full(
        (rows.stop - rows.start, flat.n_tasks, max(t.shape[2] for t in tables)),
        np.inf,
        dtype=np.float64,
    )
    at = 0
    for table in tables:
        out[at:at + table.shape[0], :, :table.shape[2]] = table
        at += table.shape[0]
    return out


def _simulate_call(call) -> SimBatchResult:
    """One merged call, ``(rows, fpga, kwargs)``; module-level so a
    process pool can pickle it."""
    rows, fpga, kwargs = call
    return simulate_batch(rows, fpga, **kwargs)


def simulate_grid(
    flat: TaskSetBatch,
    counts: Sequence[int],
    fpga: Fpga,
    configs: Sequence[Dict[str, object]],
    *,
    offsets: Optional["np.ndarray"] = None,
    release_rngs: Optional[Sequence["np.random.Generator"]] = None,
    jitter: float = 0.5,
    horizon_factor: int = 20,
    sim_workers: int = 1,
    **common: object,
) -> List[GridResult]:
    """Simulate every row of the stacked batches ``flat`` (batch ``i``
    has ``counts[i]`` rows) under each of ``configs``, in
    :func:`simulate_batch` calls of at most :data:`GRID_ROWS_PER_CALL`
    rows (:data:`TABLE_ROWS_PER_CALL` under sporadic release).

    ``configs`` holds each curve's own :func:`simulate_batch` keywords
    (``scheduler``, ``mode``, ``placement_policy``); ``common`` the
    shared ones.  ``offsets`` gives every row's ``(N,)`` first releases.
    ``release_rngs`` switches to sporadic release: each batch's
    schedules come from its own stream, sampled in row order a call at
    a time (the same draws as one sample over the whole batch), and
    every config replays the same schedules (paired curves).

    ``sim_workers`` (at least 1) spreads the calls over that many
    processes, each call at most ``ceil(rows / sim_workers)`` rows so
    every worker gets a share; schedules are still sampled here, in
    call order, so the results are bit-identical to ``sim_workers=1``,
    which runs every call in this process.

    Returns one :class:`GridResult` per config, over the rows of
    ``flat`` in order.
    """
    if sim_workers < 1:
        raise ValueError(f"sim_workers must be >= 1, got {sim_workers!r}")
    total = flat.count
    if sum(counts) != total:
        raise ValueError(f"counts sum to {sum(counts)}, not {total} rows")
    if release_rngs is not None and len(release_rngs) != len(counts):
        raise ValueError(
            f"need one release rng per batch: {len(release_rngs)} != {len(counts)}"
        )
    schedulable = [np.empty(total, dtype=bool) for _ in configs]
    min_slack = [np.empty(total, dtype=np.float64) for _ in configs]
    exceeded = [0] * len(configs)
    if total:
        cap = GRID_ROWS_PER_CALL if release_rngs is None else TABLE_ROWS_PER_CALL
        slices = row_slices(total, min(cap, -(-total // sim_workers)))

        def calls():
            for rows in slices:
                kwargs = dict(common, horizon_factor=horizon_factor)
                if offsets is not None:
                    kwargs["offsets"] = offsets[rows]
                if release_rngs is not None:
                    kwargs["release_times"] = _release_tables(
                        flat, rows, counts, release_rngs, horizon_factor, jitter
                    )
                for config in configs:
                    yield flat.rows(rows), fpga, dict(config, **kwargs)

        results = parallel_map(
            _simulate_call, calls(),
            workers=min(sim_workers, len(slices) * len(configs)),
        )
        for k, res in enumerate(results):
            rows, c = slices[k // len(configs)], k % len(configs)
            schedulable[c][rows] = res.schedulable
            min_slack[c][rows] = res.min_slack
            exceeded[c] += int(res.budget_exceeded.sum())
    return [
        GridResult(ok, slack, n)
        for ok, slack, n in zip(schedulable, min_slack, exceeded)
    ]
