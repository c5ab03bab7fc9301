"""Batched, event-synchronized EDF simulation over :class:`TaskSetBatch`.

The acceptance-ratio experiments need a *simulation* curve as the
ground-truth envelope above the analytical tests (paper §6) — but the
scalar :func:`repro.sim.simulator.simulate` walks one taskset at a time
through a Python event loop, which forced the engine to subsample sim to
a few hundred sets per bucket.  This module simulates a *whole batch at
once* in every migration mode of the scalar simulator:

* ``MigrationMode.FREE`` — the paper's model: a job runs iff total free
  area suffices, so each scheduling decision is a per-row deadline sort
  plus a left-to-right area accumulation;
* ``MigrationMode.RELOCATABLE`` / ``MigrationMode.PINNED`` — the §7
  placement-aware modes: each decision re-places the priority-ordered
  jobs into *contiguous* holes of a per-row bitmap free-list
  (:class:`repro.vector.placement_vec.BatchFreeList`, seeded from the
  device's static-region-fragmented free spans), preferring a job's
  previous columns, with first/best/worst-fit fallback (RELOCATABLE) or
  no fallback at all once pinned (PINNED).

Release patterns (the §6 upper-bound refinement axis):

* synchronous-periodic (the paper's pattern, default): every task's
  first job at ``t = 0``, then strictly every ``T_i``;
* **per-row offsets** — ``offsets`` is a ``(B, N)`` array of first
  release times, jobs at ``O_i + k T_i`` with absolute deadlines
  ``O_i + k T_i + D_i`` (Baker's exhaustive-offsets refinement: any
  pattern that misses certifies unschedulability);
* **sporadic** — ``release_times`` replays one explicit schedule per
  row; :func:`sample_release_times_batch` draws jittered ones (gaps
  ``T_i * (1 + U(0, jitter))``, first release 0, matching
  :func:`repro.sim.sporadic.sample_release_schedule` draw for draw on a
  shared seed).

Offset-search callers fan release patterns into the *batch axis*: tile a
bucket's ``B`` tasksets ``P`` times (``B x P`` rows), attach one offset
assignment / sporadic schedule per tile, simulate once, and reduce per
original set with "any failing pattern ⇒ unschedulable" (see
:func:`repro.experiments.ablations.offset_ablation`).

Horizon-extension rule: a job released at offset ``O_i`` sees
``floor((H - O_i) / T_i)`` jobs before ``H`` — *fewer* than the
synchronous run — so with nonzero offsets the default horizon is
extended by the row's largest offset (``default_horizon_batch(...,
offsets=...)``; the scalar twin is ``default_horizon(...,
offsets=...)``).  Without the extension the offset "refinement" would
silently simulate fewer jobs per task than the synchronous pattern and
weaken the upper bound it claims to tighten.

Scope (exactly the configuration the acceptance engine uses):

* zero reconfiguration overhead;
* ``stop_at_first_miss`` semantics — the verdict is the product;
* constrained deadlines (``D <= T``), so at most one job per task is
  live at any decision point (a predecessor either completed or missed,
  and a miss ends the row);
* placement-aware modes additionally require integral task areas, like
  the scalar simulator.

State is one per-row record, ``_Rows``: struct-of-arrays over the live
rows — ``remaining``, ``next_rel``, absolute deadlines, per-task
positions/pins, a per-row event clock — whose ``take(keep)`` compacts
every field at once.  Each step advances every live row to its *own*
next event (rows are not synchronized to a global clock).  A kernel pass
runs up to :data:`FUSE` steps of three module-level phases and ends with
a fourth:

1. ``_release`` — activate the jobs due at each row's clock and load
   each released task's next release (also run once before the first
   pass, the scalar ``release_due(0)``);
2. ``_select`` — the EDF decision: which jobs run;
3. ``_advance`` — move each row to its next event, retire completed
   jobs, decide the rows that missed or reached their horizon;
4. ``_compact`` — scatter the decided rows' outcomes, compact them out,

so the per-step cost tracks the number of still-undecided sets.  Each
phase is looked up by name at call time, so a tracer can wrap it by
path (``sim_vec._select``) without a clock read in this package.

A sporadic call replays the caller's ``(B, N, K)`` table in place: each
live row keeps its original row index, task columns map through the
name permutation, and a per-slot pointer names the next release's column
(one past the last column reads ``+inf``), so the call makes no copy of
the table.  Periodic and sporadic releases share one ``< horizon``
filter.

Inputs are pinned to float64 once per batch (float32 state would
silently change knife-edge verdicts).

Bit-exactness discipline: the float operations (release accumulation,
``now + remaining`` completion times, ``remaining - dt`` advances, area
prefix sums) are performed in the same order and with the same operands
as the scalar reference, and all placement geometry is integer
arithmetic on the shared interval representation
(:mod:`repro.fpga.intervals`), so verdicts are bit-identical to
``simulate(batch.taskset(i), offsets=...)`` /
``simulate_release_schedule(...)`` — the same contract
:func:`repro.vector.batch.sequential_sum` gives the analytical tests.
The EDF tie-break replicates the scalar queue exactly, including the
*lexicographic* task-name ordering of ``batch.taskset`` names (``tau10``
sorts before ``tau2``) — and, in sporadic mode, the pseudo-task names
``tau{i}@{j}`` that the scalar
:func:`repro.sim.sporadic.simulate_release_schedule` encodes schedules
with (``tau10@...`` sorts before ``tau1@...`` because ``'0' < '@'``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from repro.fpga.device import Fpga
from repro.fpga.placement import PlacementPolicy
from repro.sched.base import Scheduler
from repro.sim.simulator import MigrationMode
from repro.util.mathutil import TIME_EPS
from repro.vector import xp
from repro.vector.batch import TaskSetBatch
from repro.vector.placement_vec import choose_batch, clear_spans, span_free
from repro.vector.xp import host as np

#: scheduler name -> skip_blocked (EDF-NF skips a job that does not fit,
#: EDF-FkF stops at the first one — see repro.sched.base.Scheduler).
_SKIP_BLOCKED = {"EDF-NF": True, "EDF-FkF": False}

#: Event steps per kernel pass.  Each pass advances every live row up to
#: this many events back to back, then reads liveness back, scatters
#: verdicts and compacts decided rows once.  Verdicts, ``events`` and
#: ``min_slack`` are bit-identical for every value >= 1 (1 is the
#: classic one-event-per-pass loop); :func:`simulate_batch` reads it at
#: call time.
FUSE = 8


@dataclass(frozen=True)
class SimBatchResult:
    """Per-row outcome of one :func:`simulate_batch` run.

    ``schedulable`` is ``True`` iff the row saw no deadline miss before
    its horizon *and* stayed within the event budget; rows that ran out
    of budget are additionally flagged in ``budget_exceeded`` (the
    scalar simulator raises ``SimulationError`` there — the batch runner
    records the row as not-schedulable-within-budget and keeps going).
    The per-row fields are numpy arrays.

    ``min_slack`` is the row's near-miss metric: the minimum over every
    decided job of ``deadline - completion_time`` (completions) and
    ``-remaining`` (deadline misses), i.e. how close the row came to a
    miss — ``+inf`` when no job was decided, negative iff the row
    missed.  It is the scoring channel of the adaptive release-pattern
    search (:mod:`repro.search`) and matches the scalar
    :attr:`repro.sim.simulator.SimulationResult.min_slack` bit-exactly
    (same operands, same order).

    ``kernel_passes``/``event_steps`` instrument the fused stepper:
    ``event_steps`` counts inner event-loop iterations actually executed
    and ``kernel_passes`` the outer passes (liveness readback, scatter
    and compaction points).  Unfused (:data:`FUSE` ``= 1``) the two are
    equal; at ``FUSE = K`` the ratio approaches ``K`` — the measured, not
    assumed, fusion factor.
    """

    schedulable: "np.ndarray"  # (B,) bool
    budget_exceeded: "np.ndarray"  # (B,) bool
    events: "np.ndarray"  # (B,) int64 — event-loop iterations per row
    horizon: "np.ndarray"  # (B,) float64
    min_slack: "np.ndarray"  # (B,) float64 — see below
    kernel_passes: int = 0
    event_steps: int = 0

    @property
    def count(self) -> int:
        return int(self.schedulable.shape[0])

    @property
    def fusion_factor(self) -> float:
        """Measured event steps per kernel pass (nan when none ran)."""
        if self.kernel_passes == 0:
            return float("nan")
        return self.event_steps / self.kernel_passes


def _resolve_skip_blocked(scheduler: Union[str, Scheduler]) -> bool:
    if isinstance(scheduler, str):
        try:
            return _SKIP_BLOCKED[scheduler]
        except KeyError:
            known = ", ".join(sorted(_SKIP_BLOCKED))
            raise ValueError(f"unknown scheduler {scheduler!r}; known: {known}")
    if isinstance(scheduler, Scheduler):
        # Only the plain EDF queue order is replicated here; schedulers
        # with a different priority order must use the scalar simulator.
        name = getattr(scheduler, "name", "")
        if name not in _SKIP_BLOCKED:
            raise ValueError(
                f"simulate_batch replicates EDF-NF/EDF-FkF only, got {name!r}"
            )
        return bool(scheduler.skip_blocked)
    raise TypeError(f"scheduler must be a name or Scheduler, got {scheduler!r}")


def _name_ranks(n_tasks: int, sporadic: bool = False) -> "np.ndarray":
    """Rank of each task index under the scalar tie-break.

    ``batch.taskset`` names tasks ``tau1 .. tauN`` and the scalar EDF
    queue breaks (deadline, release) ties by *string* comparison of
    those names — so ``tau10`` beats ``tau2``.  Returns ``rank[i]`` =
    position of ``tau{i+1}`` in lexicographic order.

    ``sporadic`` ranks by the pseudo-task names
    ``simulate_release_schedule`` compares instead (``tau{i}@{j}``).  At
    most one job per task is live at a time (constrained deadlines, gaps
    >= T), so the job index ``j`` never decides a comparison and the
    order is fully captured by the ``tau{i}@`` prefix — which *reverses*
    prefix pairs: ``'0' < '@'``, so ``tau10@...`` sorts before
    ``tau1@...`` although ``tau1`` sorts before ``tau10``.
    """
    suffix = "@" if sporadic else ""
    order = sorted(range(n_tasks), key=lambda i: f"tau{i + 1}{suffix}")
    ranks = np.empty(n_tasks, dtype=np.int64)
    for pos, i in enumerate(order):
        ranks[i] = pos
    return ranks


def default_horizon_batch(
    batch: TaskSetBatch,
    factor: int = 20,
    offsets=None,
):
    """Per-row ``max D + factor * max T [+ max offset]`` — the scalar
    :func:`repro.sim.simulator.default_horizon`, vectorized (identical
    float operations, so the horizons match the scalar path bit-exactly).

    With ``offsets`` the window is extended by each row's largest offset:
    a task first released at ``O_i`` sees ``floor((H - O_i) / T_i)`` jobs
    before ``H``, so an unextended window would simulate *fewer* jobs
    than the synchronous run and silently weaken the upper bound the
    offset search claims to refine.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if batch.n_tasks == 0:
        # Mirror of the scalar empty-taskset guard in
        # :func:`repro.sim.offsets.simulate_with_offsets`: an empty row
        # releases no jobs, so any window (trivially 0) verifies it —
        # the max() reductions below would raise on the empty task axis.
        return np.zeros((batch.count,), dtype=np.float64)
    deadline = np.asarray(batch.deadline, dtype=np.float64)  # pin: float32
    period = np.asarray(batch.period, dtype=np.float64)  # inputs upcast exactly
    base = np.max(deadline, axis=1) + factor * np.max(period, axis=1)
    if offsets is None:
        return base
    off = np.broadcast_to(
        np.asarray(offsets, dtype=np.float64), (batch.count, batch.n_tasks)
    )
    return base + np.max(off, axis=1)


def sample_offsets_batch(batch: TaskSetBatch, rng) -> "np.ndarray":
    """One random offset assignment per row: uniform in ``[0, T_i)``.

    Draw-for-draw identical to calling
    :func:`repro.sim.offsets.sample_offsets` on each ``batch.taskset(i)``
    in row order with the same generator (one C-order ``uniform`` fill
    consumes the stream exactly like the scalar per-task draws).
    The numpy generator pins the draw order to the scalar reference.
    """
    # repro-lint: disable=RL003 -- documented host-side seeded sampler; draw order pinned to the scalar reference (ROADMAP "Array backends")
    return rng.uniform(0.0, batch.period)


def sample_release_times_batch(
    batch: TaskSetBatch,
    horizon,
    rng,
    max_jitter_factor: float = 0.5,
) -> "np.ndarray":
    """One legal sporadic release schedule per row, as a padded array.

    Returns ``(B, N, K+1)`` release times — ascending, first release 0,
    every gap ``T_i * (1 + U(0, max_jitter_factor))``, all ``< horizon``
    — right-padded with ``+inf`` (at least one sentinel column, so a
    pointer one past a task's last release always reads ``inf``), as
    float64.

    The draw discipline is row-major, task-order, one gap at a time
    *including the final overshooting draw*, so the sampled values are
    bit-identical to calling
    :func:`repro.sim.sporadic.sample_release_schedule` on each
    ``batch.taskset(i)`` in row order with the same shared generator.

    Per cell the per-draw Python loop is replaced by *certified block
    draws*: gaps are bounded by ``T * (1 + jitter)``, so up to
    ``k = floor(span / (T * (1 + jitter)))`` gaps provably land before
    the horizon and can be drawn in one ``rng.uniform(size=k)`` call —
    which consumes the generator stream draw-for-draw identically to
    ``k`` scalar calls — with ``cumsum`` (sequential left-to-right adds,
    bit-identical to the scalar accumulation) turning gaps into release
    times.  Blocks repeat on the remaining span; only the final few
    draws near the horizon (where the next stop is data-dependent) fall
    back to single draws, including the overshooting one.
    """
    if max_jitter_factor < 0:
        raise ValueError("max_jitter_factor must be >= 0")
    hz = np.broadcast_to(
        np.asarray(horizon, dtype=np.float64), (batch.count,)
    )
    if np.any(hz <= 0):
        raise ValueError("horizon must be > 0")
    B, N = batch.count, batch.n_tasks
    # Certification safety margin: block releases are bounded by
    # k * T * (1 + jitter) up to float rounding; the relative shave is
    # orders of magnitude above any accumulated cumsum error.
    _MARGIN = 1.0 - 1e-9
    gap_max = 1.0 + max_jitter_factor
    cells: list = []  # per-(b, n) release arrays, cell order
    lengths = np.zeros((B, N), dtype=np.int64)
    for b in range(B):
        horizon_b = float(hz[b])
        for n in range(N):
            period = float(batch.period[b, n])
            parts = [np.zeros(1)]  # first release at t = 0
            last = 0.0
            count = 1
            while True:
                # How many further gaps certainly stay below the horizon
                # even if every draw hits the jitter ceiling.
                k = int((horizon_b - last) / (period * gap_max) * _MARGIN)
                if k < 4:
                    break
                # repro-lint: disable=RL003 -- host-side seeded sampler block draw, stream-identical to the scalar single draws
                gaps = period * (1.0 + rng.uniform(0.0, max_jitter_factor, size=k))
                # cumsum accumulates strictly left-to-right, so seeding
                # it with ``last`` reproduces the scalar's sequential
                # ``releases[-1] + gap`` adds bit-for-bit.
                block = np.cumsum(np.concatenate([np.asarray([last]), gaps]))[1:]
                if block[-1] >= horizon_b:  # pragma: no cover - certified
                    raise RuntimeError(
                        "internal error: certified sporadic block "
                        "overshot the horizon"
                    )
                parts.append(block)
                last = float(block[-1])
                count += k
            while True:  # data-dependent tail: single draws, scalar-style
                # repro-lint: disable=RL003 -- host-side seeded sampler tail draw, consumes the stream exactly like the scalar reference
                gap = period * (1.0 + float(rng.uniform(0.0, max_jitter_factor)))
                nxt = last + gap
                if nxt >= horizon_b:
                    break  # the overshooting draw is consumed, like the scalar
                parts.append(np.asarray([nxt]))
                last = nxt
                count += 1
            cells.append(parts[0] if count == 1 else np.concatenate(parts))
            lengths[b, n] = count
    longest = int(lengths.max()) if cells else 0
    out = np.full((B, N, longest + 1), np.inf, dtype=np.float64)
    if cells:
        # Vectorized inf-padding scatter: one boolean mask assignment in
        # cell order instead of a per-cell Python slice loop.
        mask = np.arange(longest + 1) < lengths[:, :, None]
        out[mask] = np.concatenate(cells)
    return out


@dataclass
class _Rows:
    """The live (undecided) rows of one :func:`simulate_batch` call, task
    columns in name order.  Inactive slots hold ``+inf`` in ``abs_dl``
    (sorts last, never a deadline candidate) and ``area_m`` (never
    fits); ``next_rel`` is ``+inf`` once the next release would land
    at/after the horizon.  A row decided inside a pass is neutralized
    the same way, so the rest of the pass is a no-op for it and its
    outcome stays frozen until :func:`_compact` scatters it.
    """

    idx: "np.ndarray"  # (M,) row index in the caller's batch
    hz: "np.ndarray"  # (M,) horizon
    wcet: "np.ndarray"  # (M, N)
    period: "np.ndarray"  # (M, N)
    deadline: "np.ndarray"  # (M, N)
    area: "np.ndarray"  # (M, N)
    remaining: "np.ndarray"  # (M, N) work left of each task's live job
    rel: "np.ndarray"  # (M, N) release time of each task's live job
    abs_dl: "np.ndarray"  # (M, N) its absolute deadline
    area_m: "np.ndarray"  # (M, N) its area
    next_rel: "np.ndarray"  # (M, N) each task's next release
    now: "np.ndarray"  # (M,) per-row event clock
    slack_min: "np.ndarray"  # (M,) running minimum of the near-miss metric
    live: "np.ndarray"  # (M,) bool — not yet decided
    ok: "np.ndarray"  # (M,) bool — no miss so far
    exceeded: "np.ndarray"  # (M,) bool — ran out of event budget
    events: "np.ndarray"  # (M,) int64 — event step the row was decided at
    ptr: Optional["np.ndarray"] = None  # (M, N) sporadic: table column of next_rel
    area_i: Optional["np.ndarray"] = None  # (M, N) placement: integral areas
    pos: Optional["np.ndarray"] = None  # (M, N) placement: columns, -1 unplaced
    pin: Optional["np.ndarray"] = None  # (M, N) PINNED: recorded columns, -1 none

    def take(self, keep: "np.ndarray") -> None:
        """Keep only the rows ``keep`` selects, in every field."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                setattr(self, f.name, value[keep])


@dataclass(frozen=True)
class _Fixed:
    """What one call's phases read and never change."""

    capacity: float
    skip_blocked: bool
    eps: float
    perm: "np.ndarray"  # (N,) task column of each name-order slot
    table: Optional["np.ndarray"]  # the caller's (B, N, K) release times
    words: Optional["np.ndarray"]  # placement: the device's free-column bitmap
    width: int
    policy: PlacementPolicy


def _table_at(s: _Rows, fixed: _Fixed) -> "np.ndarray":
    """Sporadic: the release each slot's pointer names, read in place
    from the caller's table through the row's original index and the
    name permutation; a pointer past the last column reads ``+inf``."""
    last = fixed.table.shape[2] - 1
    times = fixed.table[s.idx[:, None], fixed.perm, np.minimum(s.ptr, last)]
    return np.where(s.ptr <= last, times, np.inf)


def _before_horizon(times: "np.ndarray", hz: "np.ndarray") -> "np.ndarray":
    """``times``, with every release at/after the row's horizon ``+inf``
    (the scalar loop's strict ``release < horizon`` filter)."""
    return np.where(times < hz[:, None], times, np.inf)


def _release(s: _Rows, fixed: _Fixed) -> None:
    """Phase 1: activate every job due at the rows' clocks — the scalar
    ``release_due(now)`` (periods/gaps > eps make its while-loop a single
    pass) — and load each released task's next release."""
    due = s.next_rel <= s.now[:, None] + fixed.eps
    if not np.any(due):
        return
    s.rel = np.where(due, s.next_rel, s.rel)
    s.remaining = np.where(due, s.wcet, s.remaining)
    s.abs_dl = np.where(due, s.next_rel + s.deadline, s.abs_dl)
    s.area_m = np.where(due, s.area, s.area_m)
    if fixed.table is None:
        nxt = s.next_rel + s.period
    else:
        s.ptr = s.ptr + due
        nxt = _table_at(s, fixed)
    s.next_rel = np.where(due, _before_horizon(nxt, s.hz), s.next_rel)


def _nf_running_greedy(area_s, capacity):
    """EDF-NF FREE-mode selection.

    The scalar rule verbatim: walk priority positions left to right,
    take a job iff the areas taken so far plus its own fit, skipping
    (not stopping at) blocked jobs.  One column-vector step per task
    slot, so every row's accumulation matches the scalar adds exactly.
    """
    M, N = area_s.shape
    run_s = np.empty((M, N), dtype=np.bool_)
    used = np.zeros((M,), dtype=np.float64)
    for j in range(N):
        a_j = area_s[:, j]
        take = used + a_j <= capacity
        used += np.where(take, a_j, 0.0)
        run_s[:, j] = take
    return run_s


def _select_placement(order, s: _Rows, fixed: _Fixed):
    """One placement-aware scheduling decision for every live row.

    Replicates the scalar ``select_running`` exactly: walk the jobs in
    EDF priority order; a PINNED job with a recorded pin may only resume
    on those exact columns; otherwise a job prefers its previous columns
    and falls back to the placement policy; EDF-FkF stops a row's scan
    at its first blocked job, EDF-NF skips it.  ``s.pos``/``s.pin`` are
    updated in place; returns the ``(M, N)`` running mask.
    """
    area_i, pos, pin = s.area_i, s.pos, s.pin
    width = fixed.width
    M, N = order.shape
    n_words = int(fixed.words.shape[0])
    words = np.tile(fixed.words, (M, 1))
    running = np.zeros((M, N), dtype=np.bool_)
    stopped = None if fixed.skip_blocked else np.zeros((M,), dtype=np.bool_)
    # Per row, active jobs sort ahead of inactive slots, so priority
    # position j holds an active job iff the row has > j active jobs.
    # Each step compresses to the rows that still have a candidate —
    # late priority positions involve few rows, and all per-step work
    # scales with that count.
    n_act = np.sum(np.isfinite(s.area_m), axis=1)
    for j in range(int(np.max(n_act)) if M else 0):
        act = n_act > j
        if stopped is not None:
            act = act & ~stopped
        ar = np.nonzero(act)[0]
        if ar.shape[0] == 0:
            break
        slot = order[ar, j]
        w = area_i[ar, slot]
        wsub = words[ar]
        placed_at = np.full((int(ar.shape[0]),), -1, dtype=np.int64)
        if pin is not None:
            p = pin[ar, slot]
            # A pinned job may only resume on its recorded columns — no
            # fallback; rows without a pin fall through to prev/choose.
            ok = span_free(wsub, p, w, width, n_words)
            placed_at[ok] = p[ok]
            rest = p < 0
            prev = np.where(rest, pos[ar, slot], -1)
        else:
            rest = None
            prev = pos[ar, slot]
        okp = span_free(wsub, prev, w, width, n_words)
        placed_at[okp] = prev[okp]
        need = placed_at < 0
        if rest is not None:
            need = need & rest
        nr = np.nonzero(need)[0]
        if nr.shape[0]:
            placed_at[nr] = choose_batch(wsub[nr], w[nr], width, fixed.policy)
        placed = placed_at >= 0
        pr = np.nonzero(placed)[0]
        if pr.shape[0]:
            rp, sp, st, wp = ar[pr], slot[pr], placed_at[pr], w[pr]
            clear_spans(words, rp, st, wp, n_words)
            running[rp, sp] = True
            pos[rp, sp] = st
            if pin is not None:
                fresh = np.nonzero(p[pr] < 0)[0]
                if fresh.shape[0]:
                    pin[rp[fresh], sp[fresh]] = st[fresh]
        if stopped is not None:
            stopped[ar[~placed]] = True
    return running


def _select(s: _Rows, fixed: _Fixed) -> "np.ndarray":
    """Phase 2: the EDF decision — each row's jobs in (deadline,
    release, name) order, then either the FREE-mode area accumulation
    or the placement-aware contiguous-hole walk, with the same adds and
    comparisons as the scalar path.  Returns the ``(M, N)`` running
    mask."""
    # Task columns are in name order, so a *stable* 2-key lexsort
    # reproduces the scalar queue's full (deadline, release, name)
    # tie-break.
    order = np.lexsort((s.rel, s.abs_dl), axis=-1)
    if fixed.words is not None:
        return _select_placement(order, s, fixed)
    area_s = np.take_along_axis(s.area_m, order, axis=1)
    if fixed.skip_blocked:  # EDF-NF: greedy, blocked jobs skipped
        run_s = _nf_running_greedy(area_s, fixed.capacity)
    else:  # EDF-FkF: prefix, first blocked job stops the scan.
        # Areas are positive, so the running sum over the active prefix
        # is strictly increasing and "cumsum <= capacity" is exactly the
        # largest-fitting-prefix rule (cumsum accumulates left-to-right
        # like the scalar loop).
        finite = np.isfinite(area_s)
        csum = np.cumsum(np.where(finite, area_s, 0.0), axis=1)
        run_s = (csum <= fixed.capacity) & finite
    running = np.empty_like(run_s)
    np.put_along_axis(running, order, run_s, axis=1)
    return running


def _advance(
    s: _Rows, running: "np.ndarray", step: int, fixed: _Fixed
) -> bool:
    """Phase 3: advance every row to its next event (a release, a
    completion or a deadline, capped at the horizon), retire completed
    jobs and decide the rows that missed or reached their horizon.
    Returns whether any row is still live."""
    eps = fixed.eps
    # One fused axis-min over the element-wise minimum of the three
    # candidate kinds — the same value as three separate mins.
    now_col = s.now[:, None]
    cand = np.minimum(s.next_rel, np.where(running, now_col + s.remaining, np.inf))
    cand = np.minimum(cand, np.where(s.abs_dl > now_col + eps, s.abs_dl, np.inf))
    t_next = np.minimum(np.min(cand, axis=1), s.hz)
    dt = t_next - s.now
    adv = (dt > 0)[:, None] & running
    s.remaining = np.where(adv, s.remaining - dt[:, None], s.remaining)
    s.now = t_next
    now_col = t_next[:, None]

    # Completions first (finishing exactly at the deadline succeeds).
    completed = running & (s.remaining <= eps)
    if np.any(completed):
        # Slack channel: deadline minus completion time, recorded before
        # the slot is cleared (the scalar per-completion slack).
        s.slack_min = np.minimum(
            s.slack_min,
            np.min(np.where(completed, s.abs_dl - now_col, np.inf), axis=1),
        )
        s.abs_dl = np.where(completed, np.inf, s.abs_dl)
        s.area_m = np.where(completed, np.inf, s.area_m)
        if s.pos is not None:
            # The scalar loop pops positions/pins on completion; the
            # task's successor job starts unplaced.
            s.pos[completed] = -1
            if s.pin is not None:
                s.pin[completed] = -1

    # Deadline misses decide the row (inactive slots have inf deadlines
    # and can never register here).
    miss = (s.abs_dl <= now_col + eps) & (s.remaining > eps)
    row_miss = np.any(miss, axis=1)
    done = row_miss | (s.now >= s.hz - eps)
    newly = done & s.live
    if not np.any(newly):
        return True
    if np.any(row_miss):
        # Tardiness-proximity: a missing job contributes -remaining (the
        # scalar DeadlineMiss.remaining, negated).  A missing row is
        # necessarily live, so this nests under the newly-dead branch.
        s.slack_min = np.minimum(
            s.slack_min, np.min(np.where(miss, -s.remaining, np.inf), axis=1)
        )
    # Freeze outcomes and neutralize the dying rows in place; scatter
    # and compaction wait for the end of the pass.
    s.ok = s.ok & ~row_miss
    s.events = np.where(newly, step, s.events)
    s.live = s.live & ~done
    newly_col = newly[:, None]
    s.next_rel = np.where(newly_col, np.inf, s.next_rel)
    s.abs_dl = np.where(newly_col, np.inf, s.abs_dl)
    s.area_m = np.where(newly_col, np.inf, s.area_m)
    return bool(np.any(s.live))


def _compact(s: _Rows, out: SimBatchResult) -> None:
    """Phase 4: scatter the frozen outcomes of every row decided this
    pass into ``out`` and compact them out of ``s``."""
    if s.live.all():
        return
    gone = ~s.live
    decided = s.idx[gone]
    out.schedulable[decided] = s.ok[gone]
    out.budget_exceeded[decided] = s.exceeded[gone]
    out.events[decided] = s.events[gone]
    out.min_slack[decided] = s.slack_min[gone]
    s.take(s.live)


def _check_release_times(table: "np.ndarray", deadline: "np.ndarray") -> None:
    """Reject a sporadic table the one-slot-per-task replay cannot
    represent, one ``(B, N)`` column at a time (no table-sized
    temporaries)."""
    if table.ndim != 3 or table.shape[:2] != deadline.shape or table.shape[2] < 1:
        raise ValueError(
            f"release_times must have shape (B, N, K), got {table.shape}"
        )
    cols = [table[:, :, k] for k in range(table.shape[2])]
    if any(np.any(col < 0) or np.any(np.isnan(col)) for col in cols):
        raise ValueError("release times must be >= 0")
    # Element-wise comparisons (not diff): inf padding minus inf padding
    # would warn, `inf < inf` is just False.
    if any(np.any(nxt < cur) for cur, nxt in zip(cols, cols[1:])):
        raise ValueError("release times must be ascending per task")
    # One-slot-per-task layout: job k+1 may only release once job k's
    # deadline has passed (gap >= D), else the replay would silently
    # clobber a live job that the scalar simulate_release_schedule still
    # tracks.  The sampler satisfies this by construction (gaps >= T >= D).
    if any(np.any(nxt < cur + deadline) for cur, nxt in zip(cols, cols[1:])):
        raise ValueError(
            "release times must be separated by at least each "
            "task's deadline (one live job per task)"
        )


def simulate_batch(
    batch: TaskSetBatch,
    capacity: Union[float, Fpga],
    scheduler: Union[str, Scheduler] = "EDF-NF",
    *,
    mode: MigrationMode = MigrationMode.FREE,
    placement_policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
    horizon=None,
    horizon_factor: int = 20,
    offsets=None,
    release_times=None,
    max_events: int = 1_000_000,
    eps: float = TIME_EPS,
) -> SimBatchResult:
    """Simulate every row of ``batch`` on one device geometry.

    Vectorized analogue of running the scalar
    ``simulate(batch.taskset(i), fpga, scheduler,
    default_horizon(·, horizon_factor), mode=mode,
    placement_policy=placement_policy)`` for each row — same verdicts,
    one event-synchronized sweep.  ``capacity`` is either a plain column
    count (no static regions) or an :class:`~repro.fpga.device.Fpga`,
    whose static regions pre-fragment the placement-aware free space
    exactly as in the scalar path.  ``horizon`` may be a scalar or a
    ``(B,)`` array; when ``None`` it defaults per row to
    :func:`default_horizon_batch` — which, with ``offsets``, extends
    each row's window by its largest offset (the horizon-extension rule:
    otherwise offset tasks would see fewer simulated jobs than the
    synchronous run).

    Release patterns:

    * periodic (default): jobs at ``O_i + k T_i`` where ``O_i`` comes
      from ``offsets`` — a scalar or ``(B, N)``-broadcast array of first
      release times, default 0 (the paper's synchronous pattern).
      Verdicts are bit-identical to the scalar
      ``simulate(..., offsets=...)``.
    * sporadic, exactly when ``release_times`` is given: a ``(B, N, K)``
      ascending array of explicit schedules (successive releases at
      least each task's deadline apart, so one job per task is live at
      a time; ``+inf`` padding optional), replayed in place.  Sampled
      schedules come from :func:`sample_release_times_batch`
      (bit-identical to the scalar
      :func:`repro.sim.sporadic.sample_release_schedule` /
      ``simulate_release_schedule`` pipeline on a shared generator).
      Sporadic schedules start at ``t = 0``, so ``offsets`` must be
      ``None``.

    Rows whose event loop would exceed ``max_events`` (where the scalar
    simulator raises ``SimulationError``) are recorded as not
    schedulable and flagged in ``budget_exceeded`` instead of aborting
    the batch; the budget counts *event steps*, never fused passes, so
    its semantics are independent of :data:`FUSE`.  An empty batch
    (``B == 0``) yields an empty result.

    The kernel is serial; :func:`repro.vector.grid.simulate_grid` splits
    rows across calls and processes.
    """
    skip_blocked = _resolve_skip_blocked(scheduler)
    sporadic = release_times is not None
    if sporadic and offsets is not None:
        raise ValueError(
            "offsets apply to periodic release only (sporadic "
            "schedules always start at t=0, like the scalar sampler)"
        )
    use_placement = mode is not MigrationMode.FREE
    # Pin the whole batch to float64 up front (exact upcast): the
    # horizon derivation and validation comparisons must not run in a
    # float32 input's precision.
    host_batch = TaskSetBatch(
        np.asarray(batch.wcet, dtype=np.float64),
        np.asarray(batch.period, dtype=np.float64),
        np.asarray(batch.deadline, dtype=np.float64),
        np.asarray(batch.area, dtype=np.float64),
    )
    B, N = host_batch.count, host_batch.n_tasks
    if N == 0:
        raise ValueError("simulate_batch requires at least one task per row")
    if isinstance(capacity, Fpga):
        device = capacity
        capacity = device.capacity
    elif use_placement:
        if capacity != int(capacity):
            raise ValueError(
                "placement-aware modes need an integral device width "
                f"(or an Fpga), got {capacity!r}"
            )
        device = Fpga(width=int(capacity))
    else:
        device = None
    if np.any(host_batch.period <= eps):
        raise ValueError("simulate_batch requires periods > eps")
    if np.any(host_batch.deadline > host_batch.period):
        raise ValueError(
            "simulate_batch requires constrained deadlines (D <= T); "
            "use the scalar simulator for unconstrained sets"
        )
    if np.any(host_batch.wcet <= eps) or np.any(host_batch.area <= 0):
        # wcet <= eps would let a zero-work job linger past its deadline
        # alongside a successor of the same task — a two-jobs-per-task
        # state the one-slot-per-task layout cannot represent.
        raise ValueError("simulate_batch requires wcet > eps and areas > 0")
    if use_placement and np.any(host_batch.area != np.floor(host_batch.area)):
        # Mirrors the scalar simulator's all_integral_area requirement.
        raise ValueError("placement-aware modes require integral task areas")

    if offsets is None:
        off = None
    else:
        off = np.broadcast_to(
            np.asarray(offsets, dtype=np.float64), (B, N)
        ).copy()
        if not np.all(np.isfinite(off)) or np.any(off < 0):
            raise ValueError("offsets must be finite and >= 0")

    if horizon is None:
        hz = default_horizon_batch(host_batch, factor=horizon_factor, offsets=off)
    else:
        hz = np.broadcast_to(
            np.asarray(horizon, dtype=np.float64), (B,)
        ).copy()
        if np.any(hz <= 0):
            raise ValueError("horizon must be > 0")
    if max_events < 1:
        raise ValueError("max_events must be >= 1")
    if sporadic:
        release_times = np.asarray(release_times, dtype=np.float64)
        _check_release_times(release_times, host_batch.deadline)

    out = SimBatchResult(
        schedulable=np.ones(B, dtype=bool),
        budget_exceeded=np.zeros(B, dtype=bool),
        events=np.zeros(B, dtype=np.int64),
        horizon=hz,
        min_slack=np.full(B, np.inf, dtype=np.float64),
    )
    if B == 0:
        return out

    # Task columns are permuted into lexicographic-name order once (the
    # sporadic rank follows the scalar pseudo-task names instead).
    perm = np.argsort(_name_ranks(N, sporadic=sporadic), kind="stable")
    wcet = host_batch.wcet[:, perm]
    # All slots start inactive; the pre-loop release phase (the scalar
    # release_due(0)) activates whatever is due at t=0 — everything under
    # synchronous release, nothing with a positive offset.
    s = _Rows(
        idx=np.arange(B),
        hz=hz,
        wcet=wcet,
        period=host_batch.period[:, perm],
        deadline=host_batch.deadline[:, perm],
        area=host_batch.area[:, perm],
        remaining=wcet.copy(),
        rel=np.zeros((B, N), dtype=np.float64),
        abs_dl=np.full((B, N), np.inf, dtype=np.float64),
        area_m=np.full((B, N), np.inf, dtype=np.float64),
        next_rel=np.zeros((B, N)) if off is None else off[:, perm],
        now=np.zeros((B,), dtype=np.float64),
        slack_min=np.full((B,), np.inf, dtype=np.float64),
        live=np.ones((B,), dtype=np.bool_),
        ok=np.ones((B,), dtype=np.bool_),
        exceeded=np.zeros((B,), dtype=np.bool_),
        events=np.zeros((B,), dtype=np.int64),
        ptr=np.zeros((B, N), dtype=np.int64) if sporadic else None,
    )
    if use_placement:
        s.area_i = s.area.astype(np.int64)
        s.pos = np.full((B, N), -1, dtype=np.int64)
        if mode is MigrationMode.PINNED:
            s.pin = np.full((B, N), -1, dtype=np.int64)
    fixed = _Fixed(
        capacity=capacity,
        skip_blocked=skip_blocked,
        eps=eps,
        perm=perm,
        table=release_times,
        words=(
            xp.spans_to_words(device.free_spans(), device.width)
            if use_placement
            else None
        ),
        width=device.width if use_placement else 0,
        policy=placement_policy,
    )
    if sporadic:
        s.next_rel = _table_at(s, fixed)
    s.next_rel = _before_horizon(s.next_rel, hz)
    _release(s, fixed)

    # Fused stepping: one kernel pass is up to FUSE event steps back to
    # back (select -> advance -> release), then one scatter and
    # compaction.  Rows decided inside a pass are neutralized in place
    # (see _Rows), which keeps this bit-identical to one step per pass.
    # Every live row steps one event per step, so the shared counter is
    # each row's event count.
    step = kernel_passes = 0
    while s.idx.shape[0]:
        kernel_passes += 1
        for _ in range(FUSE):
            step += 1
            if step > max_events:
                # The scalar simulator raises SimulationError here;
                # record every still-live row as not schedulable within
                # budget.  The budget counts event steps, so fusion never
                # changes which rows exceed it.
                s.ok = s.ok & ~s.live
                s.exceeded = s.exceeded | s.live
                s.events = np.where(s.live, step, s.events)
                s.live = np.zeros_like(s.live)
                break
            if not _advance(s, _select(s, fixed), step, fixed):
                break
            _release(s, fixed)
        _compact(s, out)
    return replace(
        out, kernel_passes=kernel_passes, event_steps=min(step, max_events)
    )
