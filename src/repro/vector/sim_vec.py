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
* **sporadic** — ``release="sporadic"`` draws one jittered schedule per
  row (gaps ``T_i * (1 + U(0, jitter))``, first release 0, matching
  :func:`repro.sim.sporadic.sample_release_schedule` draw for draw on a
  shared seed), or replays explicit ``release_times``.

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

State is struct-of-arrays over ``(B, N)`` — ``remaining``,
``next_release``, absolute deadlines, per-task positions/pins, a per-row
event clock — and each step advances every live row to its *own* next
event (rows are not synchronized to a global clock).  Decided rows are
compacted out, so the per-step cost tracks the number of still-undecided
sets.

Array backends: the state arrays live on the namespace resolved through
:mod:`repro.vector.xp` (``array_backend`` kwarg > process override >
``REPRO_ARRAY_BACKEND`` env var > numpy).  Validation, samplers and the
returned :class:`SimBatchResult` use plain numpy; inputs are converted
to the backend once per batch, pinned to float64 (float32 state would
silently change knife-edge verdicts), and results converted back once.

Bit-exactness discipline: the float operations (release accumulation,
``now + remaining`` completion times, ``remaining - dt`` advances, area
prefix sums) are performed in the same order and with the same operands
as the scalar reference, and all placement geometry is integer
arithmetic on the shared interval representation
(:mod:`repro.fpga.intervals`), so verdicts are bit-identical to
``simulate(batch.taskset(i), offsets=...)`` /
``simulate_release_schedule(...)`` on every backend — the same contract
:func:`repro.vector.batch.sequential_sum` gives the analytical tests.
The EDF tie-break replicates the scalar queue exactly, including the
*lexicographic* task-name ordering of ``batch.taskset`` names (``tau10``
sorts before ``tau2``) — and, in sporadic mode, the pseudo-task names
``tau{i}@{j}`` that the scalar
:func:`repro.sim.sporadic.simulate_release_schedule` encodes schedules
with (``tau10@...`` sorts before ``tau1@...`` because ``'0' < '@'``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.fpga.device import Fpga
from repro.fpga.intervals import spans_to_words
from repro.fpga.placement import PlacementPolicy
from repro.sched.base import Scheduler
from repro.sim.simulator import MigrationMode
from repro.util.mathutil import TIME_EPS
from repro.util.parallel import parallel_map
from repro.vector import xp
from repro.vector.batch import TaskSetBatch
from repro.vector.placement_vec import choose_batch, clear_spans, span_free
from repro.vector.xp import host as hnp

#: scheduler name -> skip_blocked (EDF-NF skips a job that does not fit,
#: EDF-FkF stops at the first one — see repro.sched.base.Scheduler).
_SKIP_BLOCKED = {"EDF-NF": True, "EDF-FkF": False}

#: environment variable consulted when ``sim_workers`` is not given
#: explicitly (kwarg > CLI flag, which passes the kwarg > env > 1).
SIM_WORKERS_ENV = "REPRO_SIM_WORKERS"


def resolve_sim_workers(sim_workers: Optional[int] = None) -> int:
    """Resolve the batch-sharding worker count.

    Precedence: explicit argument (the CLI's ``--sim-workers`` arrives
    here as a kwarg) > the ``REPRO_SIM_WORKERS`` environment variable >
    serial (1).  Raises on non-integer or < 1 values from either source.
    """
    if sim_workers is None:
        raw = os.environ.get(SIM_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            sim_workers = int(raw)
        except ValueError:
            raise ValueError(
                f"{SIM_WORKERS_ENV} must be an integer, got {raw!r}"
            )
    workers = int(sim_workers)
    if workers < 1:
        raise ValueError(f"sim_workers must be >= 1, got {sim_workers!r}")
    return workers


@dataclass(frozen=True)
class SimBatchResult:
    """Per-row outcome of one :func:`simulate_batch` run.

    ``schedulable`` is ``True`` iff the row saw no deadline miss before
    its horizon *and* stayed within the event budget; rows that ran out
    of budget are additionally flagged in ``budget_exceeded`` (the
    scalar simulator raises ``SimulationError`` there — the batch runner
    records the row as not-schedulable-within-budget and keeps going).
    All fields are host numpy arrays whichever array backend ran the
    simulation.  ``mode``/``policy`` record the migration model the
    batch ran under (``policy`` is ``None`` in FREE mode, where
    placement is moot); ``release`` records the release pattern
    (``"periodic"`` covers both synchronous and offset runs,
    ``"sporadic"`` the jittered schedules).

    ``min_slack`` is the row's near-miss metric: the minimum over every
    decided job of ``deadline - completion_time`` (completions) and
    ``-remaining`` (deadline misses), i.e. how close the row came to a
    miss — ``+inf`` when no job was decided, negative iff the row
    missed.  It is the scoring channel of the adaptive release-pattern
    search (:mod:`repro.search`) and matches the scalar
    :attr:`repro.sim.simulator.SimulationResult.min_slack` bit-exactly
    (same operands, same order) on both backends.

    ``kernel_passes``/``event_steps`` instrument the fused stepper:
    ``event_steps`` counts inner event-loop iterations actually executed
    and ``kernel_passes`` the outer passes (liveness readback, scatter
    and compaction points).  Unfused (``fuse=1``) the two are equal; at
    ``fuse=K`` the ratio approaches ``K`` — the measured, not assumed,
    fusion factor.  Sharded runs sum the counters over their shards.
    """

    schedulable: "hnp.ndarray"  # (B,) bool
    budget_exceeded: "hnp.ndarray"  # (B,) bool
    events: "hnp.ndarray"  # (B,) int64 — event-loop iterations per row
    horizon: "hnp.ndarray"  # (B,) float64
    min_slack: "hnp.ndarray"  # (B,) float64 — see below
    mode: MigrationMode = MigrationMode.FREE
    policy: Optional[PlacementPolicy] = None
    release: str = "periodic"
    kernel_passes: int = 0
    event_steps: int = 0

    @property
    def count(self) -> int:
        return int(self.schedulable.shape[0])

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of rows with no deadline miss (nan for empty batches)."""
        if self.count == 0:
            return float("nan")
        return float(self.schedulable.mean())

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


def _name_ranks(n_tasks: int, sporadic: bool = False) -> "hnp.ndarray":
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
    ranks = hnp.empty(n_tasks, dtype=hnp.int64)
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
    offset search claims to refine.  Runs in the batch arrays' own
    namespace (host batches yield host horizons).
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    ns = xp.namespace_of(batch.deadline)
    if batch.n_tasks == 0:
        # Mirror of the scalar empty-taskset guard in
        # :func:`repro.sim.offsets.simulate_with_offsets`: an empty row
        # releases no jobs, so any window (trivially 0) verifies it —
        # the max() reductions below would raise on the empty task axis.
        return ns.zeros((batch.count,), dtype=ns.float64)
    deadline = ns.asarray(batch.deadline, dtype=ns.float64)  # pin: float32
    period = ns.asarray(batch.period, dtype=ns.float64)  # inputs upcast exactly
    base = ns.max(deadline, axis=1) + factor * ns.max(period, axis=1)
    if offsets is None:
        return base
    off = ns.broadcast_to(
        ns.asarray(offsets, dtype=ns.float64), (batch.count, batch.n_tasks)
    )
    return base + ns.max(off, axis=1)


def sample_offsets_batch(batch: TaskSetBatch, rng) -> "hnp.ndarray":
    """One random offset assignment per row: uniform in ``[0, T_i)``.

    Draw-for-draw identical to calling
    :func:`repro.sim.offsets.sample_offsets` on each ``batch.taskset(i)``
    in row order with the same generator (one C-order ``uniform`` fill
    consumes the stream exactly like the scalar per-task draws).
    Deliberately host-side: the numpy generator pins the draw order to
    the scalar reference whichever array backend simulates the result.
    """
    # repro-lint: disable=RL003 -- documented host-side seeded sampler; draw order pinned to the scalar reference (ROADMAP "Array backends")
    return rng.uniform(0.0, xp.asnumpy(batch.period))


def sample_release_times_batch(
    batch: TaskSetBatch,
    horizon,
    rng,
    max_jitter_factor: float = 0.5,
) -> "hnp.ndarray":
    """One legal sporadic release schedule per row, as a padded array.

    Returns ``(B, N, K+1)`` release times — ascending, first release 0,
    every gap ``T_i * (1 + U(0, max_jitter_factor))``, all ``< horizon``
    — right-padded with ``+inf`` (at least one sentinel column, so a
    pointer one past a task's last release always reads ``inf``); the
    padding is pinned float64 so no backend re-derives the dtype from
    promotion rules.

    The draw discipline is row-major, task-order, one gap at a time
    *including the final overshooting draw*, so the sampled values are
    bit-identical to calling
    :func:`repro.sim.sporadic.sample_release_schedule` on each
    ``batch.taskset(i)`` in row order with the same shared generator.
    (Sampling stays on the host for exactly that scalar parity — only
    the simulation itself is backend-vectorized.)

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
    period_h = xp.asnumpy(batch.period)
    hz = hnp.broadcast_to(
        hnp.asarray(xp.asnumpy(horizon), dtype=hnp.float64), (batch.count,)
    )
    if hnp.any(hz <= 0):
        raise ValueError("horizon must be > 0")
    B, N = batch.count, batch.n_tasks
    # Certification safety margin: block releases are bounded by
    # k * T * (1 + jitter) up to float rounding; the relative shave is
    # orders of magnitude above any accumulated cumsum error.
    _MARGIN = 1.0 - 1e-9
    gap_max = 1.0 + max_jitter_factor
    cells: list = []  # per-(b, n) release arrays, cell order
    lengths = hnp.zeros((B, N), dtype=hnp.int64)
    for b in range(B):
        horizon_b = float(hz[b])
        for n in range(N):
            period = float(period_h[b, n])
            parts = [hnp.zeros(1)]  # first release at t = 0
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
                block = hnp.cumsum(hnp.concatenate([hnp.asarray([last]), gaps]))[1:]
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
                parts.append(hnp.asarray([nxt]))
                last = nxt
                count += 1
            cells.append(parts[0] if count == 1 else hnp.concatenate(parts))
            lengths[b, n] = count
    longest = int(lengths.max()) if cells else 0
    out = hnp.full((B, N, longest + 1), hnp.inf, dtype=hnp.float64)
    if cells:
        # Vectorized inf-padding scatter: one boolean mask assignment in
        # cell order instead of a per-cell Python slice loop.
        mask = hnp.arange(longest + 1) < lengths[:, :, None]
        out[mask] = hnp.concatenate(cells)
    return out


def _nf_running_greedy(ns, area_s, capacity):
    """EDF-NF FREE-mode selection.

    The scalar rule verbatim: walk priority positions left to right,
    take a job iff the areas taken so far plus its own fit, skipping
    (not stopping at) blocked jobs.  One column-vector step per task
    slot, so every row's accumulation matches the scalar adds exactly.
    """
    M, N = area_s.shape
    run_s = ns.empty((M, N), dtype=ns.bool_)
    used = ns.zeros((M,), dtype=ns.float64)
    for j in range(N):
        a_j = area_s[:, j]
        take = used + a_j <= capacity
        used += ns.where(take, a_j, 0.0)
        run_s[:, j] = take
    return run_s


def _select_placement(
    ns,
    order,
    area_m,
    area_i,
    pos,
    pin,
    device_words,
    device_width: int,
    policy: PlacementPolicy,
    skip_blocked: bool,
):
    """One placement-aware scheduling decision for every live row.

    Replicates the scalar ``select_running`` exactly: walk the jobs in
    EDF priority order; a PINNED job with a recorded pin may only resume
    on those exact columns; otherwise a job prefers its previous columns
    and falls back to the placement policy; EDF-FkF stops a row's scan
    at its first blocked job, EDF-NF skips it.  ``pos``/``pin`` are
    updated in place; returns the ``(M, N)`` running mask.
    """
    M, N = order.shape
    n_words = int(device_words.shape[0])
    words = ns.tile(device_words, (M, 1))
    running = ns.zeros((M, N), dtype=ns.bool_)
    stopped = ns.zeros((M,), dtype=ns.bool_) if not skip_blocked else None
    # Per row, active jobs sort ahead of inactive slots, so priority
    # position j holds an active job iff the row has > j active jobs.
    # Each step compresses to the rows that still have a candidate —
    # late priority positions involve few rows, and all per-step work
    # scales with that count.
    n_act = ns.sum(ns.isfinite(area_m), axis=1)
    for j in range(int(ns.max(n_act)) if M else 0):
        act = n_act > j
        if stopped is not None:
            act = act & ~stopped
        ar = ns.nonzero(act)[0]
        if ar.shape[0] == 0:
            break
        slot = order[ar, j]
        w = area_i[ar, slot]
        wsub = words[ar]
        placed_at = ns.full((int(ar.shape[0]),), -1, dtype=ns.int64)
        if pin is not None:
            p = pin[ar, slot]
            # A pinned job may only resume on its recorded columns — no
            # fallback; rows without a pin fall through to prev/choose.
            ok = span_free(wsub, p, w, device_width, n_words, ns=ns)
            placed_at[ok] = p[ok]
            rest = p < 0
            prev = ns.where(rest, pos[ar, slot], -1)
        else:
            rest = None
            prev = pos[ar, slot]
        okp = span_free(wsub, prev, w, device_width, n_words, ns=ns)
        placed_at[okp] = prev[okp]
        need = placed_at < 0
        if rest is not None:
            need = need & rest
        nr = ns.nonzero(need)[0]
        if nr.shape[0]:
            placed_at[nr] = choose_batch(
                wsub[nr], w[nr], device_width, policy, ns=ns
            )
        placed = placed_at >= 0
        pr = ns.nonzero(placed)[0]
        if pr.shape[0]:
            rp, sp, st, wp = ar[pr], slot[pr], placed_at[pr], w[pr]
            clear_spans(words, rp, st, wp, n_words, ns=ns)
            running[rp, sp] = True
            pos[rp, sp] = st
            if pin is not None:
                fresh = ns.nonzero(p[pr] < 0)[0]
                if fresh.shape[0]:
                    pin[rp[fresh], sp[fresh]] = st[fresh]
        if stopped is not None:
            stopped[ar[~placed]] = True
    return running


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
    release: str = "periodic",
    jitter: float = 0.5,
    rng=None,
    release_times=None,
    max_events: int = 1_000_000,
    eps: float = TIME_EPS,
    array_backend: Optional[str] = None,
    fuse: int = 8,
    sim_workers: Optional[int] = None,
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

    ``array_backend`` selects the :mod:`repro.vector.xp` namespace the
    state arrays live on (``None`` follows the process override /
    ``REPRO_ARRAY_BACKEND`` / numpy precedence).  Inputs are validated
    in numpy, converted once to the backend pinned to float64, and the
    verdicts come back as numpy arrays.

    Release patterns:

    * ``release="periodic"`` (default): jobs at ``O_i + k T_i`` where
      ``O_i`` comes from ``offsets`` — a scalar or ``(B, N)``-broadcast
      array of first release times, default 0 (the paper's synchronous
      pattern).  Verdicts are bit-identical to the scalar
      ``simulate(..., offsets=...)``.
    * ``release="sporadic"``: one jittered schedule per row.  Pass a
      seeded ``rng`` to draw gaps ``T_i * (1 + U(0, jitter))`` via
      :func:`sample_release_times_batch` (bit-identical to the scalar
      :func:`repro.sim.sporadic.sample_release_schedule` /
      ``simulate_release_schedule`` pipeline on a shared generator), or
      pass precomputed ``release_times`` (a ``(B, N, K)`` ascending,
      ``+inf``-padded array; successive releases at least each task's
      deadline apart, so one job per task is live at a time) to replay
      explicit schedules.

    Rows whose event loop would exceed ``max_events`` (where the scalar
    simulator raises ``SimulationError``) are recorded as not
    schedulable and flagged in ``budget_exceeded`` instead of aborting
    the batch; the budget counts *event steps*, never fused passes, so
    its semantics are independent of ``fuse``.  An empty batch
    (``B == 0``) yields an empty result.

    Fused stepping and sharding (perf knobs — all bit-neutral):

    * ``fuse`` advances every live row up to that many events per
      kernel pass; decided rows are neutralized in place (infinite
      next-release/deadline/area makes every further step a no-op for
      them) and the liveness readback, verdict scatter and row
      compaction happen once per pass instead of once per event.
      ``fuse=1`` degenerates to the classic one-event-per-pass loop.
      Verdicts, ``events`` and ``min_slack`` are bit-identical for
      every ``fuse`` on every backend.
    * ``sim_workers`` shards the batch dimension into contiguous
      sub-batches simulated by a process pool
      (:func:`repro.util.parallel.parallel_map`).  Resolution follows
      kwarg > ``REPRO_SIM_WORKERS`` > 1 (:func:`resolve_sim_workers`);
      the CLI's ``--sim-workers`` arrives as the kwarg.  Rows are
      independent, and all seeded sampling/validation/horizon
      derivation happens on the full batch *before* the split, so
      sharded results are bit-identical to the serial path whatever the
      worker count.
    """
    ns = xp.get_backend(array_backend)
    skip_blocked = _resolve_skip_blocked(scheduler)
    if not isinstance(fuse, int) or fuse < 1:
        raise ValueError(f"fuse must be an integer >= 1, got {fuse!r}")
    workers = resolve_sim_workers(sim_workers)
    if release not in ("periodic", "sporadic"):
        raise ValueError(f"unknown release pattern {release!r}")
    sporadic = release == "sporadic"
    if sporadic:
        if offsets is not None:
            raise ValueError(
                "offsets apply to periodic release only (sporadic "
                "schedules always start at t=0, like the scalar sampler)"
            )
        if (rng is None) == (release_times is None):
            raise ValueError(
                "sporadic release needs exactly one of rng (to sample "
                "schedules) or release_times (to replay them)"
            )
    elif rng is not None or release_times is not None:
        raise ValueError("rng/release_times apply to sporadic release only")
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    use_placement = mode is not MigrationMode.FREE
    hb = batch.to_host()
    # Pin the whole host view to float64 up front (exact upcast): the
    # horizon derivation, validation comparisons and sporadic sampler
    # must not run in a float32 input's precision on any backend.
    host_batch = TaskSetBatch(
        hnp.asarray(hb.wcet, dtype=hnp.float64),
        hnp.asarray(hb.period, dtype=hnp.float64),
        hnp.asarray(hb.deadline, dtype=hnp.float64),
        hnp.asarray(hb.area, dtype=hnp.float64),
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
    if hnp.any(host_batch.period <= eps):
        raise ValueError("simulate_batch requires periods > eps")
    if hnp.any(host_batch.deadline > host_batch.period):
        raise ValueError(
            "simulate_batch requires constrained deadlines (D <= T); "
            "use the scalar simulator for unconstrained sets"
        )
    if hnp.any(host_batch.wcet <= eps) or hnp.any(host_batch.area <= 0):
        # wcet <= eps would let a zero-work job linger past its deadline
        # alongside a successor of the same task — a two-jobs-per-task
        # state the one-slot-per-task layout cannot represent.
        raise ValueError("simulate_batch requires wcet > eps and areas > 0")
    if use_placement and hnp.any(host_batch.area != hnp.floor(host_batch.area)):
        # Mirrors the scalar simulator's all_integral_area requirement.
        raise ValueError("placement-aware modes require integral task areas")

    if offsets is None:
        off = None
    else:
        off = hnp.broadcast_to(
            hnp.asarray(xp.asnumpy(offsets), dtype=hnp.float64), (B, N)
        ).copy()
        if not hnp.all(hnp.isfinite(off)) or hnp.any(off < 0):
            raise ValueError("offsets must be finite and >= 0")

    if horizon is None:
        hz = default_horizon_batch(host_batch, factor=horizon_factor, offsets=off)
    else:
        hz = hnp.broadcast_to(
            hnp.asarray(xp.asnumpy(horizon), dtype=hnp.float64), (B,)
        ).copy()
        if hnp.any(hz <= 0):
            raise ValueError("horizon must be > 0")
    if max_events < 1:
        raise ValueError("max_events must be >= 1")

    if sporadic:
        if release_times is None:
            release_times = sample_release_times_batch(host_batch, hz, rng, jitter)
        else:
            release_times = hnp.asarray(
                xp.asnumpy(release_times), dtype=hnp.float64
            )
            if (
                release_times.ndim != 3
                or release_times.shape[:2] != (B, N)
                or release_times.shape[2] < 1
            ):
                raise ValueError(
                    f"release_times must have shape (B, N, K), got "
                    f"{release_times.shape}"
                )
            if hnp.any(release_times < 0) or hnp.any(hnp.isnan(release_times)):
                raise ValueError("release times must be >= 0")
            # Element-wise comparisons (not diff): inf padding minus inf
            # padding would warn, `inf < inf` is just False.
            if hnp.any(release_times[:, :, 1:] < release_times[:, :, :-1]):
                raise ValueError("release times must be ascending per task")
            # One-slot-per-task layout: job k+1 may only release once job
            # k's deadline has passed (gap >= D), else the replay would
            # silently clobber a live job that the scalar
            # simulate_release_schedule still tracks.  The internal
            # sampler satisfies this by construction (gaps >= T >= D).
            if hnp.any(
                release_times[:, :, 1:]
                < release_times[:, :, :-1] + host_batch.deadline[:, :, None]
            ):
                raise ValueError(
                    "release times must be separated by at least each "
                    "task's deadline (one live job per task)"
                )
            # Releases at/after the horizon never fire (the scalar loop's
            # strict `release < horizon` filter); one trailing inf column
            # keeps the advanced pointer a valid index.
            release_times = hnp.concatenate(
                [
                    hnp.where(
                        release_times < hz[:, None, None],
                        release_times,
                        hnp.inf,
                    ),
                    hnp.full((B, N, 1), hnp.inf, dtype=hnp.float64),
                ],
                axis=2,
            )

    result_policy = placement_policy if use_placement else None

    # -- final per-row outcome (host; scattered into as rows decide) ----------
    out_ok = hnp.ones(B, dtype=bool)
    out_exceeded = hnp.zeros(B, dtype=bool)
    out_events = hnp.zeros(B, dtype=hnp.int64)
    out_slack = hnp.full(B, hnp.inf, dtype=hnp.float64)

    if B == 0:
        return SimBatchResult(
            schedulable=out_ok,
            budget_exceeded=out_exceeded,
            events=out_events,
            horizon=hnp.zeros(0, dtype=hnp.float64),
            min_slack=out_slack,
            mode=mode,
            policy=result_policy,
            release=release,
        )

    # -- multi-core sharding over the batch dimension --------------------------
    # Everything seeded or shape-derived (validation, horizon derivation,
    # offset broadcast, sporadic sampling on the shared generator) has
    # already run on the *full* batch above, and rows never interact — so
    # contiguous row slices simulated independently concatenate to the
    # exact serial result, worker count notwithstanding.
    n_shards = min(workers, B)
    if n_shards > 1:
        bounds = [(B * s) // n_shards for s in range(n_shards + 1)]
        shard_kwargs = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            kw = dict(
                batch=host_batch.rows(slice(lo, hi)),
                capacity=device if device is not None else capacity,
                scheduler="EDF-NF" if skip_blocked else "EDF-FkF",
                mode=mode,
                placement_policy=placement_policy,
                horizon=hz[lo:hi],
                horizon_factor=horizon_factor,
                release=release,
                jitter=jitter,
                max_events=max_events,
                eps=eps,
                array_backend=ns.name,
                fuse=fuse,
                sim_workers=1,
            )
            if off is not None:
                kw["offsets"] = off[lo:hi]
            if sporadic:
                kw["release_times"] = release_times[lo:hi]
            shard_kwargs.append(kw)
        shards = parallel_map(
            _simulate_shard,
            shard_kwargs,
            workers=n_shards,
            item_cost=max(1, B // n_shards),
        )
        return SimBatchResult(
            schedulable=hnp.concatenate([r.schedulable for r in shards]),
            budget_exceeded=hnp.concatenate(
                [r.budget_exceeded for r in shards]
            ),
            events=hnp.concatenate([r.events for r in shards]),
            horizon=hnp.concatenate([r.horizon for r in shards]),
            min_slack=hnp.concatenate([r.min_slack for r in shards]),
            mode=mode,
            policy=result_policy,
            release=release,
            kernel_passes=sum(r.kernel_passes for r in shards),
            event_steps=sum(r.event_steps for r in shards),
        )

    hz_out = hz.copy()  # compaction rebinds hz; keep the full-batch view

    # -- working set: live (undecided) rows only ------------------------------
    # Task columns are permuted into lexicographic-name order once, so a
    # *stable* 2-key lexsort (release, deadline) reproduces the scalar
    # queue's full (deadline, release, name) tie-break for free.  The
    # sporadic rank follows the scalar pseudo-task names instead.
    # Everything below this point lives on the selected array backend
    # (float64-pinned); `idx` and the out_* arrays stay numpy so the
    # per-decision scatters index plain arrays.
    perm = hnp.argsort(_name_ranks(N, sporadic=sporadic), kind="stable")
    idx = hnp.arange(B)

    def ns_f64(a: "hnp.ndarray"):
        return ns.asarray(hnp.asarray(a[:, perm], dtype=hnp.float64))

    wcet = ns_f64(host_batch.wcet)
    period = ns_f64(host_batch.period)
    deadline = ns_f64(host_batch.deadline)
    area = ns_f64(host_batch.area)
    hz = ns.asarray(hz)

    INF = float("inf")
    # Inactivity is encoded as +inf: an inactive slot has abs_dl == inf
    # (sorts behind every active job, never a deadline candidate) and
    # area_m == inf (never fits, never accumulates).  All slots start
    # inactive; the pre-loop release pass below (the scalar
    # release_due(0)) activates whatever is due at t=0 — everything
    # under synchronous release, nothing with a positive offset.
    remaining = ns.copy(wcet)
    rel = ns.zeros((B, N), dtype=ns.float64)
    abs_dl = ns.full((B, N), INF, dtype=ns.float64)
    area_m = ns.full((B, N), INF, dtype=ns.float64)
    # next_rel slots are +inf once the next release would land at/after
    # the horizon (the scalar loop just keeps filtering them out).
    if sporadic:
        release_times = ns.asarray(release_times[:, perm, :])
        rel_ptr = ns.zeros((B, N), dtype=ns.int64)
        next_rel = ns.copy(release_times[:, :, 0])
        next_rel[next_rel >= hz[:, None]] = INF
    else:
        rel_ptr = None
        first = (
            ns.zeros((B, N), dtype=ns.float64)
            if off is None
            else ns.asarray(off[:, perm])
        )
        next_rel = ns.where(first < hz[:, None], first, INF)
    now = ns.zeros((B,), dtype=ns.float64)
    # Per-row running minimum of the near-miss metric: deadline minus
    # completion time on completions, -remaining on misses.
    slack_min = ns.full((B,), INF, dtype=ns.float64)
    # Every live row steps one event per loop iteration, so a single
    # scalar counter tracks each row's event count.
    iteration = 0
    # -- fused-stepping state: rows decide *inside* a kernel pass and are
    #    only scattered/compacted at its end, so each row's outcome is
    #    frozen on the backend the moment it dies.  A dead row is
    #    neutralized in place (infinite next release/deadline/area): it
    #    selects nothing, releases nothing, misses nothing, and its
    #    slack_min stops moving — every further step is a no-op for it.
    live = ns.ones((B,), dtype=ns.bool_)
    row_ok = ns.ones((B,), dtype=ns.bool_)
    row_exc = ns.zeros((B,), dtype=ns.bool_)
    row_events = ns.zeros((B,), dtype=ns.int64)
    kernel_passes = 0
    event_steps = 0

    # -- placement-aware state (per task slot; one live job per task) ---------
    if use_placement:
        device_words = ns.bitmap_from_host(
            spans_to_words(device.free_spans(), device.width)
        )
        area_i = ns.astype(area, ns.int64)
        pos = ns.full((B, N), -1, dtype=ns.int64)
        pin = (
            ns.full((B, N), -1, dtype=ns.int64)
            if mode is MigrationMode.PINNED
            else None
        )
    else:
        area_i = pos = pin = None

    rows = ns.arange(B)[:, None]

    def compact(keep, keep_host: "hnp.ndarray") -> None:
        nonlocal idx, wcet, period, deadline, area, hz, rows
        nonlocal remaining, rel, abs_dl, area_m, next_rel, now, area_i, pos, pin
        nonlocal release_times, rel_ptr, slack_min
        nonlocal live, row_ok, row_exc, row_events
        idx = idx[keep_host]
        slack_min = slack_min[keep]
        live, row_ok, row_exc, row_events = (
            live[keep], row_ok[keep], row_exc[keep], row_events[keep],
        )
        wcet, period, deadline, area = (
            wcet[keep], period[keep], deadline[keep], area[keep],
        )
        hz = hz[keep]
        remaining, rel, abs_dl, area_m, next_rel = (
            remaining[keep], rel[keep], abs_dl[keep], area_m[keep],
            next_rel[keep],
        )
        now = now[keep]
        if sporadic:
            release_times, rel_ptr = release_times[keep], rel_ptr[keep]
        if use_placement:
            area_i, pos = area_i[keep], pos[keep]
            if pin is not None:
                pin = pin[keep]
        rows = rows[: idx.shape[0]]

    def release_due() -> None:
        """Activate every job due at the rows' current clocks — the
        scalar ``release_due(now)`` (periods/gaps > eps make its
        while-loop a single pass)."""
        nonlocal rel, remaining, abs_dl, area_m, next_rel, rel_ptr
        due = next_rel <= now[:, None] + eps
        if not ns.any(due):
            return
        rel = ns.where(due, next_rel, rel)
        remaining = ns.where(due, wcet, remaining)
        abs_dl = ns.where(due, next_rel + deadline, abs_dl)
        area_m = ns.where(due, area, area_m)
        if sporadic:
            rel_ptr = rel_ptr + due
            nxt = ns.take_along_axis(
                release_times, rel_ptr[:, :, None], axis=2
            )[:, :, 0]
            next_rel = ns.where(due, nxt, next_rel)
        else:
            nxt = next_rel + period
            next_rel = ns.where(
                due, ns.where(nxt < hz[:, None], nxt, INF), next_rel
            )

    release_due()  # the scalar pre-loop release_due(0)

    # Fused stepping: the outer loop is one *kernel pass* — up to `fuse`
    # event steps computed back to back on the backend, then exactly one
    # liveness readback, verdict scatter and row compaction.
    # Bit-identity with the classic per-event loop holds because a dead
    # row's neutralized state makes every subsequent in-pass step a no-op
    # for it: it selects no jobs (infinite areas), schedules no candidate
    # events (infinite release/deadline), cannot re-miss, and never
    # touches slack_min again.  The any() early-outs below just skip
    # those no-op updates.
    while idx.shape[0]:
        kernel_passes += 1
        M = idx.shape[0]
        for _ in range(fuse):
            iteration += 1
            if iteration > max_events:
                # The scalar simulator raises SimulationError here;
                # record every still-live row as
                # not-schedulable-within-budget.  The budget counts
                # event steps — `iteration` is shared by all live rows —
                # so fusion never changes which rows exceed it.
                row_ok = row_ok & ~live
                row_exc = row_exc | live
                row_events = ns.where(live, iteration, row_events)
                live = ns.zeros((M,), dtype=ns.bool_)
                break
            event_steps += 1

            # -- EDF selection: per-row (deadline, release) stable argsort,
            #    then either the FREE-mode area accumulation or the
            #    placement-aware contiguous-hole walk — same adds and
            #    comparisons as the scalar path.
            order = ns.lexsort((rel, abs_dl), axis=-1)
            if use_placement:
                running = _select_placement(
                    ns, order, area_m, area_i, pos, pin,
                    device_words, device.width, placement_policy,
                    skip_blocked,
                )
            else:
                area_s = area_m[rows, order]
                if skip_blocked:  # EDF-NF: greedy, blocked jobs skipped
                    run_s = _nf_running_greedy(ns, area_s, capacity)
                else:  # EDF-FkF: prefix, first blocked job stops the scan.
                    # Areas are positive, so the running sum over the
                    # active prefix is strictly increasing and "cumsum <=
                    # capacity" is exactly the largest-fitting-prefix rule
                    # (cumsum accumulates left-to-right like the scalar
                    # loop).
                    finite = ns.isfinite(area_s)
                    csum = ns.cumsum(ns.where(finite, area_s, 0.0), axis=1)
                    run_s = (csum <= capacity) & finite
                running = ns.zeros((M, N), dtype=ns.bool_)
                running[rows, order] = run_s

            # -- next event per row: release, completion, or deadline expiry
            #    (one fused axis-min over the element-wise minimum of the
            #    three candidate kinds — same value as three separate mins).
            now_col = now[:, None]
            now_eps = now_col + eps
            cand = ns.minimum(
                next_rel, ns.where(running, now_col + remaining, INF)
            )
            cand = ns.minimum(cand, ns.where(abs_dl > now_eps, abs_dl, INF))
            t_next = ns.minimum(ns.min(cand, axis=1), hz)

            # -- advance the running jobs to t_next.
            dt = t_next - now
            adv = (dt > 0)[:, None] & running
            remaining = ns.where(adv, remaining - dt[:, None], remaining)
            now = t_next
            now_col = now[:, None]
            now_eps = now_col + eps

            # -- completions first (finishing exactly at the deadline
            #    succeeds).
            completed = running & (remaining <= eps)
            if ns.any(completed):
                # Slack channel: deadline minus completion time, recorded
                # before the slot is cleared (same subtraction as the
                # scalar simulator's per-completion slack).
                slack_min = ns.minimum(
                    slack_min,
                    ns.min(
                        ns.where(completed, abs_dl - now_col, INF), axis=1
                    ),
                )
                abs_dl = ns.where(completed, INF, abs_dl)
                area_m = ns.where(completed, INF, area_m)
                if use_placement:
                    # The scalar loop pops positions/pins on completion;
                    # the successor job of the task starts unplaced.
                    pos[completed] = -1
                    if pin is not None:
                        pin[completed] = -1

            # -- deadline misses decide the row (inactive slots have inf
            #    deadlines and can never register here).
            miss = (abs_dl <= now_eps) & (remaining > eps)
            row_miss = ns.any(miss, axis=1)
            done = row_miss | (now >= hz - eps)
            newly = done & live
            if ns.any(newly):
                if ns.any(row_miss):
                    # Tardiness-proximity: a missing job contributes
                    # -remaining (the scalar DeadlineMiss.remaining,
                    # negated).  A missing row is necessarily live, so
                    # this nests under the newly-dead branch.
                    slack_min = ns.minimum(
                        slack_min,
                        ns.min(ns.where(miss, -remaining, INF), axis=1),
                    )
                # Freeze outcomes and neutralize the dying rows in place;
                # scatter and compaction wait for the end of the pass.
                row_ok = row_ok & ~row_miss
                row_events = ns.where(newly, iteration, row_events)
                live = live & ~done
                newly_col = newly[:, None]
                next_rel = ns.where(newly_col, INF, next_rel)
                abs_dl = ns.where(newly_col, INF, abs_dl)
                area_m = ns.where(newly_col, INF, area_m)
                if not ns.any(live):
                    break

            # -- releases due at the new `now` (one job per task slot).
            release_due()

        # -- end of pass: read liveness back, scatter the
        #    frozen verdicts of every row that died this pass, compact.
        live_h = ns.asnumpy(live)
        if not live_h.all():
            gone = ~live_h
            decided = idx[gone]
            out_ok[decided] = ns.asnumpy(row_ok)[gone]
            out_exceeded[decided] = ns.asnumpy(row_exc)[gone]
            out_events[decided] = ns.asnumpy(row_events)[gone]
            out_slack[decided] = ns.asnumpy(slack_min)[gone]
            compact(live, live_h)

    return SimBatchResult(
        schedulable=out_ok,
        budget_exceeded=out_exceeded,
        events=out_events,
        horizon=hz_out,
        min_slack=out_slack,
        mode=mode,
        policy=result_policy,
        release=release,
        kernel_passes=kernel_passes,
        event_steps=event_steps,
    )


def _simulate_shard(kwargs: dict) -> SimBatchResult:
    """Top-level (picklable) worker for the ``sim_workers`` shard pool."""
    return simulate_batch(**kwargs)
