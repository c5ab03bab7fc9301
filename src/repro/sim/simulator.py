"""Event-driven simulation of hardware-task scheduling on a 1D FPGA.

The simulator reproduces the paper's §6 simulation methodology (all tasks
released synchronously, acceptance = no deadline miss within a horizon)
and extends it with the §7 future-work knobs:

* **Migration modes** — :class:`MigrationMode`:

  - ``FREE``: the paper's assumption — zero-cost unrestricted migration,
    a job fits iff total free area suffices (implicit defragmentation);
  - ``RELOCATABLE``: a job needs a *contiguous* hole at every dispatch and
    may move between preemptions (fragmentation bites, migrations counted);
  - ``PINNED``: a job is fixed to its first placement and can only resume
    when those exact columns are free (no migration at all).

* **Reconfiguration overhead** — every not-running -> running transition
  pays :meth:`~repro.fpga.reconfig.ReconfigurationModel.load_time` before
  useful work proceeds (conservative full-reload model).

Scheduling decisions happen at job releases, completions and deadline
expiries; between events the running set is constant, so simulating event
to event is exact (no time quantization).  All arithmetic is plain Python,
so exact ``Fraction`` time works end-to-end for the property tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Real
from typing import Dict, List, Mapping, Optional, Set

from repro.fpga.device import Fpga
from repro.fpga.freelist import FreeList
from repro.fpga.placement import PlacementPolicy
from repro.fpga.reconfig import ZERO_RECONFIG, ReconfigurationModel
from repro.model.job import Job
from repro.model.task import TaskSet
from repro.sched.base import Scheduler
from repro.sim.metrics import SimMetrics
from repro.sim.trace import Trace, TraceSegment
from repro.util.mathutil import TIME_EPS


class MigrationMode(enum.Enum):
    """How freely jobs may (re)place themselves on the fabric."""

    FREE = "free"
    RELOCATABLE = "relocatable"
    PINNED = "pinned"


class SimulationError(RuntimeError):
    """Raised when the event loop exceeds its safety bound."""


@dataclass(frozen=True)
class DeadlineMiss:
    """A job that was incomplete at its absolute deadline."""

    task: str
    job_index: int
    deadline: Real
    remaining: Real


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    ``min_slack`` is the run's near-miss metric: the minimum over every
    decided job of ``deadline - completion_time`` (completions) and
    ``-remaining`` (misses) — ``+inf`` when no job was decided, negative
    iff a deadline was missed.  The release-pattern searches
    (:mod:`repro.sim.offsets`, :mod:`repro.sim.sporadic`,
    :mod:`repro.search`) use it to rank how close a surviving pattern
    came to a miss; on float inputs it matches the batched simulator's
    :attr:`repro.vector.sim_vec.SimBatchResult.min_slack` bit-exactly.
    """

    schedulable: bool
    misses: List[DeadlineMiss]
    metrics: SimMetrics
    trace: Optional[Trace] = None
    min_slack: Real = float("inf")

    def __bool__(self) -> bool:
        return self.schedulable


def default_horizon(
    taskset: TaskSet,
    factor: int = 20,
    offsets: Optional[Mapping[str, Real]] = None,
) -> Real:
    """The default simulation horizon: ``max D + factor * max T [+ max O]``.

    Real-valued periods have no hyperperiod (README, "Design notes" §4.9), so the
    paper-style simulation runs a fixed multiple of the longest period.

    When release ``offsets`` are given, the window is extended by the
    largest one: a task first released at ``O_i`` only sees
    ``floor((H - O_i) / T_i)`` jobs before ``H``, so an unextended
    window would simulate *fewer* jobs per task than the synchronous run
    and silently weaken the upper bound an offset search claims to
    refine (see :mod:`repro.sim.offsets`).
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    base = taskset.max_deadline + factor * taskset.max_period
    if not offsets:
        return base
    if any(o < 0 for o in offsets.values()):
        raise ValueError("offsets must be >= 0")
    return base + max(offsets.values())


def _job_id(job: Job) -> str:
    return f"{job.task.name}#{job.index}"


def simulate(
    taskset: TaskSet,
    fpga: Fpga,
    scheduler: Scheduler,
    horizon: Real,
    *,
    offsets: Optional[Mapping[str, Real]] = None,
    mode: MigrationMode = MigrationMode.FREE,
    placement_policy: PlacementPolicy = PlacementPolicy.FIRST_FIT,
    reconfig: ReconfigurationModel = ZERO_RECONFIG,
    stop_at_first_miss: bool = True,
    record_trace: bool = False,
    max_events: int = 1_000_000,
    eps: float = TIME_EPS,
) -> SimulationResult:
    """Simulate ``taskset`` on ``fpga`` under ``scheduler`` over ``[0, horizon)``.

    Tasks release periodically starting at their offset (default 0 — the
    paper's synchronous pattern).  Returns a :class:`SimulationResult`;
    ``schedulable`` means no deadline miss occurred before the horizon (a
    *necessary* condition for true schedulability, per §6).
    """
    if horizon <= 0:
        raise ValueError("horizon must be > 0")
    capacity = fpga.capacity
    use_placement = mode is not MigrationMode.FREE
    if use_placement and not taskset.all_integral_area:
        raise ValueError("placement-aware modes require integral task areas")

    offsets = dict(offsets or {})
    unknown = set(offsets) - {t.name for t in taskset}
    if unknown:
        raise ValueError(f"offsets for unknown tasks: {sorted(unknown)}")

    next_release: Dict[str, Real] = {
        t.name: offsets.get(t.name, 0) for t in taskset
    }
    job_counter: Dict[str, int] = {t.name: 0 for t in taskset}
    tasks_by_name = {t.name: t for t in taskset}

    active: List[Job] = []
    missed: Set[str] = set()
    prev_running_ids: Set[str] = set()
    positions: Dict[str, int] = {}
    pinned: Dict[str, int] = {}
    setup: Dict[str, Real] = {}

    metrics = SimMetrics()
    trace = Trace(capacity) if record_trace else None
    misses: List[DeadlineMiss] = []
    min_slack: Real = float("inf")

    def release_due(now: Real) -> None:
        for name, task in tasks_by_name.items():
            while next_release[name] <= now + eps and next_release[name] < horizon:
                job = Job(task=task, release=next_release[name], index=job_counter[name])
                active.append(job)
                job_counter[name] += 1
                metrics.jobs_released += 1
                next_release[name] = next_release[name] + task.period

    def select_running(now: Real) -> List[Job]:
        metrics.decision_points += 1
        if not use_placement:
            return scheduler.select(active, capacity)
        freelist = FreeList(fpga)
        running: List[Job] = []
        for job in scheduler.order(active):
            jid = _job_id(job)
            width = int(job.area)
            placed_at: Optional[int] = None
            if mode is MigrationMode.PINNED and jid in pinned:
                if freelist.is_free(pinned[jid], width):
                    freelist.allocate_at(jid, pinned[jid], width)
                    placed_at = pinned[jid]
            else:
                prev = positions.get(jid)
                if prev is not None and freelist.is_free(prev, width):
                    freelist.allocate_at(jid, prev, width)
                    placed_at = prev
                else:
                    alloc = freelist.allocate(jid, width, placement_policy)
                    if alloc is not None:
                        placed_at = alloc.start
                        if prev is not None and prev != alloc.start:
                            metrics.migrations += 1
            if placed_at is not None:
                running.append(job)
                positions[jid] = placed_at
                job.position = placed_at
                if mode is MigrationMode.PINNED:
                    pinned.setdefault(jid, placed_at)
            elif not scheduler.skip_blocked:
                break
        return running

    now: Real = 0
    release_due(now)
    events = 0
    charge_reconfig = not reconfig.is_zero

    while True:
        events += 1
        if events > max_events:
            raise SimulationError(
                f"exceeded {max_events} events at t={now}; "
                "suspiciously dense schedule or a bug"
            )

        running = select_running(now)
        running_ids = {_job_id(j) for j in running}

        # Preemption accounting + reconfiguration charging.
        for jid in prev_running_ids - running_ids:
            metrics.preemptions += 1
        if charge_reconfig:
            for job in running:
                jid = _job_id(job)
                if jid not in prev_running_ids:
                    setup[jid] = reconfig.load_time(job.area)

        # Next event time: release, completion, or deadline expiry.
        t_next: Real = horizon
        pending = [r for r in next_release.values() if r < horizon]
        if pending:
            nr = min(pending)
            if nr < t_next:
                t_next = nr
        for job in running:
            completion = now + setup.get(_job_id(job), 0) + job.remaining
            if completion < t_next:
                t_next = completion
        for job in active:
            jid = _job_id(job)
            if jid in missed:
                continue
            d = job.absolute_deadline
            if now + eps < d < t_next:
                t_next = d

        dt = t_next - now
        if dt > 0:
            for job in running:
                jid = _job_id(job)
                work = dt
                if charge_reconfig and setup.get(jid, 0) > 0:
                    s = setup[jid]
                    if work <= s:
                        setup[jid] = s - work
                        work = 0
                    else:
                        setup[jid] = 0
                        work = work - s
                if work > 0:
                    job.remaining = job.remaining - work
            occupied = sum(int(j.area) for j in running)
            metrics.busy_area_time = metrics.busy_area_time + occupied * dt
            if trace is not None:
                waiting = tuple(
                    (_job_id(j), int(j.area)) for j in active if _job_id(j) not in running_ids
                )
                trace.append(
                    TraceSegment(
                        start=now,
                        end=t_next,
                        running=tuple((_job_id(j), int(j.area)) for j in running),
                        waiting=waiting,
                    )
                )
        now = t_next

        # Completions (before miss checks: finishing exactly at the
        # deadline is a success).
        done: List[Job] = [
            j
            for j in running
            if j.remaining <= eps and setup.get(_job_id(j), 0) <= eps
        ]
        for job in done:
            jid = _job_id(job)
            slack = job.absolute_deadline - now
            if slack < min_slack:
                min_slack = slack
            active.remove(job)
            running_ids.discard(jid)
            metrics.jobs_completed += 1
            metrics.record_response(job.task.name, now - job.release)
            positions.pop(jid, None)
            pinned.pop(jid, None)
            setup.pop(jid, None)

        # Deadline misses.
        for job in active:
            jid = _job_id(job)
            if jid in missed:
                continue
            if job.absolute_deadline <= now + eps and job.remaining > eps:
                missed.add(jid)
                slack = -job.remaining
                if slack < min_slack:
                    min_slack = slack
                metrics.deadline_misses += 1
                misses.append(
                    DeadlineMiss(
                        task=job.task.name,
                        job_index=job.index,
                        deadline=job.absolute_deadline,
                        remaining=job.remaining,
                    )
                )
        if misses and stop_at_first_miss:
            break
        if now >= horizon - eps:
            break
        release_due(now)
        prev_running_ids = running_ids & {_job_id(j) for j in active}

    metrics.simulated_time = now
    return SimulationResult(
        schedulable=not misses,
        misses=misses,
        metrics=metrics,
        trace=trace,
        min_slack=min_slack,
    )
