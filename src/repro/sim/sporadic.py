"""Sporadic release patterns: jittered inter-arrival simulation.

The paper's task model is *sporadic* — ``T`` is a minimum inter-arrival
time, not a fixed period — but its simulation (and ours, by default)
releases strictly periodically.  The schedulability bounds claim
soundness over ALL legal sporadic patterns, so randomized inter-arrival
jitter gives both:

* a stronger executable soundness check (accepted tasksets must survive
  every sampled pattern — property-tested);
* a further refinement of the §6 simulation upper bound, alongside
  :mod:`repro.sim.offsets` (any failing pattern proves unschedulability).

Like the offset module, two searches share the soundness argument:
:func:`simulate_sporadic` samples per-gap jitter uniformly, and
:func:`adaptive_sporadic_search` importance-samples constant-per-task
gap factors with the cross-entropy machinery of :mod:`repro.search`
(scalar twin of :func:`repro.search.adaptive_sporadic_search_batch` —
same generator, same patterns, bit-identical verdicts/slacks).  Both
record a best-effort ``min_slack`` over every simulated pattern on the
returned result.
"""

from __future__ import annotations

from numbers import Real
from typing import Dict, List, Optional

import numpy as np

from repro.fpga.device import Fpga
from repro.model.task import TaskSet
from repro.sched.base import Scheduler
from repro.search.adaptive import adaptive_pattern_search
from repro.search.patterns import release_times_from_unit
from repro.search.proposal import SearchConfig
from repro.sim.simulator import SimulationResult, simulate


def sample_release_schedule(
    taskset: TaskSet,
    horizon: Real,
    rng: np.random.Generator,
    max_jitter_factor: float = 0.5,
) -> Dict[str, List[float]]:
    """One legal sporadic release schedule over ``[0, horizon)``.

    Each task's first release is 0 (the demanding case) and every
    subsequent gap is ``T_i * (1 + U(0, max_jitter_factor))`` — always at
    least the minimum inter-arrival, as the sporadic model requires.
    """
    if max_jitter_factor < 0:
        raise ValueError("max_jitter_factor must be >= 0")
    schedule: Dict[str, List[float]] = {}
    for t in taskset:
        releases = [0.0]
        while True:
            gap = float(t.period) * (1.0 + float(rng.uniform(0.0, max_jitter_factor)))
            nxt = releases[-1] + gap
            if nxt >= horizon:
                break
            releases.append(nxt)
        schedule[t.name] = releases
    return schedule


def simulate_release_schedule(
    taskset: TaskSet,
    fpga: Fpga,
    scheduler: Scheduler,
    horizon: Real,
    schedule: Dict[str, List[float]],
    **simulate_kwargs,
) -> SimulationResult:
    """Simulate an explicit release schedule.

    Implemented by splitting each task into one single-shot pseudo-task
    per release (period stretched past the horizon), which reuses the
    event-driven simulator unchanged — correctness over cleverness.
    """
    from repro.model.task import Task, TaskSet as TS

    unknown = set(schedule) - {t.name for t in taskset}
    if unknown:
        raise ValueError(f"schedule for unknown tasks: {sorted(unknown)}")
    pseudo = []
    offsets: Dict[str, float] = {}
    far = float(horizon) * 2 + 1
    for t in taskset:
        for j, release in enumerate(schedule.get(t.name, [])):
            if not 0 <= release < horizon:
                raise ValueError(f"release {release} outside [0, {horizon})")
            name = f"{t.name}@{j}"
            pseudo.append(
                Task(
                    wcet=t.wcet,
                    period=far,  # single job within the horizon
                    deadline=t.deadline,
                    area=t.area,
                    name=name,
                )
            )
            offsets[name] = float(release)
    if not pseudo:
        raise ValueError("empty release schedule")
    return simulate(
        TS(pseudo), fpga, scheduler, horizon, offsets=offsets, **simulate_kwargs
    )


def simulate_sporadic(
    taskset: TaskSet,
    fpga: Fpga,
    scheduler: Scheduler,
    horizon: Real,
    rng: np.random.Generator,
    samples: int = 10,
    max_jitter_factor: float = 0.5,
    include_periodic: bool = True,
    **simulate_kwargs,
) -> SimulationResult:
    """Simulate several sporadic patterns; return the first failure or the
    last success (mirrors :func:`repro.sim.offsets.simulate_with_offsets`,
    including the best-effort ``min_slack`` over every simulated pattern
    and the trivially-schedulable empty-taskset guard).

    All ``samples`` schedules are drawn before any is simulated, so an
    early failure leaves ``rng`` where a full search would: a stream
    shared across tasksets stays aligned with
    :func:`repro.search.uniform_sporadic_search_batch`."""
    if samples < 0:
        raise ValueError("samples must be >= 0")
    if len(taskset) == 0:
        # No tasks, no releases: one empty run certifies every pattern
        # (simulate_release_schedule would reject the empty schedule).
        return simulate(taskset, fpga, scheduler, horizon, **simulate_kwargs)
    schedules = [
        sample_release_schedule(taskset, horizon, rng, max_jitter_factor)
        for _ in range(samples)
    ]
    best_slack: Real = float("inf")
    result: Optional[SimulationResult] = None
    if include_periodic:
        result = simulate(taskset, fpga, scheduler, horizon, **simulate_kwargs)
        best_slack = result.min_slack
        if not result.schedulable:
            return result
    for schedule in schedules:
        result = simulate_release_schedule(
            taskset, fpga, scheduler, horizon, schedule, **simulate_kwargs
        )
        if result.min_slack < best_slack:
            best_slack = result.min_slack
        if not result.schedulable:
            break
    if result is None:
        raise ValueError("nothing to simulate: no patterns requested")
    result.min_slack = best_slack
    return result


def adaptive_sporadic_search(
    taskset: TaskSet,
    fpga: Fpga,
    scheduler: Scheduler,
    horizon: Real,
    rng: np.random.Generator,
    budget: int = 20,
    max_jitter_factor: float = 0.5,
    config: SearchConfig = SearchConfig(),
    include_periodic: bool = True,
    **simulate_kwargs,
) -> SimulationResult:
    """Importance-sampled sporadic search (scalar twin of the batched
    :func:`repro.search.adaptive_sporadic_search_batch`).

    Spends ``budget`` constant-per-task gap patterns
    (``g_i = T_i * (1 + u_i * max_jitter_factor) >= T_i`` — always a
    legal sporadic schedule) steered by the cross-entropy loop of
    :mod:`repro.search`; ``include_periodic`` checks the strictly
    periodic pattern first, outside the budget.  Returns the first
    failing run or the last passing one with the search-wide best-effort
    ``min_slack``; with the same ``rng`` as row ``b`` of the batched
    driver, patterns/verdicts/slacks are bit-identical.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if max_jitter_factor < 0:
        raise ValueError("max_jitter_factor must be >= 0")
    if len(taskset) == 0:
        return simulate(taskset, fpga, scheduler, horizon, **simulate_kwargs)
    best_slack: Real = float("inf")
    result: Optional[SimulationResult] = None
    if include_periodic:
        result = simulate(taskset, fpga, scheduler, horizon, **simulate_kwargs)
        best_slack = result.min_slack
        if not result.schedulable:
            return result
    if budget == 0 and result is None:
        raise ValueError("nothing to simulate: no patterns requested")

    names = [t.name for t in taskset]
    periods = np.array([float(t.period) for t in taskset], dtype=np.float64)
    hz = np.array([float(horizon)], dtype=np.float64)

    def score(live: np.ndarray, u: np.ndarray):
        nonlocal best_slack, result
        _, patterns, n = u.shape
        times = release_times_from_unit(
            np.broadcast_to(periods, (patterns, n)),
            u[0],
            np.broadcast_to(hz, (patterns,)),
            max_jitter_factor,
        )
        slack = np.empty((1, patterns), dtype=np.float64)
        ok = np.empty((1, patterns), dtype=bool)
        for p in range(patterns):
            schedule = {
                name: [float(r) for r in times[p, j] if np.isfinite(r)]
                for j, name in enumerate(names)
            }
            res = simulate_release_schedule(
                taskset, fpga, scheduler, horizon, schedule, **simulate_kwargs
            )
            slack[0, p] = res.min_slack
            ok[0, p] = res.schedulable
            if result is None or result.schedulable:
                result = res
            if res.min_slack < best_slack:
                best_slack = res.min_slack
        return slack, ok

    adaptive_pattern_search(1, len(taskset), score, [rng], budget, config)
    assert result is not None
    result.min_slack = best_slack
    return result
