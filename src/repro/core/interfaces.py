"""Common result types and the schedulability-test protocol.

Every analysis in :mod:`repro.core` (and the baselines in :mod:`repro.mp`)
returns a :class:`TestResult`: the overall verdict plus a per-task record
of the bound comparison that decided it, so experiments and debugging can
see *why* a taskset was rejected, mirroring the worked examples in the
paper's §6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from numbers import Real
from typing import Mapping, Protocol, Sequence, Tuple, runtime_checkable

from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet


class SchedulerKind(enum.Enum):
    """Which global EDF variant a test's guarantee applies to (paper §1).

    EDF-NF dominates EDF-FkF (a set schedulable by FkF is schedulable by
    NF), so a guarantee for EDF-FkF transfers to EDF-NF but not vice
    versa: GN1 certifies only EDF-NF, while DP and GN2 certify both.
    """

    EDF_FKF = "EDF-FkF"
    EDF_NF = "EDF-NF"


@dataclass(frozen=True)
class PerTaskVerdict:
    """Outcome of one task's bound check inside a test.

    ``lhs``/``rhs`` are the two sides of the decisive comparison (their
    meaning is test-specific and described by ``detail``).
    """

    task: str
    passed: bool
    lhs: Real | None = None
    rhs: Real | None = None
    detail: str = ""


@dataclass(frozen=True)
class TestResult:
    """Overall verdict of a schedulability test on one taskset."""

    test_name: str
    accepted: bool
    #: Scheduler variants the acceptance guarantee covers.
    schedulers: frozenset[SchedulerKind] = frozenset(SchedulerKind)
    per_task: Tuple[PerTaskVerdict, ...] = ()
    #: Free-form reason, set when rejection happened before per-task checks
    #: (e.g. a necessary condition failed).
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted

    @property
    def failing_tasks(self) -> Tuple[str, ...]:
        return tuple(v.task for v in self.per_task if not v.passed)

    def covers(self, scheduler: SchedulerKind) -> bool:
        """True when this result's guarantee applies to ``scheduler``."""
        return scheduler in self.schedulers


@runtime_checkable
class SchedulabilityTest(Protocol):
    """A callable sufficient schedulability test for FPGA EDF scheduling."""

    name: str
    schedulers: frozenset[SchedulerKind]

    def __call__(self, taskset: TaskSet, fpga: Fpga) -> TestResult: ...


@runtime_checkable
class IncrementalAnalyzer(Protocol):
    """A stateful analyzer tracking one test over a churning taskset.

    Implementations (see :mod:`repro.incremental`) cache the test's
    expensive aggregates and update them in ``O(changed task · N)`` per
    churn operation, while :meth:`result` stays **bit-identical** to
    running ``test(TaskSet(tasks), fpga)`` from scratch on the current
    resident tasks (the churn-parity suite asserts this at every step).
    """

    test: SchedulabilityTest

    def refresh(self, tasks: Sequence[Task]) -> None:
        """Synchronize caches with the current resident task list."""
        ...

    def result(self) -> TestResult:
        """The test's verdict on the current resident taskset."""
        ...

    def verdict(self) -> bool:
        """``result().accepted``, allowed to stop at the first failing task."""
        ...


def empty_taskset_result(test_name: str, schedulers: frozenset[SchedulerKind]) -> TestResult:
    """The defined verdict for an *empty* resident set: vacuous acceptance.

    :class:`~repro.model.task.TaskSet` itself rejects empty sets (the
    scalar tests are never called on one), but an admission state drained
    by departures legitimately holds zero tasks — an empty device
    trivially meets every deadline, so incremental analyzers answer with
    this constant instead of erroring.
    """
    return TestResult(
        test_name=test_name,
        accepted=True,
        schedulers=schedulers,
        reason="empty taskset: vacuously schedulable",
    )


def necessary_conditions(taskset: TaskSet, fpga: Fpga) -> TestResult:
    """Cheap *necessary* feasibility conditions (not from the paper's
    theorems, but implied by the model in §2):

    * every task fits on the device: ``A_k <= capacity``;
    * every task can meet its own deadline: ``C_k <= D_k``;
    * no task needs more than a full device timeline: ``C_k <= T_k``
      (otherwise backlog grows without bound);
    * long-run demand fits: ``US(Gamma) <= capacity``.

    A taskset failing any of these is unschedulable by *any* scheduler, so
    all tests short-circuit to rejection on them.
    """
    violations: list[PerTaskVerdict] = []
    cap = fpga.capacity
    for t in taskset:
        if t.area > cap:
            violations.append(
                PerTaskVerdict(t.name, False, t.area, cap, "area exceeds device capacity")
            )
        if t.wcet > t.deadline:
            violations.append(
                PerTaskVerdict(t.name, False, t.wcet, t.deadline, "C > D: infeasible alone")
            )
        if t.wcet > t.period:
            violations.append(
                PerTaskVerdict(t.name, False, t.wcet, t.period, "C > T: unbounded backlog")
            )
    us = taskset.system_utilization
    if us > cap:
        violations.append(
            PerTaskVerdict("*", False, us, cap, "system utilization exceeds capacity")
        )
    return TestResult(
        test_name="necessary",
        accepted=not violations,
        per_task=tuple(violations),
        reason="" if not violations else "necessary feasibility conditions violated",
    )
