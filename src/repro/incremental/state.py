"""Stateful admission analysis for one (taskset, device) pair.

:class:`AdmissionState` owns the resident task list and one
:class:`~repro.core.interfaces.IncrementalAnalyzer` per paper test.  Churn
operations (:meth:`~AdmissionState.add`, :meth:`~AdmissionState.remove`,
:meth:`~AdmissionState.update`) are O(1) bookkeeping; analyzer caches sync
lazily when a verdict is requested, each paying ``O(changed · N)`` pair
recomputation instead of a from-scratch ``O(N²)``/``O(N³)`` pass.

Verdicts are bit-identical to the scalar tests on the equivalent
:class:`~repro.model.task.TaskSet` — including the portfolio, whose
:meth:`~AdmissionState.portfolio_result` replicates
:class:`~repro.core.composite.CompositeTest`'s member short-circuit and
result construction exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.dp import DpTest, dp_test
from repro.core.gn1 import Gn1Test, gn1_test
from repro.core.gn2 import Gn2Test, gn2_test
from repro.core.interfaces import SchedulerKind, TestResult
from repro.fpga.device import Fpga
from repro.incremental.analyzers import DpAnalyzer, Gn1Analyzer, Gn2Analyzer
from repro.model.task import Task, TaskSet


@dataclass(frozen=True)
class Delta:
    """One churn operation against an :class:`AdmissionState`.

    The unit :meth:`AdmissionState.apply` takes; build instances with
    the class-method constructors.
    """

    kind: str  # "add" | "remove" | "update"
    name: str
    task: Optional[Task] = None

    @classmethod
    def add(cls, task: Task) -> "Delta":
        return cls("add", task.name, task)

    @classmethod
    def remove(cls, name: str) -> "Delta":
        return cls("remove", name)

    @classmethod
    def update(cls, name: str, task: Task) -> "Delta":
        return cls("update", name, task)


class AdmissionState:
    """Resident taskset + incremental DP/GN1/GN2 analyzers for one device.

    Task names are the churn identity and must stay unique (the same
    invariant :class:`~repro.model.task.TaskSet` validates).  Relative
    task order is admission order: ``add`` appends, ``remove`` closes the
    gap, ``update`` replaces in place — so the equivalent scalar
    ``TaskSet`` is always well-defined and verdict parity is exact.
    """

    def __init__(
        self,
        fpga: Fpga,
        tasks: Iterable[Task] = (),
        *,
        dp: DpTest = dp_test,
        gn1: Gn1Test = gn1_test,
        gn2: Gn2Test = gn2_test,
    ) -> None:
        self.fpga = fpga
        self._tasks: List[Task] = []
        self._index: Dict[str, int] = {}
        self._version = 0
        self._taskset: Optional[TaskSet] = None
        self.analyzers = {
            "DP": DpAnalyzer(dp, fpga),
            "GN1": Gn1Analyzer(gn1, fpga),
            "GN2": Gn2Analyzer(gn2, fpga),
        }
        for t in tasks:
            self.add(t)

    # -- resident-set introspection ------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter bumped by every effective churn operation (a
        rolled-back :meth:`admit` or any :meth:`trial` is none)."""
        return self._version

    @property
    def tasks(self) -> Tuple[Task, ...]:
        return tuple(self._tasks)

    @property
    def taskset(self) -> Optional[TaskSet]:
        """The equivalent scalar :class:`TaskSet` (``None`` when empty —
        ``TaskSet`` itself rejects empty sets)."""
        if self._taskset is None and self._tasks:
            self._taskset = TaskSet(self._tasks)
        return self._taskset

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, name: str) -> Task:
        return self._tasks[self._index[name]]

    # -- churn operations ------------------------------------------------------

    def _bump(self) -> None:
        self._version += 1
        self._taskset = None

    def add(self, task: Task) -> None:
        """Admit ``task`` (appended; its name must be free)."""
        if task.name in self._index:
            raise KeyError(f"task name already resident: {task.name!r}")
        self._index[task.name] = len(self._tasks)
        self._tasks.append(task)
        self._bump()

    def remove(self, name: str) -> Task:
        """Retire the task called ``name`` and return it."""
        idx = self._index.pop(name)
        task = self._tasks.pop(idx)
        for later in self._tasks[idx:]:
            self._index[later.name] -= 1
        self._bump()
        return task

    def update(self, name: str, task: Task) -> Task:
        """Replace the task called ``name`` in place; returns the old task.

        The replacement may be renamed as long as the new name is free.
        """
        idx = self._index[name]
        if task.name != name:
            if task.name in self._index:
                raise KeyError(f"task name already resident: {task.name!r}")
            del self._index[name]
            self._index[task.name] = idx
        old = self._tasks[idx]
        self._tasks[idx] = task
        self._bump()
        return old

    def apply(self, delta: Delta) -> None:
        """Apply one :class:`Delta`."""
        if delta.kind == "add":
            assert delta.task is not None
            self.add(delta.task)
        elif delta.kind == "remove":
            self.remove(delta.name)
        elif delta.kind == "update":
            assert delta.task is not None
            self.update(delta.name, delta.task)
        else:
            raise ValueError(f"unknown delta kind: {delta.kind!r}")

    # -- verdicts --------------------------------------------------------------

    def result(self, test: str) -> TestResult:
        """Verdict of one member test (``"DP"``, ``"GN1"`` or ``"GN2"``),
        bit-identical to ``member(TaskSet(tasks), fpga)``."""
        analyzer = self.analyzers[test]
        analyzer.refresh(self._tasks)
        return analyzer.result(self.taskset)

    def results(self) -> Dict[str, TestResult]:
        """All three member verdicts."""
        return {name: self.result(name) for name in self.analyzers}

    def accepts(self, test: str) -> bool:
        """Whether one member test accepts, ``== result(test).accepted``.

        Verdict-only: a rejecting member stops at its first failing task
        and builds no per-task verdicts (:meth:`result` still can, later).
        """
        analyzer = self.analyzers[test]
        analyzer.refresh(self._tasks)
        return analyzer.verdict(self.taskset)

    def portfolio_result(
        self, scheduler: SchedulerKind = SchedulerKind.EDF_NF
    ) -> TestResult:
        """The §6 portfolio verdict, bit-identical to
        ``paper_portfolio(scheduler)(TaskSet(tasks), fpga)``.

        Members run in DP → GN1 → GN2 order with the composite's
        short-circuit, so a DP acceptance never pays GN1/GN2 cache sync.
        Each member is asked only for its verdict (:meth:`accepts`): a
        rejecting member stops at its first failing task, since the
        portfolio's rejection carries no per-task verdicts.  Only the
        accepting member's full result is used, and its walk already
        cached it.  On the empty resident set every member vacuously
        accepts, so the portfolio accepts via its first applicable member.
        """
        portfolio_name = f"portfolio[{scheduler.value}]"  # CompositeTest naming
        rejected: List[str] = []
        for name in ("DP", "GN1", "GN2"):
            analyzer = self.analyzers[name]
            if scheduler not in analyzer.test.schedulers:
                continue
            if self.accepts(name):
                res = analyzer.result(self.taskset)
                return TestResult(
                    test_name=f"{portfolio_name}({res.test_name})",
                    accepted=True,
                    schedulers=frozenset({scheduler}),
                    per_task=res.per_task,
                    reason=f"accepted by member {res.test_name}",
                )
            rejected.append(analyzer.test.name)
        rejected_by = ", ".join(rejected) or "(no applicable member)"
        return TestResult(
            test_name=portfolio_name,
            accepted=False,
            schedulers=frozenset({scheduler}),
            reason=f"rejected by all members: {rejected_by}",
        )

    def portfolio_accepts(self, scheduler: SchedulerKind = SchedulerKind.EDF_NF) -> bool:
        return self.portfolio_result(scheduler).accepted

    # -- admission control -----------------------------------------------------

    def admit(
        self, task: Task, scheduler: SchedulerKind = SchedulerKind.EDF_NF
    ) -> bool:
        """Trial-admit ``task``: keep it if the portfolio still accepts,
        roll it back (and return ``False``) otherwise.  A check that
        raises rolls the task back too before the exception propagates."""
        return self._check(task, scheduler, keep=True).accepted

    def trial(
        self, task: Task, scheduler: SchedulerKind = SchedulerKind.EDF_NF
    ) -> TestResult:
        """The :meth:`portfolio_result` of the residents plus ``task``,
        without admitting it."""
        return self._check(task, scheduler, keep=False)

    def _check(self, task: Task, scheduler: SchedulerKind, *, keep: bool) -> TestResult:
        """Add ``task`` and check the portfolio; keep the task only when
        ``keep`` and the portfolio accepts.  A rolled-back task leaves the
        state as it was, :attr:`version` included, also when the check
        raises."""
        version = self._version
        self.add(task)
        kept = False
        try:
            result = self.portfolio_result(scheduler)
            kept = keep and result.accepted
        finally:
            if not kept:
                self.remove(task.name)
                self._version = version
        return result
