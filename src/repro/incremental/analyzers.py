"""Per-test incremental analyzers (the cache layer under ``AdmissionState``).

Design rules that make the verdicts **bit-identical** to the scalar tests
(not merely numerically close — full :class:`~repro.core.interfaces.TestResult`
dataclass equality, float or exact):

* Caches hold only *per-name values* produced by the same shared helpers
  the scalar tests call (:meth:`~repro.core.gn1.Gn1Test.pair_term`,
  :func:`~repro.core.workload.gn2_beta`,
  :meth:`~repro.core.dp.DpTest.task_verdict`, ...), never partial sums.
* Sums are *replayed at query time* in the current task order — the same
  left-to-right ``lhs += term`` accumulation the scalar tests perform —
  so float rounding sequences match exactly and cache application order
  is irrelevant.
* Synchronization is by diff: each analyzer remembers the exact
  :class:`~repro.model.task.Task` objects its caches reflect and, on
  :meth:`refresh`, drops/recomputes only the changed names
  (``O(changed · N)`` pair terms); when more than about half the resident
  set changed it rebuilds outright, which is what the scalar test costs
  anyway.

Analyzers are lazy: churn operations on the state cost nothing here until
a verdict is actually requested, so a portfolio's DP short-circuit never
pays GN1/GN2 cache maintenance.  Two queries share one per-task walk
(``_compute``): :meth:`~_AnalyzerBase.result` builds the full
:class:`~repro.core.interfaces.TestResult`, while
:meth:`~_AnalyzerBase.verdict` answers only accept/reject and stops at the
first task that fails its inequality (one failure settles a rejection).
Both answers are memoized until the next effective :meth:`refresh`; a walk
that reaches the last task caches the full result as well, so an
accepting member never walks twice.
"""

from __future__ import annotations

from bisect import bisect_left
from numbers import Real
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.dp import DpTest
from repro.core.gn1 import GN1_DETAIL, Gn1Test
from repro.core.gn2 import Gn2Test, LambdaWitness, witness_detail
from repro.core.interfaces import (
    PerTaskVerdict,
    TestResult,
    empty_taskset_result,
    necessary_conditions,
)
from repro.core.workload import gn2_beta, lambda_candidate_values
from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet

#: β-cache key: the λ value *and* its concrete type.  Equal-valued float
#: and Fraction candidates (``0.5`` vs ``Fraction(1, 2)``) hash equal but
#: produce different downstream arithmetic; keying by type keeps a cached
#: exact β from ever answering for a float candidate (or vice versa).
_LamKey = Tuple[str, Real]


def _lam_key(lam: Real) -> _LamKey:
    return (type(lam).__name__, lam)


class _AnalyzerBase:
    """Shared sync-by-diff skeleton; subclasses implement the cache ops."""

    def __init__(self, test: Any, fpga: Fpga) -> None:
        self.test = test
        self.fpga = fpga
        self._tasks: List[Task] = []
        self._applied: Dict[str, Task] = {}
        self._result: Optional[TestResult] = None
        self._verdict: Optional[bool] = None

    # -- subclass cache hooks ------------------------------------------------

    def _drop(self, name: str) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _add(self, task: Task, tasks: Sequence[Task]) -> None:  # pragma: no cover
        raise NotImplementedError

    def _rebuild(self, tasks: Sequence[Task]) -> None:
        """Default rebuild: clear and re-add (subclasses may override)."""
        self._clear()
        for t in tasks:
            self._add(t, tasks)

    def _clear(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _compute(
        self, tasks: Sequence[Task], stop_early: bool
    ) -> Optional[TestResult]:  # pragma: no cover
        """The per-task walk.  With ``stop_early`` it returns ``None`` at
        the first failing task instead of finishing the result."""
        raise NotImplementedError

    # -- IncrementalAnalyzer protocol ----------------------------------------

    def refresh(self, tasks: Sequence[Task]) -> None:
        """Synchronize caches with ``tasks`` (the current resident list).

        Identity-diffs against the tasks the caches were built from; churn
        that cancels out between verdicts (add then remove of the same
        task object set) costs nothing.
        """
        current = {t.name: t for t in tasks}
        changed = [n for n, t in current.items() if self._applied.get(n) is not t]
        removed = [n for n in self._applied if n not in current]
        self._tasks = list(tasks)
        if not changed and not removed:
            return
        self._result = None
        self._verdict = None
        if len(changed) + len(removed) >= max(2, (len(current) + 1) // 2):
            self._rebuild(self._tasks)
        else:
            for name in removed:
                self._drop(name)
            for name in changed:
                if name in self._applied:
                    self._drop(name)
            for name in changed:
                self._add(current[name], self._tasks)
        self._applied = current

    def result(self, taskset: Optional[TaskSet] = None) -> TestResult:
        """Current verdict (memoized until the next effective refresh).

        ``taskset`` may supply an already-validated :class:`TaskSet` of
        the refreshed tasks (``AdmissionState`` shares its version-cached
        one across all three analyzers to skip re-validation).
        """
        if self._result is None:
            self._evaluate(taskset, stop_early=False)
        assert self._result is not None
        return self._result

    def verdict(self, taskset: Optional[TaskSet] = None) -> bool:
        """``result(taskset).accepted`` without building the per-task
        verdicts of a rejection: the walk stops at the first failing task.

        Memoized until the next effective refresh; every full result
        computed since then has set it as well.
        """
        if self._verdict is None:
            self._evaluate(taskset, stop_early=True)
        assert self._verdict is not None
        return self._verdict

    def _evaluate(self, taskset: Optional[TaskSet], stop_early: bool) -> None:
        """Necessary-conditions gate shared by all three tests, then the
        test-specific cached walk (mirrors each scalar ``__call__``).
        Sets ``_verdict``, and ``_result`` unless the walk stopped early."""
        tasks = self._tasks
        if not tasks:
            result: Optional[TestResult] = empty_taskset_result(
                self.test.name, self.test.schedulers
            )
        else:
            nec = necessary_conditions(
                TaskSet(tasks) if taskset is None else taskset, self.fpga
            )
            if nec.accepted:
                result = self._compute(tasks, stop_early)
            else:
                result = TestResult(
                    self.test.name, False, self.test.schedulers, nec.per_task, nec.reason
                )
        self._result = result
        self._verdict = False if result is None else result.accepted


class DpAnalyzer(_AnalyzerBase):
    """Theorem 1 with cached per-task utilizations.

    DP's aggregates (``US(Γ)``, ``Amax``) are O(N) anyway; the cache saves
    the per-task ``C·A/T`` divisions (the expensive part under Fraction
    arithmetic) and re-sums them in task order at query time.
    """

    def __init__(self, test: DpTest, fpga: Fpga) -> None:
        super().__init__(test, fpga)
        self._ut: Dict[str, Real] = {}
        self._us: Dict[str, Real] = {}

    def _clear(self) -> None:
        self._ut.clear()
        self._us.clear()

    def _drop(self, name: str) -> None:
        self._ut.pop(name, None)
        self._us.pop(name, None)

    def _add(self, task: Task, tasks: Sequence[Task]) -> None:
        self._ut[task.name] = task.time_utilization
        self._us[task.name] = task.system_utilization

    def _compute(self, tasks: Sequence[Task], stop_early: bool) -> Optional[TestResult]:
        test: DpTest = self.test
        abnd = test.busy_bound(self.fpga.capacity, max(t.area for t in tasks))
        us_total: Real = 0
        for t in tasks:  # same left-to-right order as TaskSet.system_utilization
            us_total = us_total + self._us[t.name]
        verdicts = []
        accepted = True
        for t in tasks:
            v = test.task_verdict(
                t, abnd, us_total, ut=self._ut[t.name], us=self._us[t.name]
            )
            if stop_early and not v.passed:
                return None
            accepted &= v.passed
            verdicts.append(v)
        return TestResult(test.name, accepted, test.schedulers, tuple(verdicts))


class Gn1Analyzer(_AnalyzerBase):
    """Theorem 2 with a name-keyed (i, k) pair-term matrix.

    ``_terms[k][i]`` is the cached addend ``A_i·min(β_i, 1-C_k/D_k)`` from
    :meth:`~repro.core.gn1.Gn1Test.pair_term`.  Changing one task touches
    one row plus one column — ``O(N)`` β evaluations instead of the scalar
    test's ``O(N²)``.  Query-time verdicts re-sum each row in task order.
    """

    def __init__(self, test: Gn1Test, fpga: Fpga) -> None:
        super().__init__(test, fpga)
        self._slack: Dict[str, Real] = {}
        self._rhs: Dict[str, Real] = {}
        self._terms: Dict[str, Dict[str, Real]] = {}

    def _clear(self) -> None:
        self._slack.clear()
        self._rhs.clear()
        self._terms.clear()

    def _drop(self, name: str) -> None:
        self._slack.pop(name, None)
        self._rhs.pop(name, None)
        self._terms.pop(name, None)
        for row in self._terms.values():
            row.pop(name, None)

    def _add(self, task: Task, tasks: Sequence[Task]) -> None:
        test: Gn1Test = self.test
        j = task.name
        slack = test.slack_rate(task)
        self._slack[j] = slack
        self._rhs[j] = test.task_rhs(task, self.fpga.capacity, slack)
        # Row j: every other resident task interfering with the new task.
        row: Dict[str, Real] = {}
        for t in tasks:
            if t.name != j:
                row[t.name] = test.pair_term(t, task, slack)[1]
        self._terms[j] = row
        # Column j: the new task interfering with every existing row.  Rows
        # of names still pending their own _add are absent and get their
        # full row (including j) when their turn comes.
        for t in tasks:
            if t.name == j:
                continue
            krow = self._terms.get(t.name)
            if krow is not None:
                krow[j] = test.pair_term(task, t, self._slack[t.name])[1]

    def _rebuild(self, tasks: Sequence[Task]) -> None:
        # Direct O(N²) fill (the incremental _add would touch each pair twice).
        test: Gn1Test = self.test
        self._clear()
        cap = self.fpga.capacity
        for t in tasks:
            slack = test.slack_rate(t)
            self._slack[t.name] = slack
            self._rhs[t.name] = test.task_rhs(t, cap, slack)
        for task_k in tasks:
            slack = self._slack[task_k.name]
            self._terms[task_k.name] = {
                task_i.name: test.pair_term(task_i, task_k, slack)[1]
                for task_i in tasks
                if task_i.name != task_k.name
            }

    def _compute(self, tasks: Sequence[Task], stop_early: bool) -> Optional[TestResult]:
        test: Gn1Test = self.test
        verdicts = []
        accepted = True
        for task_k in tasks:
            row = self._terms[task_k.name]
            lhs: Real = 0
            for task_i in tasks:  # scalar check_task's accumulation order
                if task_i.name != task_k.name:
                    lhs += row[task_i.name]
            rhs = self._rhs[task_k.name]
            ok = lhs < rhs
            if stop_early and not ok:
                return None
            accepted &= ok
            verdicts.append(PerTaskVerdict(task_k.name, ok, lhs, rhs, GN1_DETAIL))
        return TestResult(test.name, accepted, test.schedulers, tuple(verdicts))


class Gn2Analyzer(_AnalyzerBase):
    """Theorem 3 with a lazily-filled per-(k, λ, i) term cache.

    Eager β maintenance would defeat :meth:`~repro.core.gn2.Gn2Test.
    find_witness`'s first-witness short-circuit (most λ candidates are
    never visited), so β values are computed on first need during the
    candidate walk — by the same :func:`~repro.core.workload.gn2_beta`
    call, in the same order — and reused on later queries.  λ candidate
    lists are rebuilt per query from cached per-task contributions
    (:func:`~repro.core.workload.lambda_candidate_values`), which keeps
    the scalar test's set-dedup representative (and hence the witness
    detail string) identical.
    """

    def __init__(self, test: Gn2Test, fpga: Fpga) -> None:
        super().__init__(test, fpga)
        self._u: Dict[str, Real] = {}  # time utilization (λ minimum point)
        self._pool: Dict[str, List[Real]] = {}  # candidate contributions
        self._scale: Dict[str, Real] = {}  # max(1, T_k/D_k)
        self._terms: Dict[str, Dict[_LamKey, Dict[str, Tuple[Real, Real]]]] = {}

    def _clear(self) -> None:
        self._u.clear()
        self._pool.clear()
        self._scale.clear()
        self._terms.clear()

    def _drop(self, name: str) -> None:
        dropped_pool = self._pool.pop(name, ())
        self._u.pop(name, None)
        self._scale.pop(name, None)
        self._terms.pop(name, None)
        # Purge the departed task from every surviving row, and prune λ
        # keys it (likely alone) contributed so the cache cannot grow with
        # churn history.  Over-pruning an equal λ another task also
        # contributes merely costs a lazy recompute.
        dropped_keys = [_lam_key(v) for v in dropped_pool]
        for rows in self._terms.values():
            for key in dropped_keys:
                rows.pop(key, None)
            for lam_row in rows.values():
                lam_row.pop(name, None)

    def _add(self, task: Task, tasks: Sequence[Task]) -> None:
        j = task.name
        self._u[j] = task.time_utilization
        self._pool[j] = lambda_candidate_values(task)
        self._scale[j] = Gn2Test.lam_scale(task)
        self._terms[j] = {}  # filled lazily during candidate walks

    def _compute(self, tasks: Sequence[Task], stop_early: bool) -> Optional[TestResult]:
        test: Gn2Test = self.test
        abnd = self.fpga.capacity - max(t.area for t in tasks) + 1
        amin = min(t.area for t in tasks)
        # Dedup/sort the candidate pool ONCE per query; each task's list is
        # then a bisect slice.  Dedup in pool order keeps the same equal-value
        # representative the scalar per-task set construction keeps, so the
        # witness λ objects (and detail strings) stay identical.
        seen = set()
        pool: List[Real] = []
        for t in tasks:  # same pooling order as gn2_lambda_candidates
            for v in self._pool[t.name]:
                if v not in seen:
                    seen.add(v)
                    pool.append(v)
        pool.sort()
        verdicts = []
        accepted = True
        for task_k in tasks:
            witness = self._find_witness(task_k, tasks, pool, abnd, amin)
            ok = witness is not None
            if stop_early and not ok:
                return None
            accepted &= ok
            verdicts.append(
                PerTaskVerdict(task_k.name, ok, detail=witness_detail(witness))
            )
        return TestResult(test.name, accepted, test.schedulers, tuple(verdicts))

    def _find_witness(
        self,
        task_k: Task,
        tasks: Sequence[Task],
        sorted_pool: List[Real],
        abnd: Real,
        amin: Real,
    ) -> Optional[LambdaWitness]:
        test: Gn2Test = self.test
        rows = self._terms[task_k.name]
        lam_scale = self._scale[task_k.name]
        lam_min = self._u[task_k.name]
        # sorted({lam_min} | {v >= lam_min}) with lam_min as the
        # representative of its own value — gn2_lambda_candidates' result.
        cut = bisect_left(sorted_pool, lam_min)
        if cut < len(sorted_pool) and sorted_pool[cut] == lam_min:
            cut += 1
        candidates = [lam_min]
        candidates.extend(sorted_pool[cut:])
        literal = test.literal_case2
        for lam in candidates:
            lam_row = rows.setdefault(_lam_key(lam), {})
            one_minus = test.lam_slack(lam, lam_scale)
            row_get = lam_row.get
            terms = [row_get(t.name) for t in tasks]
            for i, pair in enumerate(terms):
                if pair is None:
                    task_i = tasks[i]
                    pair = test.pair_terms(
                        task_i,
                        gn2_beta(task_i, task_k, lam, literal_case2=literal),
                        one_minus,
                    )
                    lam_row[task_i.name] = pair
                    terms[i] = pair
            condition = test.check_lambda(one_minus, abnd, amin, terms)
            if condition is not None:
                return LambdaWitness(lam, condition)
        return None
