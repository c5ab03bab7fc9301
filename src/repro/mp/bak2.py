"""BAK2 — Baker's further-improved global-EDF λ test (TR-051001 shape).

Combines BCL's slack-truncated interference with BAK1's busy-interval
(problem-window extension) analysis: for every ``tau_k`` there must exist
``λ >= C_k/T_k`` such that, with ``λ_k = λ max(1, T_k/D_k)`` and β from
Lemma 7, one of::

    1)  Σ_i min(β^λ_k(i), 1 - λ_k)  <  m (1 - λ_k)
    2)  Σ_i min(β^λ_k(i), 1)        <  (m - 1)(1 - λ_k) + 1

holds, where ``λ_k < 1``.  This is the multiprocessor ancestor of GN2:
Theorem 3 with unit areas (``Amax = Amin = 1``, ``Abnd = m``) recovers
it exactly — asserted by the reduction tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.gn2 import LambdaWitness
from repro.core.interfaces import PerTaskVerdict, SchedulerKind, TestResult
from repro.core.workload import gn2_beta, gn2_lambda_candidates
from repro.model.task import TaskSet
from repro.util.mathutil import exact_div


@dataclass(frozen=True)
class Bak2Test:
    """BAK2-style λ test on ``processors`` identical CPUs.

    ``strict_condition2`` mirrors :class:`repro.core.gn2.Gn2Test` so the
    unit-area reduction is exact under either convention.
    """

    processors: int
    strict_condition2: bool = True

    name = "BAK2"
    schedulers = frozenset(SchedulerKind)

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("processors must be >= 1")

    def find_witness(self, taskset: TaskSet, k: int) -> Optional[LambdaWitness]:
        m = self.processors
        task_k = taskset[k]
        t_over_d = exact_div(task_k.period, task_k.deadline)
        lam_scale = t_over_d if t_over_d > 1 else 1
        for lam in gn2_lambda_candidates(taskset, task_k):
            lam_k = lam * lam_scale
            one_minus = 1 - lam_k
            if one_minus <= 0:
                continue  # λ_k >= 1 certifies nothing (as in GN2)
            lhs1 = 0
            lhs2 = 0
            for task_i in taskset:
                beta = gn2_beta(task_i, task_k, lam)
                lhs1 += beta if beta < one_minus else one_minus
                lhs2 += beta if beta < 1 else 1
            if lhs1 < m * one_minus:
                return LambdaWitness(lam, 1)
            rhs2 = (m - 1) * one_minus + 1
            if (lhs2 < rhs2) or (not self.strict_condition2 and lhs2 == rhs2):
                return LambdaWitness(lam, 2)
        return None

    def __call__(self, taskset: TaskSet) -> TestResult:
        verdicts = []
        accepted = True
        for k, task_k in enumerate(taskset):
            if not task_k.feasible_alone or task_k.time_utilization > 1:
                verdicts.append(PerTaskVerdict(task_k.name, False, detail="infeasible task"))
                accepted = False
                continue
            witness = self.find_witness(taskset, k)
            ok = witness is not None
            accepted &= ok
            verdicts.append(
                PerTaskVerdict(
                    task_k.name,
                    ok,
                    detail=(
                        f"certified by λ={witness.lam} via condition {witness.condition}"
                        if witness
                        else "no λ candidate works"
                    ),
                )
            )
        return TestResult(self.name, accepted, self.schedulers, tuple(verdicts))


def bak2_test(taskset: TaskSet, processors: int) -> TestResult:
    """Functional form of :class:`Bak2Test`."""
    return Bak2Test(processors)(taskset)
