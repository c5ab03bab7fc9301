"""GN2 — Theorem 3: Baker-style busy-interval analysis for EDF-FkF.

A taskset Γ is schedulable by EDF-FkF (hence also EDF-NF) if for every
task ``tau_k`` there EXISTS ``λ >= C_k/T_k`` satisfying, with
``λ_k = λ * max(1, T_k/D_k)``, ``Abnd = A(H) - Amax + 1`` and
``β^λ_k(i)`` from Lemma 7, at least one of::

    1)  Σ_i A_i · min(β^λ_k(i), 1 - λ_k)  <  Abnd · (1 - λ_k)
    2)  Σ_i A_i · min(β^λ_k(i), 1)        <  (Abnd - Amin)(1 - λ_k) + Amin

The derivation extends the problem window downward to a maximal
``τλ_k``-busy interval (Definition 5, Lemmas 5–6), which tightens the
carry-in bound relative to GN1's fixed window — at the cost of using the
weaker global-α occupancy ``Abnd`` (Lemma 1) instead of GN1's per-task
``A(H) - A_k + 1``, since the extended window is no longer
interval-α-work-conserving.  This is exactly the DP/GN1/GN2
incomparability the paper demonstrates with Tables 1–3.

Only finitely many λ need be checked (the minimum point and the
discontinuities of β — see :func:`repro.core.workload.gn2_lambda_candidates`),
giving the O(N³) complexity the paper states.

Strictness note: condition 2 is printed with ``<=``, but the paper's own
accept/reject matrix (Table 1 is *rejected* by GN2) requires strict ``<``
at the exact knife-edge that Table 1 hits; default is strict
(README, "Design notes" §4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import List, NamedTuple, Optional

from repro.core.interfaces import (
    PerTaskVerdict,
    SchedulerKind,
    TestResult,
    necessary_conditions,
)
from repro.core.workload import gn2_beta, gn2_lambda_candidates
from repro.fpga.device import Fpga
from repro.model.task import TaskSet
from repro.util.mathutil import exact_div


class LambdaWitness(NamedTuple):
    """The λ value and condition number that certified a task."""

    lam: Real
    condition: int  # 1 or 2


def witness_detail(witness: Optional[LambdaWitness]) -> str:
    """The per-task verdict detail :meth:`Gn2Test.__call__` records (shared
    with the incremental analyzer so replayed verdicts compare equal)."""
    if witness is None:
        return "no λ candidate satisfies condition 1 or 2"
    return f"certified by λ={witness.lam} via condition {witness.condition}"


@dataclass(frozen=True)
class Gn2Test:
    """Configurable GN2 instance (Theorem 3)."""

    #: Use strict ``<`` for condition 2 (matches the paper's Table 1 claim);
    #: ``False`` restores the printed ``<=``.
    strict_condition2: bool = True
    #: Reproduce the printed (typo) ``C_k/T_k`` in Lemma 7's case 2 instead
    #: of the corrected ``C_i/T_i``.
    literal_case2: bool = False

    schedulers = frozenset({SchedulerKind.EDF_FKF, SchedulerKind.EDF_NF})

    @property
    def name(self) -> str:
        suffix = "" if (self.strict_condition2 and not self.literal_case2) else "*"
        return f"GN2{suffix}"

    # -- per-task search ------------------------------------------------------

    @staticmethod
    def lam_scale(task_k) -> Real:
        """``max(1, T_k/D_k)`` — the λ → λ_k conversion factor."""
        t_over_d = exact_div(task_k.period, task_k.deadline)
        return t_over_d if t_over_d > 1 else 1

    @staticmethod
    def lam_slack(lam: Real, lam_scale: Real) -> Real:
        """``1 - λ_k`` with ``λ_k = λ · max(1, T_k/D_k)``."""
        lam_k = lam * lam_scale
        return 1 - lam_k

    @staticmethod
    def pair_terms(task_i, beta: Real, one_minus: Real) -> tuple:
        """The two clamped addends of Theorem 3's conditions for one
        interfering task: ``A_i·min(β, 1-λ_k)`` and ``A_i·min(β, 1)``.

        Shared by :meth:`find_witness` (computed fresh per candidate) and
        the incremental analyzer (cached per ``(k, λ)`` row) — the same
        product in the same form, so replayed sums are bit-equal.
        """
        area = task_i.area
        return (
            area * (beta if beta < one_minus else one_minus),
            area * (beta if beta < 1 else 1),
        )

    def check_lambda(
        self, one_minus: Real, abnd: Real, amin: Real, terms
    ) -> Optional[int]:
        """Evaluate Theorem 3's two conditions for one λ candidate.

        ``terms`` supplies the :meth:`pair_terms` pairs in task order; the
        left-to-right accumulation is identical for the scalar and the
        incremental caller, so verdicts are bit-equal.  Returns the
        certifying condition number (1 or 2) or ``None``.

        A λ with ``λ_k >= 1`` (``one_minus <= 0``) certifies nothing: the
        conditions' right-hand sides are then zero or negative, where a
        negative clamped ``lhs1`` would accept spuriously and break
        monotonicity in the WCETs.
        """
        if one_minus <= 0:
            return None
        lhs1: Real = 0
        lhs2: Real = 0
        for term1, term2 in terms:
            lhs1 += term1
            lhs2 += term2
        if lhs1 < abnd * one_minus:
            return 1
        rhs2 = (abnd - amin) * one_minus + amin
        if (lhs2 < rhs2) or (not self.strict_condition2 and lhs2 == rhs2):
            return 2
        return None

    def find_witness(
        self, taskset: TaskSet, fpga: Fpga, k: int
    ) -> Optional[LambdaWitness]:
        """Search the λ candidates for one certifying task ``k``.

        Returns the first (smallest-λ) witness, or ``None`` if every
        candidate fails both conditions.
        """
        task_k = taskset[k]
        abnd = fpga.capacity - taskset.max_area + 1
        amin = taskset.min_area
        lam_scale = self.lam_scale(task_k)
        literal = self.literal_case2
        for lam in gn2_lambda_candidates(taskset, task_k):
            one_minus = self.lam_slack(lam, lam_scale)
            terms = [
                self.pair_terms(
                    task_i,
                    gn2_beta(task_i, task_k, lam, literal_case2=literal),
                    one_minus,
                )
                for task_i in taskset
            ]
            condition = self.check_lambda(one_minus, abnd, amin, terms)
            if condition is not None:
                return LambdaWitness(lam, condition)
        return None

    def __call__(self, taskset: TaskSet, fpga: Fpga) -> TestResult:
        nec = necessary_conditions(taskset, fpga)
        if not nec.accepted:
            return TestResult(self.name, False, self.schedulers, nec.per_task, nec.reason)
        verdicts: List[PerTaskVerdict] = []
        accepted = True
        for k, task_k in enumerate(taskset):
            witness = self.find_witness(taskset, fpga, k)
            ok = witness is not None
            accepted &= ok
            verdicts.append(PerTaskVerdict(task_k.name, ok, detail=witness_detail(witness)))
        return TestResult(self.name, accepted, self.schedulers, tuple(verdicts))


#: Default GN2 (strict condition 2, corrected Lemma 7 case 2).
gn2_test = Gn2Test()

#: Literal-text GN2 for ablation: printed `<=` and printed case-2 value.
gn2_test_literal = Gn2Test(strict_condition2=False, literal_case2=True)
