"""GN1 — Theorem 2: BCL-style interference bound for EDF-NF.

A taskset Γ is schedulable by EDF-NF if for every ``tau_k``::

    sum_{i != k}  A_i * min(β_i, 1 - C_k/D_k)  <  Bound_k * (1 - C_k/D_k)

where ``β_i`` bounds the time work ``tau_i`` can contribute to the window
``[r_k, d_k)`` (Lemma 4 / :func:`repro.core.workload.gn1_beta`) and
``Bound_k`` comes from the interval-α-work-conserving property of EDF-NF
(Lemma 2): while ``J_k`` waits, at least ``A(H) - A_k + 1`` columns are
busy, so interference "area-time" is delivered at that minimum rate.

The derivation chain (Lemma 3): if a job of ``tau_k`` misses its deadline,
total interference exceeds the slack ``D_k - C_k``; the area-weighted,
slack-truncated workload of the other tasks must then exceed
``(A(H) - A_k + 1)(D_k - C_k)`` — so if the inequality above holds for all
tasks, no deadline can be missed.

Printed-formula discrepancies (README, "Design notes" §4.1–4.2) are selectable via
:class:`Gn1Variant`; the default reproduces the paper's worked examples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from numbers import Real
from typing import List, Tuple

from repro.core.interfaces import (
    PerTaskVerdict,
    SchedulerKind,
    TestResult,
    necessary_conditions,
)
from repro.core.workload import gn1_beta
from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet
from repro.util.mathutil import exact_div


class Gn1Variant(enum.Enum):
    """Resolutions of the Theorem 2 printing ambiguities.

    ========================  ===========  ==================
    variant                   β denominator  bound coefficient
    ========================  ===========  ==================
    PAPER (worked examples)   ``D_i``      ``A(H) - A_k + 1``
    THEOREM_LITERAL           ``D_i``      ``A(H) - A_k``
    BCL_WINDOW                ``D_k``      ``A(H) - A_k + 1``
    ========================  ===========  ==================
    """

    PAPER = "paper"
    THEOREM_LITERAL = "theorem-literal"
    BCL_WINDOW = "bcl-window"


#: Per-task verdict detail recorded by :meth:`Gn1Test.__call__` (shared
#: with the incremental analyzer so replayed verdicts compare equal).
GN1_DETAIL = "Σ_{i≠k} A_i·min(β_i, 1-C_k/D_k) < Bound_k·(1-C_k/D_k)"


@dataclass(frozen=True)
class Gn1Test:
    """Configurable GN1 instance; the default follows the worked examples."""

    variant: Gn1Variant = Gn1Variant.PAPER

    #: GN1 relies on Lemma 2 (interval-α for EDF-NF); it does NOT certify
    #: EDF-FkF (paper §6: "GN1 is not applicable to EDF-FkF").
    schedulers = frozenset({SchedulerKind.EDF_NF})

    @property
    def name(self) -> str:
        return "GN1" if self.variant is Gn1Variant.PAPER else f"GN1[{self.variant.value}]"

    def _bound_coefficient(self, area: Real, a_k: Real) -> Real:
        if self.variant is Gn1Variant.THEOREM_LITERAL:
            return area - a_k
        return area - a_k + 1

    # -- cache-aware entry points (repro.incremental) -------------------------

    def slack_rate(self, task_k: Task) -> Real:
        """``1 - C_k/D_k`` — the per-task interference budget rate."""
        return 1 - exact_div(task_k.wcet, task_k.deadline)

    def pair_term(
        self, task_i: Task, task_k: Task, slack_rate: Real | None = None
    ) -> Tuple[Real, Real]:
        """``(β_i, A_i·min(β_i, 1-C_k/D_k))`` for one interfering pair.

        The second element is exactly one addend of Theorem 2's LHS, so a
        caller caching these terms per (i, k) pair and re-summing them in
        task order reproduces :meth:`check_task`'s ``lhs`` bit-for-bit.
        """
        if slack_rate is None:
            slack_rate = self.slack_rate(task_k)
        beta = gn1_beta(
            task_i, task_k, window_denominator=self.variant is Gn1Variant.BCL_WINDOW
        )
        contrib = beta if beta < slack_rate else slack_rate
        return beta, task_i.area * contrib

    def task_rhs(self, task_k: Task, capacity: Real, slack_rate: Real | None = None) -> Real:
        """Theorem 2's RHS ``Bound_k · (1 - C_k/D_k)`` for one task."""
        if slack_rate is None:
            slack_rate = self.slack_rate(task_k)
        return self._bound_coefficient(capacity, task_k.area) * slack_rate

    def check_task(
        self, taskset: TaskSet, fpga: Fpga, k: int
    ) -> Tuple[bool, Real, Real, List[Tuple[str, Real]]]:
        """Evaluate Theorem 2's inequality for task index ``k``.

        Returns ``(passed, lhs, rhs, [(name, β_i), ...])`` so callers (and
        the Fig. 2 illustration in the docs) can inspect the interference
        decomposition.
        """
        task_k = taskset[k]
        slack_rate = self.slack_rate(task_k)
        lhs: Real = 0
        betas: List[Tuple[str, Real]] = []
        for i, task_i in enumerate(taskset):
            if i == k:
                continue
            beta, term = self.pair_term(task_i, task_k, slack_rate)
            betas.append((task_i.name, beta))
            lhs += term
        rhs = self.task_rhs(task_k, fpga.capacity, slack_rate)
        return lhs < rhs, lhs, rhs, betas

    def __call__(self, taskset: TaskSet, fpga: Fpga) -> TestResult:
        nec = necessary_conditions(taskset, fpga)
        if not nec.accepted:
            return TestResult(self.name, False, self.schedulers, nec.per_task, nec.reason)
        verdicts = []
        accepted = True
        for k in range(len(taskset)):
            ok, lhs, rhs, _ = self.check_task(taskset, fpga, k)
            accepted &= ok
            verdicts.append(PerTaskVerdict(taskset[k].name, ok, lhs, rhs, GN1_DETAIL))
        return TestResult(self.name, accepted, self.schedulers, tuple(verdicts))

    # -- introspection (Fig. 2 of the paper) ---------------------------------

    def interference_report(self, taskset: TaskSet, fpga: Fpga, k: int) -> str:
        """Human-readable Lemma 3 decomposition for task ``k`` —
        the textual analogue of the paper's Fig. 2."""
        task_k = taskset[k]
        ok, lhs, rhs, betas = self.check_task(taskset, fpga, k)
        slack = task_k.deadline - task_k.wcet
        lines = [
            f"Lemma 3 interference budget for {task_k.name}:",
            f"  slack D_k - C_k = {slack}",
            f"  guaranteed busy area while J_k waits = "
            f"{self._bound_coefficient(fpga.capacity, task_k.area)}",
        ]
        for name, beta in betas:
            lines.append(f"  β[{name}] = {beta}")
        lines.append(f"  LHS = {lhs} {'<' if ok else '>='} RHS = {rhs} -> "
                     f"{'pass' if ok else 'fail'}")
        return "\n".join(lines)


#: Default GN1 (paper worked-example variant).
gn1_test = Gn1Test()
