"""Sensitivity analysis on top of the schedulability bounds.

Two questions a designer asks once a bound accepts (or rejects) a
workload:

* :func:`critical_scaling` — by how much can execution times grow before
  the test starts rejecting (acceptance margin), or how much must they
  shrink for it to accept (infeasibility gap)?  This is the classic
  critical-scaling-factor metric.
* :func:`minimum_width` — the narrowest device the test certifies
  (FPGA dimensioning; see ``examples/fpga_dimensioning.py``).

Both rely on monotonicity properties that the test-suite verifies for
DP/GN1/GN2: scaling all WCETs down, or widening the device, never turns
an acceptance into a rejection.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Real
from typing import Callable, Dict, Optional, Tuple

from repro.core.interfaces import SchedulerKind, TestResult
from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet

#: Any accept/reject predicate over (taskset, fpga).
Test = Callable[[TaskSet, Fpga], object]


def critical_scaling(
    taskset: TaskSet,
    fpga: Fpga,
    test: Test,
    precision: Real = Fraction(1, 1000),
    upper_limit: Real = 16,
) -> Optional[Real]:
    """Largest WCET scale factor ``s`` (within ``precision``) such that the
    scaled taskset is still accepted by ``test``.

    Returns ``None`` when even scaling toward zero is rejected (the test
    rejects on structural grounds, e.g. a task wider than the device).
    ``s >= 1`` means the workload has margin; ``s < 1`` quantifies how
    far it is from acceptance.  Exact-rational tasksets keep the search
    exact (the returned factor is a Fraction).
    """
    if precision <= 0:
        raise ValueError("precision must be > 0")
    if upper_limit <= 0:
        raise ValueError("upper_limit must be > 0")

    def accepted(factor: Real) -> bool:
        scaled = taskset.scaled(time_factor=factor)
        if any(t.wcet > t.period or t.wcet > t.deadline for t in scaled):
            return False  # scaling made the set structurally infeasible
        return bool(test(scaled, fpga))

    lo = Fraction(precision)  # smallest factor worth reporting
    if not accepted(lo):
        return None
    hi = Fraction(upper_limit)
    if accepted(hi):
        return hi
    # invariant: accepted(lo), not accepted(hi)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if accepted(mid):
            lo = mid
        else:
            hi = mid
    return lo


def minimum_width(
    taskset: TaskSet,
    fpga_max_width: int,
    test: Test,
) -> Optional[int]:
    """Smallest device width ``test`` accepts (binary search; monotone).

    Returns ``None`` if even ``fpga_max_width`` is rejected.
    """
    if fpga_max_width < 1:
        raise ValueError("fpga_max_width must be >= 1")
    lo = max(1, int(taskset.max_area))
    hi = fpga_max_width
    if lo > hi or not test(taskset, Fpga(width=hi)):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if test(taskset, Fpga(width=mid)):
            hi = mid
        else:
            lo = mid + 1
    return lo


def acceptance_margin(
    taskset: TaskSet, fpga: Fpga, test: Test, precision: Real = Fraction(1, 1000)
) -> Optional[Real]:
    """``critical_scaling - 1``: positive = headroom, negative = deficit."""
    s = critical_scaling(taskset, fpga, test, precision)
    return None if s is None else s - 1


def portfolio_member(result: TestResult) -> str:
    """The first member (``"DP"``, ``"GN1"`` or ``"GN2"``) that accepted
    a §6 portfolio ``result``, or ``""`` when the portfolio rejected."""
    if not result.accepted:
        return ""
    via = result.reason.removeprefix("accepted by member ")
    return next((m for m in ("GN1", "GN2") if via.startswith(m)), "DP")


class DeltaCertifier:
    """O(1) delta-certificates: "still portfolio-schedulable after this Δ?"

    An admission controller rarely needs a fresh verdict — most churn
    operations leave obvious slack.  The certifier caches the current
    exact portfolio verdict (from an
    :class:`~repro.incremental.state.AdmissionState`, whose verdicts are
    bit-identical to the scalar tests) plus DP's acceptance slack
    ``min_k (RHS_k - US(Γ))``, and answers each ``certify_*`` query in
    O(1) **only when monotonicity makes the answer provable**:

    * ``certify_remove`` — DP and GN1 acceptances are preserved under task
      removal (``US`` and every GN1 interference sum only shrink; the
      busy bounds only grow), so an accept *via DP or GN1* survives any
      departure.  GN2's bound moves both ways (``Amin`` may grow), so a
      GN2-only accept is never certified.
    * ``certify_add`` — a DP acceptance survives an arrival whose area
      keeps ``Amax`` (hence ``Abnd``) unchanged and whose system
      utilization fits inside the cached slack; the newcomer's own
      inequality and the necessary conditions are checked directly.
      Certified adds *consume* the cached slack, so a burst of arrivals
      self-limits and falls back to the exact test when margin runs out.
    * ``certify_update`` — remove + add composed, charging only the
      utilization **delta** against the slack.

    Every other case returns ``None`` = "don't know, rerun the exact
    test".  ``True``/``False`` are *certificates*: for int/Fraction
    parameters the reasoning is exact; with floats each comparison must
    additionally clear a relative guard band (``rel_eps``) that dominates
    the re-association error of the restructured sums, and knife-edge
    cases inside the band return ``None`` instead of guessing.

    The certifier is deliberately **not** in ``AdmissionState``'s verdict
    path (which stays bit-identical to the scalar tests); callers opt in,
    as the admission service (:mod:`repro.service.engine`) does, and
    should call :meth:`refresh` after every exact verdict that changes
    the resident set.
    """

    def __init__(self, rel_eps: float = 1e-9):
        if rel_eps < 0:
            raise ValueError("rel_eps must be >= 0")
        self.rel_eps = rel_eps
        self.stats: Dict[str, int] = {"certified": 0, "unknown": 0}
        self._valid = False

    # -- cache maintenance -----------------------------------------------------

    def refresh(self, state, scheduler: SchedulerKind = SchedulerKind.EDF_NF) -> str:
        """Rebuild the cache from ``state``'s current *exact* verdict
        (``state`` is an :class:`~repro.incremental.state.AdmissionState`;
        O(N) on top of the verdict itself, which the state's analyzers
        have usually cached already) and return the accepting member
        (``""`` on rejection)."""
        member = portfolio_member(state.portfolio_result(scheduler))
        self.seed(state, bool(member), member)
        return member

    def seed(self, state, accepted: bool, via: str) -> None:
        """Rebuild the cache from an established portfolio verdict.

        ``accepted`` plus the first accepting member ``via`` in the
        composite's DP → GN1 → GN2 order (``""`` on rejection); the O(N)
        arithmetic cache is rebuilt directly from ``state``'s resident
        tasks.  Soundness is the caller's contract: the verdict must be
        the true portfolio verdict of ``state``'s *current* resident set,
        on the same float64 terms the certificates assume.
        :meth:`refresh` — what the admission service calls after every
        accepted exact ``add`` — is ``seed`` fed from the state's own
        verdict, so it meets the contract by construction.
        """
        if via not in ("", "DP", "GN1", "GN2"):
            raise ValueError(f"via must be '', 'DP', 'GN1' or 'GN2', got {via!r}")
        self._accepted = bool(accepted)
        self._via = via if accepted else ""
        dp = state.analyzers["DP"].test
        tasks = list(state.tasks)
        self._cap = state.fpga.capacity
        self._us_by_name = {t.name: t.system_utilization for t in tasks}
        self._area_by_name = {t.name: t.area for t in tasks}
        self._has_float = any(
            isinstance(v, float)
            for t in tasks
            for v in (t.wcet, t.period, t.deadline, t.area)
        )
        if tasks:
            self._amax = max(self._area_by_name.values())
            self._abnd = dp.busy_bound(self._cap, self._amax)
            us_total: Real = 0
            for t in tasks:
                us_total = us_total + self._us_by_name[t.name]
            self._us = us_total
            self._min_slack = min(
                self._abnd * (1 - t.time_utilization)
                + self._us_by_name[t.name]
                - us_total
                for t in tasks
            )
        else:
            self._amax = None
            self._abnd = None
            self._us = 0
            self._min_slack = None
        self._busy_bound = dp.busy_bound
        self._valid = True

    def _leq(self, lhs: Real, rhs: Real, floaty: bool) -> bool:
        """``lhs <= rhs`` with a relative guard band when floats are involved."""
        if not (floaty or self._has_float):
            return lhs <= rhs
        scale = max(1.0, abs(float(lhs)), abs(float(rhs)))
        return float(lhs) <= float(rhs) - self.rel_eps * scale

    @staticmethod
    def _floaty(task: Task) -> bool:
        return any(
            isinstance(v, float) for v in (task.wcet, task.period, task.deadline, task.area)
        )

    def _answer(self, verdict: Optional[bool]) -> Optional[bool]:
        self.stats["unknown" if verdict is None else "certified"] += 1
        return verdict

    # -- certificates ----------------------------------------------------------

    def certify_remove(self, name: str) -> Optional[bool]:
        """Still accepted after retiring ``name``?  (``None`` = rerun.)"""
        if not self._valid or not self._accepted or self._via not in ("DP", "GN1"):
            return self._answer(None)
        if name not in self._us_by_name:
            return self._answer(None)
        # Consume: US shrinks; cached min_slack stays a valid lower bound.
        self._us = self._us - self._us_by_name.pop(name)
        area = self._area_by_name.pop(name)
        if self._area_by_name and area == self._amax:
            self._amax = max(self._area_by_name.values())
            self._abnd = self._busy_bound(self._cap, self._amax)
        elif not self._area_by_name:
            self._amax = self._abnd = self._min_slack = None
        return self._answer(True)

    def _check_add(self, task: Task) -> Optional[Tuple[Real, Real]]:
        """The O(1) reasoning shared by :meth:`certify_add` and
        :meth:`certify_trial`: ``(us_j, own_rhs)`` when the DP acceptance
        provably survives admitting ``task``, ``None`` otherwise."""
        if (
            not self._valid
            or not self._accepted
            or self._via != "DP"
            or self._amax is None
            or task.name in self._us_by_name
        ):
            return None
        floaty = self._floaty(task)
        if task.wcet > task.deadline or task.wcet > task.period or task.area > self._cap:
            return None  # necessary conditions: let the exact path reject
        if task.area > self._amax:
            return None  # Abnd would shrink: no O(1) reasoning
        us_j = task.system_utilization
        ut_j = task.time_utilization
        own_rhs = self._abnd * (1 - ut_j)
        if not (
            self._leq(us_j, self._min_slack, floaty)  # every resident inequality holds
            and self._leq(self._us, own_rhs, floaty)  # the newcomer's own inequality
            and self._leq(self._us + us_j, self._cap, floaty)  # necessary: US' <= A(H)
        ):
            return None
        return us_j, own_rhs

    def certify_add(self, task: Task) -> Optional[bool]:
        """Still accepted after admitting ``task``?  (``None`` = rerun.)"""
        checked = self._check_add(task)
        if checked is None:
            return self._answer(None)
        us_j, own_rhs = checked
        # Consume the slack the newcomer used up.
        self._us_by_name[task.name] = us_j
        self._area_by_name[task.name] = task.area
        self._us = self._us + us_j
        self._min_slack = min(self._min_slack - us_j, own_rhs + us_j - self._us)
        self._has_float = self._has_float or self._floaty(task)
        return self._answer(True)

    def certify_trial(self, task: Task) -> Optional[bool]:
        """*Would* the portfolio still accept with ``task`` admitted?

        The non-consuming twin of :meth:`certify_add` for trial queries
        (verdict wanted, no admission): the same O(1) certificate, but
        the cached slack is left untouched because the resident set does
        not change.  ``None`` = not provable in O(1), rerun exactly.
        """
        return self._answer(True if self._check_add(task) is not None else None)

    def certify_update(self, name: str, task: Task) -> Optional[bool]:
        """Still accepted after replacing ``name`` with ``task``?"""
        if (
            not self._valid
            or not self._accepted
            or self._via != "DP"
            or name not in self._us_by_name
            or (task.name != name and task.name in self._us_by_name)
        ):
            return self._answer(None)
        floaty = self._floaty(task)
        if task.wcet > task.deadline or task.wcet > task.period or task.area > self._cap:
            return self._answer(None)
        if task.area > self._amax:
            return self._answer(None)
        us_old = self._us_by_name[name]
        us_j = task.system_utilization
        ut_j = task.time_utilization
        delta_us = us_j - us_old
        own_rhs = self._abnd * (1 - ut_j)
        if not (
            self._leq(delta_us, self._min_slack, floaty)
            and self._leq(self._us - us_old, own_rhs, floaty)
            and self._leq(self._us + delta_us, self._cap, floaty)
        ):
            return self._answer(None)
        del self._us_by_name[name]
        area_old = self._area_by_name.pop(name)
        self._us_by_name[task.name] = us_j
        self._area_by_name[task.name] = task.area
        self._us = self._us + delta_us
        new_slack = own_rhs + us_j - self._us
        self._min_slack = min(self._min_slack - delta_us, new_slack)
        if area_old == self._amax and task.area < area_old:
            self._amax = max(self._area_by_name.values())
            self._abnd = self._busy_bound(self._cap, self._amax)
        self._has_float = self._has_float or floaty
        return self._answer(True)

    @property
    def hit_rate(self) -> float:
        """Fraction of queries answered without an exact rerun."""
        total = self.stats["certified"] + self.stats["unknown"]
        return self.stats["certified"] / total if total else 0.0
