"""Interference workload bounds (paper §4 Lemma 4 and §5 Lemma 7).

These are the quantitative hearts of GN1 and GN2:

* :func:`bcl_workload_bound` — Lemma 4: an upper bound on the time work a
  task ``tau_i`` can do inside the problem window ``[r_k, d_k)`` of a job
  of ``tau_k``, maximized over release alignments (deadlines aligned).
* :func:`gn2_beta` — Lemma 7: Baker's per-task load-rate bound
  ``W_i(t-δ, t)/δ <= β^λ_k(i)`` over a maximal ``τλk``-busy interval.
* :func:`gn2_lambda_candidates` — §5's observation that only finitely many
  λ need be examined (minimum points + discontinuities of β).

Both work with exact rationals; see README, "Design notes" §4.1–4.4 for the resolved
printed-formula ambiguities.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from typing import List

from repro.model.task import Task, TaskSet
from repro.util.mathutil import exact_div, float_floor_div


def max_complete_jobs(window_deadline: Real, task_i: Task) -> int:
    """``N_i = max(0, floor((D_k - D_i)/T_i) + 1)`` (Lemma 4).

    The number of jobs of ``tau_i`` that can lie *entirely* inside the
    window ``[r_k, d_k)`` of length ``D_k`` when deadlines are aligned —
    the alignment that maximizes interference.  Negative raw values (window
    far shorter than ``D_i``) are clamped to zero: no complete job fits.
    """
    raw = float_floor_div(window_deadline - task_i.deadline, task_i.period) + 1
    return max(0, raw)


def bcl_workload_bound(task_i: Task, window_deadline: Real) -> Real:
    """Lemma 4: ``W_i <= N_i C_i + min(C_i, max(D_k - N_i T_i, 0))``.

    ``N_i C_i`` counts the complete jobs; the ``min(...)`` term bounds the
    carry-in of the one partial job (it can neither exceed ``C_i`` nor the
    window slack left of the complete jobs).
    """
    n_i = max_complete_jobs(window_deadline, task_i)
    carry_cap = window_deadline - n_i * task_i.period
    if carry_cap < 0:
        carry_cap = 0
    carry = task_i.wcet if task_i.wcet < carry_cap else carry_cap
    return n_i * task_i.wcet + carry


def gn1_beta(task_i: Task, task_k: Task, *, window_denominator: bool = False) -> Real:
    """Theorem 2's ``β_i`` for interfering task ``tau_i`` against ``tau_k``.

    As printed, the workload bound is normalized by ``D_i`` (confirmed by
    the Table 3 worked example, ``β_1 = 4.1/5``).  BCL — the cited basis —
    normalizes by the window length ``D_k``; pass
    ``window_denominator=True`` for that variant.
    """
    w = bcl_workload_bound(task_i, task_k.deadline)
    den = task_k.deadline if window_denominator else task_i.deadline
    return exact_div(w, den)


def gn2_beta(
    task_i: Task,
    task_k: Task,
    lam: Real,
    *,
    literal_case2: bool = False,
) -> Real:
    """Lemma 7's ``β^λ_k(i)`` — load-rate bound in a ``τλ_k``-busy interval.

    Cases (with ``u_i = C_i/T_i``, ``δ_i = C_i/D_i``):

    1. ``u_i <= λ``:   ``max(u_i, u_i (1 - D_i/D_k) + C_i/D_k)``
       — the task is no heavier than the busy threshold; carry-in bounded
       by deadline-alignment geometry.
    2. ``u_i > λ`` and ``λ >= δ_i``:  ``u_i``
       — reachable only for ``D_i > T_i``; the printed paper says
       ``C_k/T_k`` here, an evident i/k subscript typo (see README, "Design notes" §4.3);
       ``literal_case2=True`` reproduces the printed text.
    3. ``u_i > λ`` and ``λ < δ_i``:  ``u_i + (C_i - λ D_i)/D_k``
       — heavy task: its carry-in can exceed the busy threshold by the
       un-amortized remainder ``C_i - λ D_i``.
    """
    u_i = task_i.time_utilization
    if u_i <= lam:
        alt = u_i * (1 - exact_div(task_i.deadline, task_k.deadline)) + exact_div(
            task_i.wcet, task_k.deadline
        )
        return u_i if u_i >= alt else alt
    delta_i = task_i.density
    if lam >= delta_i:
        if literal_case2:
            return task_k.time_utilization
        return u_i
    return u_i + exact_div(task_i.wcet - lam * task_i.deadline, task_k.deadline)


def lambda_candidate_values(task: Task) -> List[Real]:
    """The λ values one task contributes to Theorem 3's candidate pool:
    its utilization ``C/T``, plus its density ``C/D`` when ``D > T``
    (the discontinuities of ``β^λ``).  Cache-aware entry point: the
    incremental analyzer maintains these per resident task and rebuilds
    per-``k`` candidate lists without touching the other tasks."""
    values = [task.time_utilization]
    if task.deadline > task.period:
        values.append(task.density)
    return values


def gn2_lambda_candidates_from_values(
    pool_values: List[Real], lam_min: Real
) -> List[Real]:
    """Sorted, deduplicated candidates ``>= lam_min`` from a pooled list of
    :func:`lambda_candidate_values` contributions (``lam_min`` itself is
    always included — Theorem 3's minimum point ``λ = C_k/T_k``)."""
    cands = {lam_min}
    for v in pool_values:
        if v >= lam_min:
            cands.add(v)
    return sorted(cands)


def gn2_lambda_candidates(taskset: TaskSet, task_k: Task) -> List[Real]:
    """Candidate λ values for Theorem 3's existential search.

    §5: only the minimum point ``λ = C_k/T_k`` and the discontinuities of
    ``β^λ_k`` need be considered: ``λ = C_i/T_i`` for all ``i`` and
    ``λ = C_i/D_i`` when ``D_i > T_i``.  Values below ``C_k/T_k`` are
    invalid (Lemma 5/6 need ``λ >= C_k/T_k``); extra candidates would be
    harmless (the theorem is existential) but are unnecessary.

    Candidates are returned sorted and deduplicated.  With exact-rational
    tasks, deduplication is exact.
    """
    pool: List[Real] = []
    for t in taskset:
        pool.extend(lambda_candidate_values(t))
    return gn2_lambda_candidates_from_values(pool, task_k.time_utilization)
