"""Vectorized DP (Theorem 1) over a :class:`TaskSetBatch`.

The kernel pins every input to float64 at the batch boundary (float32
inputs would silently change knife-edge verdicts) and returns numpy
verdict masks.
"""

from __future__ import annotations

from typing import Tuple

from repro.vector.batch import TaskSetBatch, sequential_sum
from repro.vector.xp import host as np


def _pinned(batch: TaskSetBatch) -> Tuple:
    """The batch's arrays pinned to float64 (exact upcast)."""
    return (
        np.asarray(batch.wcet, dtype=np.float64),
        np.asarray(batch.period, dtype=np.float64),
        np.asarray(batch.deadline, dtype=np.float64),
        np.asarray(batch.area, dtype=np.float64),
    )


def necessary_mask(batch: TaskSetBatch, capacity: int) -> "np.ndarray":
    """Vectorized :func:`repro.core.interfaces.necessary_conditions`."""
    wcet, period, deadline, area = _pinned(batch)
    per_task = (area <= capacity) & (wcet <= deadline) & (wcet <= period)
    us_total = sequential_sum(wcet * area / period, axis=1)
    ok = np.all(per_task, axis=1) & (us_total <= capacity)
    return ok


def dp_accepts(
    batch: TaskSetBatch,
    capacity: int,
    *,
    integer_areas: bool = True,
) -> "np.ndarray":
    """Per-set DP verdicts, shape ``(B,)`` bool.

    ``integer_areas=False`` evaluates Danne & Platzner's original
    real-area bound (``Abnd = A(H) - Amax``) for the α ablation.
    """
    wcet, period, _, area = _pinned(batch)
    us_total = sequential_sum(wcet * area / period, axis=1)  # (B,)
    ut = wcet / period  # (B, N)
    us_i = ut * area  # (B, N)
    abnd = capacity - np.max(area, axis=1) + (1 if integer_areas else 0)  # (B,)
    rhs = abnd[:, None] * (1.0 - ut) + us_i  # (B, N)
    ok = np.all(us_total[:, None] <= rhs, axis=1)
    return ok & necessary_mask(batch, capacity)
