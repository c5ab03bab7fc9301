"""Vectorized GN1 (Theorem 2) over a :class:`TaskSetBatch`.

Pairwise quantities are materialized as ``(B, N, N)`` arrays with axis 1
indexing the analyzed task ``k`` and axis 2 the interfering task ``i`` —
about 800 kB per array at B=1000, N=10, well inside cache-friendly
territory; larger batches should be chunked by the caller (the acceptance
engine does).

Inputs are pinned to float64 at the boundary; verdicts return as numpy
bools.
"""

from __future__ import annotations

from repro.util.mathutil import TIME_EPS
from repro.vector.batch import TaskSetBatch, sequential_sum
from repro.vector.dp_vec import _pinned, necessary_mask
from repro.vector.xp import host as np


def _robust_floor(q):
    """Vectorized :func:`repro.util.mathutil.float_floor_div` semantics:
    values within TIME_EPS *below* an integer floor to that integer."""
    fq = np.floor(q)
    bump = (fq + 1.0 - q) <= TIME_EPS
    return np.where(bump, fq + 1.0, fq)


def gn1_accepts(
    batch: TaskSetBatch,
    capacity: int,
    *,
    plus_one_bound: bool = True,
    window_denominator: bool = False,
) -> "np.ndarray":
    """Per-set GN1 verdicts, shape ``(B,)`` bool.

    Flags mirror :class:`repro.core.gn1.Gn1Variant`: the default
    (``plus_one_bound=True, window_denominator=False``) is the PAPER
    variant; ``plus_one_bound=False`` is THEOREM_LITERAL;
    ``window_denominator=True`` is BCL_WINDOW.
    """
    c, t, d, a = _pinned(batch)

    d_k = d[:, :, None]  # window of task k     (B, N, 1)
    c_i = c[:, None, :]  # interferer params    (B, 1, N)
    t_i = t[:, None, :]
    d_i = d[:, None, :]
    a_i = a[:, None, :]

    n_i = np.maximum(_robust_floor((d_k - d_i) / t_i) + 1.0, 0.0)  # (B, N, N)
    carry = np.minimum(c_i, np.maximum(d_k - n_i * t_i, 0.0))
    workload = n_i * c_i + carry
    beta = workload / (d_k if window_denominator else d_i)

    slack_rate = 1.0 - c / d  # (B, N) — 1 - C_k/D_k
    contrib = a_i * np.minimum(beta, slack_rate[:, :, None])  # (B, N, N)
    # Exclude i == k by zeroing the diagonal BEFORE summing: subtracting
    # it afterwards would break bit-exactness with the scalar reference at
    # boundary cases ((a+b)-a != b in floats).
    idx = np.arange(contrib.shape[1])
    contrib[:, idx, idx] = 0.0
    lhs = sequential_sum(contrib, axis=2)

    bound = capacity - a + (1.0 if plus_one_bound else 0.0)  # (B, N)
    rhs = bound * slack_rate
    ok = np.all(lhs < rhs, axis=1)
    return ok & necessary_mask(batch, capacity)
