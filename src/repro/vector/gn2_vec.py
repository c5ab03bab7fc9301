"""Vectorized GN2 (Theorem 3) over a :class:`TaskSetBatch`.

The λ search is materialized as a 4-D tensor ``(B, N_k, L, N_i)`` with
``L = 2N`` candidates (all task utilizations + all densities, masked to
the valid ones).  That is ``2 N^3`` floats per taskset, so batches are
processed in chunks to bound peak memory (``chunk`` parameter).

Inputs are pinned to float64 at the boundary; verdicts return as numpy
bools.
"""

from __future__ import annotations

from repro.vector.batch import TaskSetBatch, sequential_sum
from repro.vector.dp_vec import _pinned, necessary_mask
from repro.vector.xp import host as np


def _gn2_chunk(
    batch: TaskSetBatch,
    capacity: int,
    strict_condition2: bool,
) -> "np.ndarray":
    c, t, d, a = _pinned(batch)
    util = c / t  # (B, N)
    dens = c / d  # (B, N)

    # Candidate λ values: all utilizations, plus densities where D > T.
    lam = np.concatenate([util, dens], axis=1)  # (B, L)
    dens_valid = (d > t)  # (B, N)
    lam_valid = np.concatenate(
        [np.ones_like(util, dtype=np.bool_), dens_valid], axis=1
    )

    lam4 = lam[:, None, :, None]  # (B, 1, L, 1)
    u_i = util[:, None, None, :]  # (B, 1, 1, N)
    dens_i = dens[:, None, None, :]
    c_i = c[:, None, None, :]
    d_i = d[:, None, None, :]
    a_i = a[:, None, None, :]
    d_k = d[:, :, None, None]  # (B, N, 1, 1)

    # Lemma 7 β cases (corrected case 2 = u_i; see README, "Design notes" §4.3).
    case1 = np.maximum(u_i, u_i * (1.0 - d_i / d_k) + c_i / d_k)
    case3 = u_i + (c_i - lam4 * d_i) / d_k
    beta = np.where(
        u_i <= lam4, case1, np.where(lam4 >= dens_i, u_i, case3)
    )  # (B, N, L, N)

    t_over_d = t / d  # (B, N)
    lam_scale = np.maximum(t_over_d, 1.0)[:, :, None]  # (B, N, 1)
    lam_k = lam[:, None, :] * lam_scale  # (B, N, L)
    one_minus = 1.0 - lam_k

    lhs1 = sequential_sum(
        a_i * np.minimum(beta, one_minus[:, :, :, None]), axis=3
    )  # (B, N, L)
    lhs2 = sequential_sum(a_i * np.minimum(beta, 1.0), axis=3)

    abnd = (capacity - np.max(a, axis=1) + 1.0)[:, None, None]  # (B, 1, 1)
    amin = np.min(a, axis=1)[:, None, None]
    cond1 = lhs1 < abnd * one_minus
    rhs2 = (abnd - amin) * one_minus + amin
    cond2 = (lhs2 < rhs2) if strict_condition2 else (lhs2 <= rhs2)

    # λ must be a declared candidate, >= C_k/T_k, and keep λ_k < 1.
    valid = (
        lam_valid[:, None, :]
        & (lam[:, None, :] >= util[:, :, None])
        & (one_minus > 0)
    )  # (B, N, L)
    witnessed = np.any((cond1 | cond2) & valid, axis=2)  # (B, N)
    return np.all(witnessed, axis=1)


def gn2_accepts(
    batch: TaskSetBatch,
    capacity: int,
    *,
    strict_condition2: bool = True,
    chunk: int = 64,
) -> "np.ndarray":
    """Per-set GN2 verdicts, shape ``(B,)`` bool (chunked evaluation)."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    parts = []
    for start in range(0, batch.count, chunk):
        sl = slice(start, min(start + chunk, batch.count))
        parts.append(_gn2_chunk(batch.rows(sl), capacity, strict_condition2))
    return np.concatenate(parts) & necessary_mask(batch, capacity)
