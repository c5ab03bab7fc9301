"""Vectorized batch evaluation of the schedulability tests and simulator.

The paper's figures need >= 10,000 tasksets per curve; evaluating the
scalar tests one taskset at a time is needlessly slow in Python.  This
package holds struct-of-arrays batches (:class:`TaskSetBatch`),
vectorized implementations of DP, GN1 and GN2 that process whole
batches at once (GN2 in bounded-memory chunks), and a batched
event-synchronized EDF simulator (:func:`simulate_batch`) covering every
migration mode of the scalar simulator: the paper's FREE mode (pure
capacity check) *and* the §7 placement-aware RELOCATABLE/PINNED modes,
which run on an array-encoded free-list — per-row 64-bit column bitmaps
(:class:`BatchFreeList`) with vectorized first/best/worst-fit hole
kernels sharing one interval representation with the scalar path
(:mod:`repro.fpga.intervals`).  Non-synchronous release patterns run
batched too: per-row release ``offsets`` and sporadic (jittered
inter-arrival) schedules, bit-identical to the scalar
``simulate(offsets=...)`` / ``simulate_release_schedule`` — so the
acceptance engine's ``sim:`` curves, the placement ablation *and* the
offset/sporadic pattern searches all run over full buckets instead of a
subsample (patterns fanned into the batch axis).

Array backends
--------------

No kernel in this package imports numpy directly: every one computes
through the pluggable namespace of :mod:`repro.vector.xp`, which
resolves to **numpy** (the eager default, always installed) or
**torch** on CPU tensors — the latter lazily, behind an optional import
that is never required at import time (requesting it uninstalled raises
:class:`repro.vector.xp.BackendUnavailable`).  Selection precedence:

1. explicit kwarg (``simulate_batch(..., array_backend="torch")``,
   ``dp_accepts(..., backend=...)``, the engine's ``sim_array_backend``);
2. process-wide override (:func:`repro.vector.xp.set_backend` — the CLI
   ``--array-backend`` flag installs this);
3. the ``REPRO_ARRAY_BACKEND`` environment variable;
4. ``numpy``.

Parity guarantee: with the numpy backend the kernels perform exactly
the operations they performed before the backends existed, so verdicts
stay **bit-identical** to the scalar references; torch runs the same
float64 operand order and holds the same contract (exercised in CI
when torch is installed).  Always numpy regardless of backend: the
seeded samplers (:func:`sample_offsets_batch`,
:func:`sample_release_times_batch` — their draw order is pinned to the
scalar reference), batch generation (:func:`generate_batch`),
validation, and every returned verdict array.

The scalar implementations in :mod:`repro.core` and
:mod:`repro.sim.simulator` remain the reference — the test-suite
cross-validates every vectorized verdict against them, bit-for-bit.
"""

from repro.vector import xp
from repro.vector.batch import TaskSetBatch, generate_batch
from repro.vector.dp_vec import dp_accepts
from repro.vector.gn1_vec import gn1_accepts
from repro.vector.gn2_vec import gn2_accepts
from repro.vector.placement_vec import BatchFreeList, choose_batch
from repro.vector.sim_vec import (
    SimBatchResult,
    default_horizon_batch,
    sample_offsets_batch,
    sample_release_times_batch,
    simulate_batch,
)

__all__ = [
    "xp",
    "TaskSetBatch",
    "generate_batch",
    "dp_accepts",
    "gn1_accepts",
    "gn2_accepts",
    "BatchFreeList",
    "choose_batch",
    "SimBatchResult",
    "default_horizon_batch",
    "sample_offsets_batch",
    "sample_release_times_batch",
    "simulate_batch",
]
