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

Array namespace
---------------

Everything computes on numpy.  No kernel in this package imports numpy
directly: each takes it from :mod:`repro.vector.xp`, the one module that
names the array library, which also holds the placement bitmap helpers.
Inputs are pinned to float64 at each batch boundary and the kernels
perform the same float operations in the same order as the scalar
references, so verdicts are **bit-identical** to them.  The seeded samplers
(:func:`sample_offsets_batch`, :func:`sample_release_times_batch`) and
batch generation (:func:`generate_batch`) draw in the scalar
reference's order.

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
