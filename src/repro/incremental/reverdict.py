"""Vectorized portfolio-member verdicts for candidate tasksets.

Contract: the vector kernels compute in float64 (task parameters are
cast on packing), so verdict parity with the scalar analyzers holds on
the same terms as the acceptance engine's vector path — exact for
float-representable parameters, verdict-level for exact rationals whose
knife edges fall below float resolution.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.model.task import TaskSet
from repro.vector.batch import TaskSetBatch
from repro.vector.dp_vec import dp_accepts
from repro.vector.gn1_vec import gn1_accepts
from repro.vector.gn2_vec import gn2_accepts
from repro.vector.xp import host as hnp

#: The member tests accept_masks can answer.
TESTS = ("DP", "GN1", "GN2")


def accept_masks(
    tasksets: Sequence[TaskSet],
    capacity: int,
    *,
    tests: Sequence[str] = ("DP", "GN1", "GN2"),
) -> Dict[str, "hnp.ndarray"]:
    """One vectorized kernel call per member test over same-length
    ``tasksets`` against a ``capacity``-column device.

    The admission service no longer calls it (it checks through
    :class:`~repro.incremental.state.AdmissionState`); it stays
    importable because external tracers wrap it by name.  Returns
    ``{test: (B,) bool host mask}`` for exactly the requested ``tests``.
    """
    unknown = [t for t in tests if t not in TESTS]
    if unknown:
        raise ValueError(f"unknown tests: {unknown!r} (choose from {TESTS})")
    batch = TaskSetBatch.from_tasksets(tasksets)
    masks: Dict[str, "hnp.ndarray"] = {}
    if "DP" in tests:
        masks["DP"] = dp_accepts(batch, capacity)
    if "GN1" in tests:
        masks["GN1"] = gn1_accepts(batch, capacity)
    if "GN2" in tests:
        masks["GN2"] = gn2_accepts(batch, capacity)
    return masks
