"""Incremental schedulability analysis under taskset churn.

At service scale the workload is "admitted taskset ± 1 task", not fresh
tasksets: an admission controller answers the same DP/GN1/GN2 questions
over and over against a resident set that changes by one task at a time.
Recomputing each test from scratch redoes the O(N²) (GN1) / O(N³) (GN2)
interference sums on every decision; this package keeps them cached.

* :class:`~repro.incremental.state.AdmissionState` — one stateful
  analyzer bundle per (taskset, device): ``add`` / ``remove`` /
  ``update`` churn operations invalidate only the touched slices of each
  test's cache (``O(changed task · N)`` recomputed pair terms instead of
  ``O(N²)``/``O(N³)`` from scratch), while every verdict stays
  **bit-identical** to running the scalar tests on the equivalent
  :class:`~repro.model.task.TaskSet` — asserted at every step by the
  churn-parity suite, not assumed.  Its ``admit`` / ``trial`` are the
  admission service's exact check.
* :class:`~repro.incremental.state.Delta` — one churn operation, as
  :meth:`~repro.incremental.state.AdmissionState.apply` takes it.
* :func:`~repro.incremental.reverdict.accept_masks` — member verdicts of
  candidate tasksets on the :mod:`repro.vector` kernels; no longer on
  the service's path, kept importable for external tracers.

The delta-certificate fast path ("still schedulable after this Δ"
without any rerun) lives in :class:`repro.core.sensitivity.DeltaCertifier`.
"""

from repro.incremental.analyzers import DpAnalyzer, Gn1Analyzer, Gn2Analyzer
from repro.incremental.state import AdmissionState, Delta

__all__ = [
    "AdmissionState",
    "Delta",
    "DpAnalyzer",
    "Gn1Analyzer",
    "Gn2Analyzer",
]
