"""Discrete-event simulation of EDF scheduling on a 1D PRTR FPGA.

The paper uses simulation (all tasks released at time 0) as a coarse
*upper bound* on schedulability — exact schedulability would require
exhausting all release offsets (§6).  This package provides:

* :func:`simulate` — event-driven simulation under EDF-FkF / EDF-NF (or
  any :class:`~repro.sched.base.Scheduler`), in the paper's
  free-migration model or in placement-constrained modes (§7 extensions);
* :class:`Trace` — execution segments with checkers for the Lemma 1/2
  α-occupancy invariants;
* :mod:`repro.sim.offsets` / :mod:`repro.sim.sporadic` — release-offset
  and jittered inter-arrival searches that tighten the simulation upper
  bound, uniform (``simulate_with_offsets`` / ``simulate_sporadic``)
  and importance-sampled (``adaptive_offset_search`` /
  ``adaptive_sporadic_search``, the scalar twins of the
  :mod:`repro.search` batched drivers).  The offset searches extend
  each pattern's window by its largest offset so shifted tasks never
  see fewer simulated jobs than the synchronous run; the batched twins
  live in :mod:`repro.vector.sim_vec`.
"""

from repro.sim.simulator import (
    MigrationMode,
    SimulationResult,
    DeadlineMiss,
    default_horizon,
    simulate,
)
from repro.sim.metrics import SimMetrics
from repro.sim.trace import Trace, TraceSegment
from repro.sim.offsets import (
    adaptive_offset_search,
    sample_offsets,
    simulate_with_offsets,
)
from repro.sim.reference import ReferenceResult, simulate_reference
from repro.sim.hyperperiod import SynchronousVerdict, decide_synchronous
from repro.sim.gantt import render_gantt
from repro.sim.workload_measure import (
    WindowMeasurement,
    measure_workload_bounds,
    tightness_summary,
)
from repro.sim.sporadic import (
    adaptive_sporadic_search,
    sample_release_schedule,
    simulate_release_schedule,
    simulate_sporadic,
)

__all__ = [
    "MigrationMode",
    "SimulationResult",
    "DeadlineMiss",
    "default_horizon",
    "simulate",
    "SimMetrics",
    "Trace",
    "TraceSegment",
    "adaptive_offset_search",
    "sample_offsets",
    "simulate_with_offsets",
    "ReferenceResult",
    "simulate_reference",
    "SynchronousVerdict",
    "decide_synchronous",
    "render_gantt",
    "WindowMeasurement",
    "measure_workload_bounds",
    "tightness_summary",
    "adaptive_sporadic_search",
    "sample_release_schedule",
    "simulate_release_schedule",
    "simulate_sporadic",
]
