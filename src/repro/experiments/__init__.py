"""Experiment runners regenerating every table and figure of the paper.

* :mod:`repro.experiments.tables` — Tables 1-3 (accept/reject matrix and
  the §6 worked numbers);
* :mod:`repro.experiments.figures` — Figures 3(a,b) and 4(a,b)
  (acceptance ratio vs total system utilization, tests + simulation);
* :mod:`repro.experiments.ablations` — the ablation studies
  (integer vs real α, EDF-NF vs EDF-FkF, placement modes, offset search);
* :mod:`repro.experiments.acceptance` — the shared acceptance-ratio
  engine (vectorized tests and one batched simulator,
  :func:`repro.vector.sim_vec.simulate_batch`, for every sim curve);
* :mod:`repro.experiments.churn` — online admission under an
  arrival/departure stream, scored through :mod:`repro.incremental`;
* :mod:`repro.experiments.report` — text/CSV/markdown rendering;
* :mod:`repro.experiments.cli` — ``repro-experiments`` command line.
"""

from repro.experiments.acceptance import (
    AcceptanceCurves,
    AcceptanceSeries,
    acceptance_experiment,
    feasible_batch_at,
)
from repro.experiments.churn import churn_experiment
from repro.experiments.claims import check_figure
from repro.experiments.figures import FIGURES, FigureSpec, run_figure
from repro.experiments.tables import TABLE_TASKSETS, run_tables
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.witnesses import (
    acceptance_pattern,
    find_witness,
    incomparability_census,
)

__all__ = [
    "AcceptanceCurves",
    "AcceptanceSeries",
    "acceptance_experiment",
    "feasible_batch_at",
    "FIGURES",
    "FigureSpec",
    "run_figure",
    "TABLE_TASKSETS",
    "run_tables",
    "EXPERIMENTS",
    "get_experiment",
    "check_figure",
    "churn_experiment",
    "acceptance_pattern",
    "find_witness",
    "incomparability_census",
]
