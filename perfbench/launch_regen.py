"""Run ``scripts/regenerate_results.py`` with per-layer spans recorded
from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launch_regen.py TRACE.json [regenerate_results args...]

Loads the script as a module, wraps the public functions below, then
calls its ``main()``.  The span aggregates are written to ``TRACE.json``
when it returns:

* ``phase.<figure or ablation>`` — the script's ``run_figure`` and
  ``*_ablation`` calls; their self time is the experiment drivers' own;
* ``gen`` — ``feasible_batch_at``, ``binned_batch_at``, ``generate_batch``;
* ``analytic.{dp,gn1,gn2}`` — the vectorized tests behind ``TEST_FUNCS``;
* ``sim.{free,placed}`` — ``simulate_batch`` by migration mode, with the
  ``SimBatchResult`` counters;
* ``search`` — the ``repro.search.drivers`` pattern-search drivers;
* ``report`` — ``as_text``, ``as_csv`` and ``save_svg``.
"""

from __future__ import annotations

import importlib.util
import sys

from tracing import Tracer, clock, wrap_attr, wrap_function

SCRIPT = "scripts/regenerate_results.py"
ABLATIONS = ("alpha", "nf_vs_fkf", "placement", "offset", "sporadic")
SEARCH_DRIVERS = (
    "uniform_offset_search_batch",
    "adaptive_offset_search_batch",
    "uniform_sporadic_search_batch",
    "adaptive_sporadic_search_batch",
)


def install(tracer: Tracer, script) -> None:
    from repro.experiments import acceptance
    from repro.search import drivers
    from repro.sim.simulator import MigrationMode
    from repro.vector import batch, dp_vec, gn1_vec, gn2_vec, sim_vec

    counters = tracer.counters

    def on_rows(mask, start, end, rows, *args, **kwargs):
        counters["analytic.rows"] += len(rows)

    def on_sim(res, start, end, *args, **kwargs):
        counters["sim_vec.rows"] += res.count
        counters["sim_vec.events"] += int(res.events.sum())
        counters["sim_vec.kernel_passes"] += res.kernel_passes
        counters["sim_vec.event_steps"] += res.event_steps
        counters["sim_vec.budget_exceeded"] += int(res.budget_exceeded.sum())

    def sim_layer(*args, mode=MigrationMode.FREE, **kwargs) -> str:
        return "sim.free" if mode == MigrationMode.FREE else "sim.placed"

    wrap_attr(tracer, script, "run_figure", lambda figure_id, *a, **k: f"phase.{figure_id}")
    for name in ABLATIONS:
        wrap_attr(tracer, script, f"{name}_ablation", f"phase.{name}")
    for attr in ("as_text", "as_csv", "save_svg"):
        wrap_attr(tracer, script, attr, "report")

    wrap_function(tracer, acceptance, "feasible_batch_at", "gen")
    wrap_function(tracer, acceptance, "binned_batch_at", "gen")
    wrap_function(tracer, batch, "generate_batch", "gen")
    wrap_function(tracer, dp_vec, "dp_accepts", "analytic.dp", on_rows)
    wrap_function(tracer, gn1_vec, "gn1_accepts", "analytic.gn1", on_rows)
    wrap_function(tracer, gn2_vec, "gn2_accepts", "analytic.gn2", on_rows)
    wrap_function(tracer, sim_vec, "simulate_batch", sim_layer, on_sim)
    for attr in SEARCH_DRIVERS:
        wrap_function(tracer, drivers, attr, "search")


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    spec = importlib.util.spec_from_file_location("regenerate_results", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    tracer = Tracer()
    install(tracer, script)
    sys.argv = [SCRIPT, *argv]
    start = clock()
    try:
        script.main()
    finally:
        tracer.extra["main_s"] = clock() - start
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
