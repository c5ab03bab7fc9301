"""``repro-experiments`` — regenerate the paper's tables and figures.

Examples::

    repro-experiments list
    repro-experiments tables
    repro-experiments run fig3a --samples 10000 --sim-workers 2 --format csv
    repro-experiments run ablation-alpha --out results/alpha.csv
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import render, sparkline
from repro.experiments.tables import render_tables, run_tables

#: The ``run`` flags that become runner knobs, by runner keyword.  Each
#: defaults to ``None`` (not given) and reaches the runner only when
#: given, so the runner's own default applies otherwise and a flag the
#: chosen experiment does not take is an error instead of a no-op.
RUN_KNOBS = {
    "sim_workers": "--sim-workers",
    "sim_mode": "--sim-mode",
    "sim_policy": "--sim-policy",
    "sim_release": "--sim-release",
    "sim_jitter": "--sim-jitter",
    "sim_search": "--sim-search",
    "sim_search_rounds": "--search-rounds",
    "sim_elite_frac": "--elite-frac",
    "ci_target": "--ci-target",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce Guan et al. IPDPS'07 tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    tables = sub.add_parser("tables", help="evaluate Tables 1-3")
    tables.add_argument("--width", type=int, default=10, help="device columns")

    run = sub.add_parser("run", help="run a figure or ablation experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), metavar="experiment")
    run.add_argument("--samples", type=int, default=None,
                     help="tasksets per utilization bucket (default: per-experiment)")
    run.add_argument("--seed", type=int, default=2007)
    run.add_argument("--sim-workers", type=int, default=None,
                     dest="sim_workers", metavar="W",
                     help="spread each figure's simulator calls over W "
                          "processes (default 1; verdicts bit-identical "
                          "to serial)")
    run.add_argument("--sim-mode", choices=("free", "relocatable", "pinned"),
                     default=None, dest="sim_mode",
                     help="migration model for the figure-style sim curves: "
                          "'free' (the default) is the paper's unrestricted "
                          "migration; 'relocatable'/'pinned' are the §7 "
                          "placement-aware modes (contiguous columns "
                          "required)")
    run.add_argument("--sim-policy",
                     choices=("first-fit", "best-fit", "worst-fit"),
                     default=None, dest="sim_policy",
                     help="hole-selection policy for placement-aware "
                          "--sim-mode runs (default: first-fit)")
    run.add_argument("--sim-release", choices=("periodic", "sporadic"),
                     default=None, dest="sim_release",
                     help="release pattern for the figure-style sim curves: "
                          "'periodic' (the default) is the paper's "
                          "synchronous pattern, "
                          "'sporadic' draws one jittered schedule per "
                          "taskset")
    run.add_argument("--sim-jitter", type=float, default=None,
                     dest="sim_jitter", metavar="FACTOR",
                     help="max inter-arrival jitter for --sim-release "
                          "sporadic and the sporadic ablation: gaps are "
                          "T * (1 + U(0, FACTOR)) (default: 0.5)")
    run.add_argument("--sim-search", choices=("uniform", "adaptive"),
                     default=None, dest="sim_search",
                     help="release-pattern search for the offset/sporadic "
                          "ablations: 'uniform' (the default) draws patterns "
                          "independently; 'adaptive' spends the same "
                          "per-taskset budget through the repro.search "
                          "cross-entropy importance sampler (proposals "
                          "refit on the lowest-slack patterns each round "
                          "— more counterexamples per pattern, verdicts "
                          "still intersected with the synchronous "
                          "baseline)")
    run.add_argument("--search-rounds", type=int, default=None,
                     dest="sim_search_rounds", metavar="N",
                     help="adaptive-search rounds the pattern budget is "
                          "split across (round 1 explores uniformly; "
                          "default: 4)")
    run.add_argument("--elite-frac", type=float, default=None,
                     dest="sim_elite_frac", metavar="FRAC",
                     help="fraction of lowest-slack patterns that refit "
                          "the adaptive-search proposals each round "
                          "(default: 0.25)")
    run.add_argument("--ci-target", type=float, default=None, dest="ci_target",
                     metavar="HALF_WIDTH",
                     help="adaptive bucket sizing: draw per-bucket samples "
                          "until every series' 95%% CI half-width is below "
                          "this (capped at --samples); applies to the "
                          "acceptance-engine experiments")
    run.add_argument("--format", choices=("text", "csv", "markdown"), default="text")
    run.add_argument("--out", type=Path, default=None, help="write to file")
    run.add_argument("--plot", action="store_true",
                     help="append unicode sparklines per series")
    run.add_argument("--svg", type=Path, default=None,
                     help="additionally write the figure as an SVG image")

    census = sub.add_parser(
        "census",
        help="acceptance-pattern census: how often each DP/GN1/GN2 "
             "combination accepts (generalizes Tables 1-3)",
    )
    census.add_argument("--samples", type=int, default=5000)
    census.add_argument("--seed", type=int, default=2007)
    census.add_argument("--width", type=int, default=10, help="device columns")

    explain = sub.add_parser(
        "explain", help="show the §6-style bound derivations for a taskset"
    )
    explain.add_argument("taskset", type=Path, help="taskset JSON file")
    explain.add_argument("--width", type=int, default=100, help="device columns")

    simulate = sub.add_parser(
        "simulate", help="simulate a taskset JSON file and show the schedule"
    )
    simulate.add_argument("taskset", type=Path, help="taskset JSON file")
    simulate.add_argument("--width", type=int, default=100, help="device columns")
    simulate.add_argument("--scheduler", choices=("nf", "fkf"), default="nf")
    simulate.add_argument("--horizon", type=float, default=None,
                          help="simulation horizon (default: D_max + 20 T_max)")
    simulate.add_argument("--gantt", action="store_true",
                          help="render an ASCII occupancy chart")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for eid, exp in sorted(EXPERIMENTS.items()):
            print(f"{eid:20} {exp.description} (default samples: {exp.default_samples})")
        return 0

    if args.command == "tables":
        outcomes = run_tables(device_width=args.width)
        print(render_tables(outcomes))
        return 0 if all(o.matches_paper for o in outcomes.values()) else 1

    if args.command == "census":
        from repro.experiments.witnesses import incomparability_census
        from repro.fpga.device import Fpga
        from repro.util.rngutil import rng_from_seed

        census = incomparability_census(
            args.samples,
            rng_from_seed(args.seed),
            fpga=Fpga(width=args.width),
        )
        print(census.render())
        return 0

    if args.command == "explain":
        from repro.core.explain import explain as explain_taskset
        from repro.fpga.device import Fpga
        from repro.model.io import load_taskset

        taskset = load_taskset(args.taskset)
        print(explain_taskset(taskset, Fpga(width=args.width)))
        return 0

    if args.command == "simulate":
        from repro.fpga.device import Fpga
        from repro.model.io import load_taskset
        from repro.sched.edf_fkf import EdfFkf
        from repro.sched.edf_nf import EdfNf
        from repro.sim.gantt import render_gantt
        from repro.sim.simulator import default_horizon, simulate as run_sim

        taskset = load_taskset(args.taskset)
        fpga = Fpga(width=args.width)
        scheduler = EdfNf() if args.scheduler == "nf" else EdfFkf()
        horizon = (
            args.horizon if args.horizon is not None else default_horizon(taskset)
        )
        result = run_sim(
            taskset, fpga, scheduler, horizon, record_trace=args.gantt
        )
        print(f"scheduler: {scheduler.name}, horizon: {float(horizon):g}")
        if result.schedulable:
            print("no deadline misses")
        else:
            m = result.misses[0]
            print(f"MISS: {m.task}#{m.job_index} at t={float(m.deadline):g} "
                  f"(remaining {float(m.remaining):g})")
        met = result.metrics
        print(f"released {met.jobs_released}, completed {met.jobs_completed}, "
              f"preemptions {met.preemptions}, "
              f"avg occupancy {met.average_occupancy(fpga.capacity):.1%}")
        for name, resp in sorted(met.worst_response.items()):
            print(f"  worst response {name}: {float(resp):g}")
        if args.gantt and result.trace is not None:
            print()
            print(render_gantt(result.trace))
        return 0 if result.schedulable else 1

    from repro.fpga.placement import PlacementPolicy
    from repro.sim.simulator import MigrationMode

    exp = get_experiment(args.experiment)
    knobs = {k: getattr(args, k) for k in RUN_KNOBS if getattr(args, k) is not None}
    taken = inspect.signature(exp.runner).parameters
    unknown = [RUN_KNOBS[k] for k in knobs if k not in taken]
    if unknown:
        parser.error(f"experiment {args.experiment!r} does not take "
                     f"{', '.join(unknown)}")
    if knobs.get("sim_workers", 1) < 1:
        parser.error(f"--sim-workers must be >= 1, got {knobs['sim_workers']}")
    if "sim_mode" in knobs:
        knobs["sim_mode"] = MigrationMode(knobs["sim_mode"])
    if "sim_policy" in knobs:
        knobs["sim_policy"] = PlacementPolicy(knobs["sim_policy"])
    samples = args.samples if args.samples is not None else exp.default_samples
    curves = exp.runner(samples, args.seed, **knobs)
    output = render(curves, args.format)
    if args.plot:
        lines = [output, ""]
        for label in curves.labels:
            lines.append(sparkline(curves, label))
        output = "\n".join(lines)
    if args.svg is not None:
        from repro.experiments.svgplot import save_svg

        save_svg(curves, args.svg)
        print(f"wrote {args.svg}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(output)
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
