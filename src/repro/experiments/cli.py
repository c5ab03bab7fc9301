"""``repro-experiments`` — regenerate the paper's tables and figures.

Examples::

    repro-experiments list
    repro-experiments tables
    repro-experiments run fig3a --samples 10000 --workers 8 --format csv
    repro-experiments run ablation-alpha --out results/alpha.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.report import render, sparkline
from repro.experiments.tables import render_tables, run_tables


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
    run.add_argument("--workers", type=int, default=1,
                     help="process pool size for scalar-backend simulations")
    run.add_argument("--sim-workers", type=int, default=None,
                     dest="sim_workers", metavar="W",
                     help="shard each vector-sim batch over W processes "
                          "(verdicts bit-identical to serial). Unset, the "
                          "REPRO_SIM_WORKERS environment variable is "
                          "consulted, then 1")
    run.add_argument("--sim-backend", choices=("vector", "scalar"),
                     default="vector", dest="sim_backend",
                     help="simulation backend: 'vector' runs the batched "
                          "simulator (all migration modes) over full "
                          "buckets, 'scalar' the per-taskset event loop "
                          "on a subsample")
    run.add_argument("--array-backend",
                     choices=("numpy", "torch"),
                     default=None, dest="array_backend",
                     help="array namespace for the vectorized kernels "
                          "(repro.vector.xp): numpy is the default; torch "
                          "is an optional install resolved lazily. "
                          "Unset, the REPRO_ARRAY_BACKEND environment "
                          "variable is consulted, then numpy")
    run.add_argument("--sim-mode", choices=("free", "relocatable", "pinned"),
                     default="free", dest="sim_mode",
                     help="migration model for the figure-style sim curves: "
                          "'free' is the paper's unrestricted migration; "
                          "'relocatable'/'pinned' are the §7 placement-aware "
                          "modes (contiguous columns required)")
    run.add_argument("--sim-policy",
                     choices=("first-fit", "best-fit", "worst-fit"),
                     default="first-fit", dest="sim_policy",
                     help="hole-selection policy for placement-aware "
                          "--sim-mode runs")
    run.add_argument("--sim-release", choices=("periodic", "sporadic"),
                     default="periodic", dest="sim_release",
                     help="release pattern for the figure-style sim curves: "
                          "'periodic' is the paper's synchronous pattern, "
                          "'sporadic' draws one jittered schedule per "
                          "taskset (vector backend only)")
    run.add_argument("--sim-jitter", type=float, default=0.5,
                     dest="sim_jitter", metavar="FACTOR",
                     help="max inter-arrival jitter for --sim-release "
                          "sporadic: gaps are T * (1 + U(0, FACTOR))")
    run.add_argument("--sim-search", choices=("uniform", "adaptive"),
                     default="uniform", dest="sim_search",
                     help="release-pattern search for the offset/sporadic "
                          "ablations: 'uniform' draws patterns "
                          "independently; 'adaptive' spends the same "
                          "per-taskset budget through the repro.search "
                          "cross-entropy importance sampler (proposals "
                          "refit on the lowest-slack patterns each round "
                          "— more counterexamples per pattern, verdicts "
                          "still intersected with the synchronous "
                          "baseline)")
    run.add_argument("--search-rounds", type=int, default=4,
                     dest="search_rounds", metavar="N",
                     help="adaptive-search rounds the pattern budget is "
                          "split across (round 1 explores uniformly)")
    run.add_argument("--elite-frac", type=float, default=0.25,
                     dest="elite_frac", metavar="FRAC",
                     help="fraction of lowest-slack patterns that refit "
                          "the adaptive-search proposals each round")
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
    args = build_parser().parse_args(argv)

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

    if args.array_backend is not None:
        # Process-wide so the analytical kernels (DP/GN1/GN2 curves)
        # follow the selection too; the explicit sim_array_backend kwarg
        # below covers the simulator even without the override.
        from repro.vector import xp as array_xp

        array_xp.set_backend(args.array_backend)
    exp = get_experiment(args.experiment)
    samples = args.samples if args.samples is not None else exp.default_samples
    curves = exp.runner(samples, args.seed, args.workers,
                        sim_backend=args.sim_backend,
                        sim_array_backend=args.array_backend,
                        ci_target=args.ci_target,
                        sim_mode=MigrationMode(args.sim_mode),
                        sim_policy=PlacementPolicy(args.sim_policy),
                        sim_release=args.sim_release,
                        sim_jitter=args.sim_jitter,
                        sim_workers=args.sim_workers,
                        sim_search=args.sim_search,
                        sim_search_rounds=args.search_rounds,
                        sim_elite_frac=args.elite_frac)
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
