#!/usr/bin/env python
"""Regenerate results/ — the measured data quoted in EXPERIMENTS.md.

Usage:
    python scripts/regenerate_results.py            # default scale
    python scripts/regenerate_results.py --samples 10000 --workers 8

At --samples 10000 this matches the paper's group sizes (be patient).
Outputs:
    results/experiments_data.txt   all series as fixed-width tables
    results/<figure>.csv           one CSV per figure
    results/<figure>.svg           one SVG image per figure

Release-pattern search flags (the offset/sporadic ablations — the §6
"simulation is only an upper bound" refinement):

    --sim-search {uniform,adaptive}
        How each taskset's pattern budget is spent.  "uniform" (default)
        draws release patterns independently; "adaptive" runs the
        repro.search cross-entropy importance sampler: per-task proposal
        distributions over offsets (resp. inter-arrival gap factors),
        refit each round on the patterns that came closest to a deadline
        miss (the simulators' min-slack channel), with a uniform-mixture
        exploration floor.  Every adaptive sample is still a legal
        pattern and the searched verdict stays intersected with the
        synchronous/periodic baseline, so the curve remains a sound
        upper bound — adaptive just finds more counterexamples per
        simulated pattern.
    --search-rounds N
        Adaptive rounds the budget is split across (round 1 is pure
        uniform exploration; default 4).
    --elite-frac F
        Fraction of lowest-slack patterns refitting the proposals each
        round (default 0.25).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments.ablations import (
    alpha_ablation,
    nf_vs_fkf_ablation,
    offset_ablation,
    placement_ablation,
    sporadic_ablation,
)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.report import as_csv, as_text
from repro.experiments.svgplot import save_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=2000,
                        help="tasksets per bucket for the figures")
    parser.add_argument("--sim-samples", type=int, default=None,
                        help="simulated tasksets per bucket (default: the "
                             "full bucket on the vector backend, 150 on "
                             "the scalar one)")
    parser.add_argument("--sim-backend", choices=("vector", "scalar"),
                        default="vector", dest="sim_backend")
    parser.add_argument("--array-backend",
                        choices=("numpy", "torch"),
                        default=None, dest="array_backend",
                        help="array namespace for the vectorized kernels "
                             "(default: REPRO_ARRAY_BACKEND env var, then "
                             "numpy); torch is an optional install")
    parser.add_argument("--ci-target", type=float, default=None,
                        dest="ci_target",
                        help="adaptive bucket sizing: per-bucket draws stop "
                             "once every series' 95%% CI half-width falls "
                             "below this (capped at --samples)")
    parser.add_argument("--sim-search", choices=("uniform", "adaptive"),
                        default="uniform", dest="sim_search",
                        help="release-pattern search for the offset/"
                             "sporadic ablations (see module docstring)")
    parser.add_argument("--search-rounds", type=int, default=4,
                        dest="search_rounds", metavar="N",
                        help="adaptive-search rounds per pattern budget")
    parser.add_argument("--elite-frac", type=float, default=0.25,
                        dest="elite_frac", metavar="FRAC",
                        help="fraction of lowest-slack patterns refitting "
                             "the adaptive proposals each round")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--sim-workers", type=int, default=None,
                        dest="sim_workers", metavar="W",
                        help="shard each vector-sim batch over W processes "
                             "(bit-identical verdicts; unset consults "
                             "REPRO_SIM_WORKERS, then 1)")
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args()

    if args.array_backend is not None:
        # Process-wide so the analytical curves follow the selection too.
        from repro.vector import xp as array_xp

        array_xp.set_backend(args.array_backend)

    args.out.mkdir(parents=True, exist_ok=True)
    blocks = []

    sim_samples = args.sim_samples
    if sim_samples is None and args.sim_backend == "scalar":
        sim_samples = 150
    for fid in sorted(FIGURES):
        print(f"running {fid} ...", flush=True)
        curves = run_figure(
            fid,
            samples=args.samples,
            sim_samples=sim_samples,
            sim_backend=args.sim_backend,
            sim_array_backend=args.array_backend,
            seed=args.seed,
            workers=args.workers,
            sim_workers=args.sim_workers,
            ci_target=args.ci_target,
        )
        blocks.append(as_text(curves))
        (args.out / f"{fid}.csv").write_text(as_csv(curves))
        save_svg(curves, args.out / f"{fid}.svg")

    print("running ablations ...", flush=True)
    blocks.append(as_text(alpha_ablation(samples=2 * args.samples, seed=31,
                                         ci_target=args.ci_target)))
    blocks.append(as_text(nf_vs_fkf_ablation(samples=80, seed=37,
                                             workers=args.workers,
                                             ci_target=args.ci_target)))
    # Placement curves run on the vectorized array free-list, so full
    # paper-scale buckets are affordable (the scalar path capped this
    # at ~50 sets per bucket).
    blocks.append(as_text(placement_ablation(samples=max(50, args.samples // 4),
                                             seed=41,
                                             sim_backend=args.sim_backend,
                                             array_backend=args.array_backend)))
    # The release-pattern searches fan their pattern axis into the batch
    # dimension, so full buckets are affordable here too (the scalar
    # path capped these at ~50 sets per bucket).
    blocks.append(as_text(offset_ablation(samples=max(50, args.samples // 10),
                                          seed=43,
                                          sim_backend=args.sim_backend,
                                          array_backend=args.array_backend,
                                          search=args.sim_search,
                                          search_rounds=args.search_rounds,
                                          elite_frac=args.elite_frac)))
    blocks.append(as_text(sporadic_ablation(samples=max(50, args.samples // 10),
                                            seed=47,
                                            sim_backend=args.sim_backend,
                                            array_backend=args.array_backend,
                                            search=args.sim_search,
                                            search_rounds=args.search_rounds,
                                            elite_frac=args.elite_frac)))

    data = "\n\n".join(blocks)
    (args.out / "experiments_data.txt").write_text(data)
    print(f"wrote {args.out}/experiments_data.txt and per-figure CSV/SVG")


if __name__ == "__main__":
    main()
