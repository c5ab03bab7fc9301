"""Figure 4(b): 10 spatially light, temporally heavy tasks.

Paper claim (checked via :mod:`repro.experiments.claims`): "for
temporally-heavy tasks, GN1 performs best while DP performs worst."
Reproduced with the binned (raw-draw) sampling the paper used — rescaled
sampling would wash the heaviness out (README, "Design notes" §4.8).
"""

from benchmarks.helpers import print_curves

from repro.experiments.claims import check_figure
from repro.experiments.figures import FIGURES, run_figure


def test_bench_fig4b(benchmark, scale):
    samples = 300 * scale
    benchmark.pedantic(
        lambda: run_figure("fig4b", samples=samples, sim_samples=0, seed=2007),
        rounds=1,
        iterations=1,
    )
    full = run_figure(
        "fig4b", samples=samples, sim_samples=max(30, 3 * scale), seed=2007
    )
    print_curves(full, FIGURES["fig4b"].title)
    assert check_figure("fig4b", full) == []

    # GN1 tracks simulation closely in the low-US regime
    assert full["GN1"].at(45.0) >= 0.95
