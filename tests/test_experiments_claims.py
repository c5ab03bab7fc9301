"""Tests for the figure-claim checkers in :mod:`repro.experiments.claims`."""

import pytest

from repro.experiments.acceptance import AcceptanceCurves, AcceptanceSeries
from repro.experiments.claims import check_figure


def _curves(**ratios_by_label):
    buckets = tuple(float(x) for x in range(10, 10 + 10 * len(next(iter(ratios_by_label.values()))), 10))
    series = tuple(
        AcceptanceSeries(label, buckets, tuple(vals))
        for label, vals in ratios_by_label.items()
    )
    return AcceptanceCurves(
        name="synthetic", capacity=100, samples_per_point=100,
        sim_samples_per_point=100, series=series,
    )


class TestClaimCheckers:
    def test_fig3a_passes_on_conforming_shape(self):
        curves = _curves(
            DP=[0.8, 0.4, 0.1, 0.0, 0.0, 0.0],
            GN1=[0.7, 0.4, 0.1, 0.05, 0.02, 0.0],
            GN2=[0.8, 0.4, 0.1, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9, 0.5, 0.1]},
        )
        assert check_figure("fig3a", curves) == []

    def test_fig3a_flags_nonpessimistic_test(self):
        curves = _curves(
            DP=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # accepting everything
            GN1=[0.7, 0.4, 0.1, 0.05, 0.02, 0.0],
            GN2=[0.8, 0.4, 0.1, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9, 0.5, 0.1]},
        )
        violations = check_figure("fig3a", curves)
        assert any("DP not pessimistic" in v for v in violations)

    def test_fig3b_flags_wrong_ordering(self):
        curves = _curves(
            DP=[0.1, 0.05, 0.0, 0.0],
            GN1=[0.6, 0.3, 0.1, 0.0],  # GN1 better than DP: violates claim
            GN2=[0.1, 0.05, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9]},
        )
        violations = check_figure("fig3b", curves)
        assert any("DP not better than GN1" in v for v in violations)

    def test_fig4a_flags_good_tests(self):
        curves = _curves(
            DP=[0.5, 0.4, 0.3, 0.2],  # way too good for spatially heavy
            GN1=[0.0, 0.0, 0.0, 0.0],
            GN2=[0.0, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.9, 0.6]},
        )
        violations = check_figure("fig4a", curves)
        assert any("DP not poor" in v for v in violations)

    def test_fig4b_flags_dp_acceptance(self):
        curves = _curves(
            DP=[0.3, 0.2, 0.1, 0.0],  # DP must be ~0 here
            GN1=[1.0, 0.9, 0.5, 0.1],
            GN2=[0.9, 0.5, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.8, 0.3]},
        )
        violations = check_figure("fig4b", curves)
        assert any("unexpectedly accepts" in v for v in violations)

    def test_fig4b_passes_on_conforming_shape(self):
        curves = _curves(
            DP=[0.0, 0.0, 0.0, 0.0],
            GN1=[1.0, 0.9, 0.5, 0.1],
            GN2=[0.9, 0.5, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.8, 0.3]},
        )
        assert check_figure("fig4b", curves) == []

    def test_unknown_figure(self):
        with pytest.raises(KeyError):
            check_figure("fig9", _curves(DP=[0.0]))

    def test_real_small_runs_satisfy_claims(self):
        """End-to-end: modest-size regenerations pass their own checkers."""
        from repro.experiments.figures import run_figure

        for fid in ("fig3a", "fig3b"):
            curves = run_figure(fid, samples=300, sim_samples=40, seed=2007)
            assert check_figure(fid, curves) == [], fid


class TestClaimBranches:
    """Each checker reports each of its claims separately."""

    def test_fig3a_flags_gn1_tail_not_best(self):
        curves = _curves(
            DP=[0.8, 0.4, 0.1, 0.1, 0.05, 0.0],
            GN1=[0.7, 0.4, 0.1, 0.0, 0.0, 0.0],
            GN2=[0.8, 0.4, 0.1, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9, 0.5, 0.1]},
        )
        violations = check_figure("fig3a", curves)
        assert any("not best for few tasks (vs DP" in v for v in violations)
        assert not any("vs GN2" in v for v in violations)

    def test_fig3a_flags_curve_without_decay(self):
        curves = _curves(
            DP=[0.1, 0.1, 0.1, 0.1],
            GN1=[0.7, 0.4, 0.3, 0.2],
            GN2=[0.5, 0.3, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9]},
        )
        assert check_figure("fig3a", curves) == ["DP does not decay with utilization"]

    def test_fig3b_passes_on_conforming_shape(self):
        curves = _curves(
            DP=[0.6, 0.3, 0.1, 0.0],
            GN1=[0.1, 0.05, 0.0, 0.0],
            GN2=[0.6, 0.3, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9]},
        )
        assert check_figure("fig3b", curves) == []

    def test_fig3b_tolerates_small_gn2_lead(self):
        # DP may trail GN2 by up to 0.01 in mean acceptance.
        curves = _curves(
            DP=[0.6, 0.3, 0.1, 0.0],
            GN1=[0.1, 0.05, 0.0, 0.0],
            GN2=[0.62, 0.3, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9]},
        )
        assert check_figure("fig3b", curves) == []

    def test_fig3b_flags_dp_materially_worse_than_gn2(self):
        curves = _curves(
            DP=[0.6, 0.3, 0.1, 0.0],
            GN1=[0.1, 0.05, 0.0, 0.0],
            GN2=[0.7, 0.4, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 1.0, 0.9]},
        )
        assert check_figure("fig3b", curves) == [
            "DP materially worse than GN2 for many tasks"
        ]

    def test_fig4a_passes_on_conforming_shape(self):
        curves = _curves(
            DP=[0.1, 0.0, 0.0, 0.0],
            GN1=[0.0, 0.0, 0.0, 0.0],
            GN2=[0.05, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.9, 0.6]},
        )
        assert check_figure("fig4a", curves) == []

    def test_fig4a_flags_test_close_to_simulation(self):
        # Mean acceptance 0.06 is "poor" (<= 0.10) but above a quarter of
        # a simulation curve that itself accepts little.
        curves = _curves(
            DP=[0.12, 0.06, 0.06, 0.0],
            GN1=[0.0, 0.0, 0.0, 0.0],
            GN2=[0.0, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [0.4, 0.2, 0.1, 0.1]},
        )
        assert check_figure("fig4a", curves) == ["DP too close to simulation"]

    def test_fig4b_flags_gn1_not_above_gn2(self):
        curves = _curves(
            DP=[0.0, 0.0, 0.0, 0.0],
            GN1=[0.9, 0.5, 0.1, 0.0],
            GN2=[0.9, 0.5, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.8, 0.3]},
        )
        violations = check_figure("fig4b", curves)
        assert len(violations) == 1
        assert violations[0].startswith("GN1 (0.375) not above GN2")

    def test_fig4b_flags_gn2_not_above_dp(self):
        curves = _curves(
            DP=[0.0, 0.0, 0.0, 0.0],
            GN1=[1.0, 0.9, 0.5, 0.1],
            GN2=[0.0, 0.0, 0.0, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.8, 0.3]},
        )
        violations = check_figure("fig4b", curves)
        assert len(violations) == 1
        assert violations[0].startswith("GN2 (0.000) not above DP")

    def test_fig4b_flags_optimistic_gn1(self):
        curves = _curves(
            DP=[0.0, 0.0, 0.0, 0.0],
            GN1=[1.0, 1.0, 1.0, 0.9],
            GN2=[0.9, 0.5, 0.1, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, 0.8, 0.3]},
        )
        assert check_figure("fig4b", curves) == ["GN1 not pessimistic vs simulation"]

    def test_pessimism_allows_sampling_noise(self):
        # An analytic curve may exceed the simulation curve by NOISE.
        curves = _curves(
            DP=[0.6, 0.3, 0.1, 0.02],
            GN1=[0.1, 0.05, 0.0, 0.0],
            GN2=[0.6, 0.3, 0.1, 0.0],
            **{"sim:EDF-NF": [0.6, 0.3, 0.1, 0.0]},
        )
        assert check_figure("fig3b", curves) == []

    def test_nan_buckets_are_ignored(self):
        # A bucket with no samples holds NaN; it drops out of the mean.
        nan = float("nan")
        curves = _curves(
            DP=[0.6, 0.3, nan, 0.0],
            GN1=[0.1, 0.05, nan, 0.0],
            GN2=[0.6, 0.3, nan, 0.0],
            **{"sim:EDF-NF": [1.0, 1.0, nan, 0.9]},
        )
        assert check_figure("fig3b", curves) == []

    def test_missing_series_is_a_key_error(self):
        curves = _curves(DP=[0.6, 0.3], GN1=[0.1, 0.0], GN2=[0.6, 0.3])
        with pytest.raises(KeyError):
            check_figure("fig3b", curves)
