"""Cross-validation: vectorized verdicts == scalar reference verdicts."""

from fractions import Fraction as F

import numpy as np
import pytest

from repro.core.dp import DpTest, AreaModel, dp_test
from repro.core.gn1 import Gn1Test, Gn1Variant, gn1_test
from repro.core.gn2 import Gn2Test, gn2_test
from repro.fpga.device import Fpga
from repro.incremental.analyzers import Gn2Analyzer
from repro.gen.profiles import (
    GenerationProfile,
    paper_unconstrained,
    spatially_heavy_temporally_light,
    spatially_light_temporally_heavy,
)
from repro.model.task import Task, TaskSet
from repro.vector.batch import TaskSetBatch, generate_batch
from repro.vector.dp_vec import dp_accepts, necessary_mask
from repro.vector.gn1_vec import gn1_accepts
from repro.vector.gn2_vec import gn2_accepts
from repro.util.rngutil import rng_from_seed

CAPACITY = 100
FPGA = Fpga(width=CAPACITY)

PROFILES = [
    paper_unconstrained(2),
    paper_unconstrained(4),
    paper_unconstrained(10),
    spatially_heavy_temporally_light(),
    spatially_light_temporally_heavy(),
    # constrained-deadline stress (exercises N_i = 0 and carry paths)
    GenerationProfile(n_tasks=5, area_min=1, area_max=40, name="vec-stress"),
]


def _batch(profile, seed, count=150):
    batch = generate_batch(profile, count, rng_from_seed(seed))
    # spread across the utilization axis like the figures do
    rng = rng_from_seed(seed + 1)
    targets = rng.uniform(2, CAPACITY, size=count)
    scaled = batch.scaled_to_system_utilization(targets)
    # keep only model-feasible sets (C <= T); the rest are rejected by
    # both paths identically anyway, but keep some infeasible ones too
    return scaled


class TestBatchStructure:
    def test_from_to_tasksets_roundtrip(self):
        batch = generate_batch(paper_unconstrained(4), 10, rng_from_seed(3))
        tasksets = batch.to_tasksets()
        again = TaskSetBatch.from_tasksets(tasksets)
        assert np.allclose(batch.wcet, again.wcet)
        assert np.allclose(batch.area, again.area)

    def test_aggregates_match_object_model(self):
        batch = generate_batch(paper_unconstrained(5), 20, rng_from_seed(5))
        for i in (0, 7, 19):
            ts = batch.taskset(i)
            assert float(ts.system_utilization) == pytest.approx(
                batch.system_utilization[i]
            )
            assert float(ts.time_utilization) == pytest.approx(
                batch.time_utilization[i]
            )
            assert ts.max_area == batch.max_area[i]

    def test_scaling_hits_targets(self):
        batch = generate_batch(paper_unconstrained(5), 20, rng_from_seed(7))
        targets = np.linspace(5, 95, 20)
        scaled = batch.scaled_to_system_utilization(targets)
        assert np.allclose(scaled.system_utilization, targets)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TaskSetBatch(
                np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 4))
            )
        with pytest.raises(ValueError):
            TaskSetBatch(np.ones(3), np.ones(3), np.ones(3), np.ones(3))

    def test_generate_batch_validation(self):
        with pytest.raises(ValueError):
            generate_batch(paper_unconstrained(3), 0, rng_from_seed(1))

    def test_feasible_mask(self):
        batch = generate_batch(paper_unconstrained(3), 50, rng_from_seed(9))
        assert batch.feasible_mask.all()  # factor <= 1 guarantees C <= T
        hot = batch.scaled_to_system_utilization(np.full(50, 1e4))
        assert not hot.feasible_mask.any()

    def test_len_and_area_extremes(self):
        batch = generate_batch(paper_unconstrained(5), 12, rng_from_seed(11))
        assert len(batch) == batch.count == 12
        for i in (0, 5, 11):
            ts = batch.taskset(i)
            assert batch.min_area[i] == ts.min_area
            assert batch.max_area[i] == ts.max_area

    @pytest.mark.parametrize("tasksets, message", [
        ([], "at least one taskset"),
        (
            [
                TaskSet([Task(wcet=1, period=4, name="a")]),
                TaskSet([Task(wcet=1, period=4, name="a"), Task(wcet=1, period=5, name="b")]),
            ],
            "same size",
        ),
    ], ids=["empty", "ragged"])
    def test_from_tasksets_validation(self, tasksets, message):
        with pytest.raises(ValueError, match=message):
            TaskSetBatch.from_tasksets(tasksets)

    def test_scaling_targets_shape_validation(self):
        batch = generate_batch(paper_unconstrained(3), 4, rng_from_seed(13))
        with pytest.raises(ValueError, match=r"shape \(4,\)"):
            batch.scaled_to_system_utilization(np.ones(3))

    def test_integer_periods(self):
        profile = GenerationProfile(n_tasks=4, integer_periods=True)
        batch = generate_batch(profile, 30, rng_from_seed(15))
        assert np.array_equal(batch.period, np.round(batch.period))
        assert batch.period.min() >= np.ceil(profile.period_min)
        assert batch.period.max() <= np.floor(profile.period_max)
        empty_range = GenerationProfile(
            n_tasks=4, integer_periods=True, period_min=5.2, period_max=5.8
        )
        with pytest.raises(ValueError, match="no integers in period range"):
            generate_batch(empty_range, 3, rng_from_seed(15))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [1, 2])
class TestScalarVectorEquivalence:
    def test_necessary_mask(self, profile, seed):
        from repro.core.interfaces import necessary_conditions

        batch = _batch(profile, seed)
        vec = necessary_mask(batch, CAPACITY)
        for i, ts in enumerate(batch.to_tasksets()):
            assert vec[i] == necessary_conditions(ts, FPGA).accepted, f"set {i}"

    def test_dp(self, profile, seed):
        batch = _batch(profile, seed)
        vec = dp_accepts(batch, CAPACITY)
        for i, ts in enumerate(batch.to_tasksets()):
            assert vec[i] == dp_test(ts, FPGA).accepted, f"set {i}: {ts}"

    def test_dp_real_area_variant(self, profile, seed):
        batch = _batch(profile, seed)
        vec = dp_accepts(batch, CAPACITY, integer_areas=False)
        scalar = DpTest(AreaModel.REAL)
        for i, ts in enumerate(batch.to_tasksets()):
            assert vec[i] == scalar(ts, FPGA).accepted, f"set {i}"

    def test_gn1(self, profile, seed):
        batch = _batch(profile, seed)
        vec = gn1_accepts(batch, CAPACITY)
        for i, ts in enumerate(batch.to_tasksets()):
            assert vec[i] == gn1_test(ts, FPGA).accepted, f"set {i}: {ts}"

    def test_gn1_variants(self, profile, seed):
        batch = _batch(profile, seed)
        literal = gn1_accepts(batch, CAPACITY, plus_one_bound=False)
        window = gn1_accepts(batch, CAPACITY, window_denominator=True)
        s_literal = Gn1Test(Gn1Variant.THEOREM_LITERAL)
        s_window = Gn1Test(Gn1Variant.BCL_WINDOW)
        for i, ts in enumerate(batch.to_tasksets()):
            assert literal[i] == s_literal(ts, FPGA).accepted, f"set {i}"
            assert window[i] == s_window(ts, FPGA).accepted, f"set {i}"

    def test_gn2(self, profile, seed):
        batch = _batch(profile, seed)
        vec = gn2_accepts(batch, CAPACITY)
        for i, ts in enumerate(batch.to_tasksets()):
            assert vec[i] == gn2_test(ts, FPGA).accepted, f"set {i}: {ts}"

    def test_gn2_nonstrict_variant(self, profile, seed):
        batch = _batch(profile, seed)
        vec = gn2_accepts(batch, CAPACITY, strict_condition2=False)
        scalar = Gn2Test(strict_condition2=False)
        for i, ts in enumerate(batch.to_tasksets()):
            assert vec[i] == scalar(ts, FPGA).accepted, f"set {i}"


class TestFloat32Inputs:
    """Knife-edge dtype pinning: float32 input batches must yield the
    same verdicts as their (exactly-representable) float64 twins — the
    kernels pin every array to float64 at the batch boundary, so no
    strict-inequality bound is computed in single precision."""

    def _pair(self, seed=11, count=120):
        b64 = _batch(paper_unconstrained(6), seed, count=count)
        f32 = TaskSetBatch(
            b64.wcet.astype(np.float32), b64.period.astype(np.float32),
            b64.deadline.astype(np.float32), b64.area.astype(np.float32),
        )
        # Evaluate the float64 reference on the float32 values (the cast
        # rounds); upcasting back is exact, so verdicts must agree.
        back = TaskSetBatch(
            f32.wcet.astype(np.float64), f32.period.astype(np.float64),
            f32.deadline.astype(np.float64), f32.area.astype(np.float64),
        )
        return f32, back

    def test_analytical_verdicts_match_float64(self):
        f32, back = self._pair()
        assert (dp_accepts(f32, CAPACITY) == dp_accepts(back, CAPACITY)).all()
        assert (gn1_accepts(f32, CAPACITY) == gn1_accepts(back, CAPACITY)).all()
        assert (gn2_accepts(f32, CAPACITY) == gn2_accepts(back, CAPACITY)).all()
        assert (
            necessary_mask(f32, CAPACITY) == necessary_mask(back, CAPACITY)
        ).all()

    def test_float32_verdicts_match_scalar_reference(self):
        """And the float32 batch agrees with the scalar tests evaluated
        on the rounded values, bit for bit."""
        f32, back = self._pair(seed=12, count=60)
        vec = dp_accepts(f32, CAPACITY)
        for i, ts in enumerate(back.to_tasksets()):
            assert vec[i] == dp_test(ts, FPGA).accepted, f"set {i}"


class TestChunking:
    def test_chunked_equals_unchunked(self):
        batch = _batch(paper_unconstrained(6), 42, count=100)
        full = gn2_accepts(batch, CAPACITY, chunk=10_000)
        small = gn2_accepts(batch, CAPACITY, chunk=7)
        assert (full == small).all()

    def test_chunk_validation(self):
        batch = _batch(paper_unconstrained(3), 1, count=5)
        with pytest.raises(ValueError):
            gn2_accepts(batch, CAPACITY, chunk=0)

    def test_paper_tables_through_vector_path(self, table1, table2, table3):
        """The three paper tables, evaluated via the batch path (floats)."""
        for ts, expect in [
            (table1, (True, False, False)),
            (table2, (False, True, False)),
            (table3, (False, False, True)),
        ]:
            batch = TaskSetBatch.from_tasksets([ts])
            got = (
                bool(dp_accepts(batch, 10)[0]),
                bool(gn1_accepts(batch, 10)[0]),
                bool(gn2_accepts(batch, 10)[0]),
            )
            assert got == expect


class TestGn2LambdaBelowOne:
    """GN2 skips every λ candidate with ``λ_k >= 1``.

    On such a candidate both right-hand sides of Theorem 3 are zero or
    negative, and the clamped ``A_i·min(β, 1-λ_k)`` sum can undercut
    them, which accepted the WCET-inflated set below while rejecting
    the original (GN2 was not monotone in the WCETs).
    """

    ORIGINAL = (
        Task(wcet=F(6, 5), deadline=5, period=5, area=6, name="tau1"),
        Task(wcet=F(1, 10), deadline=2, period=8, area=1, name="tau2"),
    )
    INFLATED = (
        Task(wcet=2, deadline=5, period=5, area=6, name="tau1"),
        Task(wcet=F(13, 20), deadline=2, period=8, area=1, name="tau2"),
    )

    @pytest.mark.parametrize("tasks", [ORIGINAL, INFLATED], ids=["original", "inflated"])
    def test_rejected_on_every_path(self, tasks):
        fpga = Fpga(width=10)
        ts = TaskSet(tasks)
        assert not gn2_test(ts, fpga).accepted
        batch = TaskSetBatch.from_tasksets([ts])
        assert not bool(gn2_accepts(batch, fpga.capacity)[0])
        analyzer = Gn2Analyzer(gn2_test, fpga)
        analyzer.refresh(list(tasks))
        assert analyzer.verdict() is False
        assert analyzer.result() == gn2_test(ts, fpga)

    def test_check_lambda_refuses_nonpositive_slack(self):
        terms = [(F(-1), F(0))]
        for one_minus in (F(0), F(-1, 2)):
            assert gn2_test.check_lambda(one_minus, F(5), F(1), terms) is None
