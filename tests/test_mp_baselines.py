"""Tests for the multiprocessor baselines and the unit-area reductions.

The reduction identities are the paper's §1 observation: multiprocessor
scheduling is FPGA scheduling with all areas = 1 and A(H) = m.  DP must
then coincide with GFB, GN1 (window variant) with BCL, GN2 with BAK2.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import dp_test
from repro.core.gn1 import Gn1Test, Gn1Variant
from repro.core.gn2 import Gn2Test
from repro.mp.bak2 import Bak2Test, bak2_test
from repro.mp.bcl import bcl_test
from repro.mp.gfb import gfb_test
from repro.mp.reductions import as_unit_area_taskset, cpu_task, platform_for
from repro.model.task import Task, TaskSet


def cpu_ts(*specs):
    return TaskSet([cpu_task(c, t, d, name=f"t{i}") for i, (c, d, t) in enumerate(specs)])


class TestGfb:
    def test_light_taskset_accepted(self):
        ts = cpu_ts((1, 10, 10), (1, 10, 10))
        assert gfb_test(ts, 2).accepted

    def test_dhall_effect_rejected(self):
        # classic Dhall: light tasks + one heavy task breaks plain EDF
        ts = cpu_ts((2, 10, 10), (2, 10, 10), (9, 10, 10))
        assert not gfb_test(ts, 2).accepted

    def test_bound_is_tight_in_m(self):
        # UT = m(1-u)+u exactly at boundary is accepted (<=)
        u = F(1, 2)
        m = 3
        # three tasks of u=1/2 plus filler to land exactly on bound
        target = m * (1 - u) + u  # = 2
        ts = cpu_ts((5, 10, 10), (5, 10, 10), (5, 10, 10), (5, 10, 10))
        assert ts.time_utilization == target
        assert gfb_test(ts, m).accepted

    def test_rejects_utilization_above_one_task(self):
        ts = TaskSet([Task(wcet=12, period=10, area=1, name="x")])
        assert not gfb_test(ts, 4).accepted

    def test_rejects_bad_processor_count(self):
        with pytest.raises(ValueError):
            gfb_test(cpu_ts((1, 10, 10)), 0)


class TestBcl:
    def test_accepts_light(self):
        ts = cpu_ts((1, 10, 10), (1, 10, 10), (1, 10, 10))
        assert bcl_test(ts, 2).accepted

    def test_handles_constrained_deadlines(self):
        ts = cpu_ts((1, 5, 10), (1, 5, 10))
        assert bcl_test(ts, 2).accepted

    def test_rejects_zero_laxity(self):
        ts = cpu_ts((10, 10, 10), (10, 10, 10))
        assert not bcl_test(ts, 2).accepted

    def test_rejects_infeasible(self):
        ts = cpu_ts((6, 5, 10))
        assert not bcl_test(ts, 2).accepted


class TestBak2:
    def test_accepts_light(self):
        ts = cpu_ts((1, 10, 10), (1, 10, 10))
        assert bak2_test(ts, 2).accepted

    def test_incomparable_with_bcl_direction_one(self):
        """BAK2 accepts a set BCL rejects (λ-extension pays off).

        Witness found by randomized search over certificates with
        ``λ_k < 1``; Baker 2006 shows the tests are incomparable in
        general.
        """
        ts = cpu_ts(
            (F(1, 5), 1, 12), (F(3, 5), 3, 5), (F(3, 5), 2, 7), (F(1, 2), 11, 12)
        )
        assert bak2_test(ts, 2).accepted
        assert not bcl_test(ts, 2).accepted

    def test_incomparable_with_bcl_direction_two(self):
        """BCL accepts a set BAK2 rejects (BAK2's Σ includes i = k)."""
        ts = cpu_ts((F(14, 5), 3, 9), (F(13, 2), 8, 9), (F(4, 5), 3, 7))
        assert bcl_test(ts, 3).accepted
        assert not bak2_test(ts, 3).accepted

    def test_rejects_overload(self):
        ts = cpu_ts((9, 10, 10), (9, 10, 10), (9, 10, 10))
        assert not bak2_test(ts, 2).accepted


@st.composite
def unit_cpu_tasksets(draw):
    n = draw(st.integers(2, 5))
    tasks = []
    for i in range(n):
        period = draw(st.integers(4, 16))
        wcet = F(draw(st.integers(1, period * 10)), 10)
        deadline = draw(st.integers(max(1, period - 3), period))
        tasks.append(cpu_task(wcet, period, deadline, name=f"t{i}"))
    return TaskSet(tasks)


class TestReductions:
    def test_platform_for(self):
        assert platform_for(4).capacity == 4
        with pytest.raises(ValueError):
            platform_for(0)

    def test_as_unit_area(self):
        ts = TaskSet([Task(wcet=1, period=5, area=7, name="w")])
        flat = as_unit_area_taskset(ts)
        assert flat.max_area == 1
        assert flat[0].wcet == 1

    @given(ts=unit_cpu_tasksets(), m=st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_dp_reduces_to_gfb(self, ts, m):
        """DP with unit areas on Fpga(m) == GFB on m processors."""
        fpga = platform_for(m)
        dp = dp_test(ts, fpga)
        gfb = gfb_test(ts, m)
        # GFB has no necessary-conditions pre-filter; align on feasible sets
        if all(t.feasible_alone and t.time_utilization <= 1 for t in ts):
            assert dp.accepted == gfb.accepted, (
                f"DP={dp.accepted} GFB={gfb.accepted} for {ts}"
            )

    @given(ts=unit_cpu_tasksets(), m=st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_gn1_window_reduces_to_bcl(self, ts, m):
        """GN1 (BCL window variant) with unit areas == BCL."""
        fpga = platform_for(m)
        gn1 = Gn1Test(Gn1Variant.BCL_WINDOW)(ts, fpga)
        bcl = bcl_test(ts, m)
        if all(t.feasible_alone and t.time_utilization <= 1 for t in ts):
            assert gn1.accepted == bcl.accepted

    @given(ts=unit_cpu_tasksets(), m=st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_gn2_reduces_to_bak2(self, ts, m):
        """GN2 with unit areas (Abnd=m, Amin=1) == BAK2."""
        fpga = platform_for(m)
        gn2 = Gn2Test()(ts, fpga)
        bak = Bak2Test(m)(ts)
        if all(t.feasible_alone and t.time_utilization <= 1 for t in ts):
            assert gn2.accepted == bak.accepted
