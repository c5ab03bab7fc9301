"""Behavioural and property tests for the DP/GN1/GN2 test objects."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dp import AreaModel, DpTest, dp_test, dp_test_real_areas
from repro.core.gn1 import Gn1Test, gn1_test
from repro.core.gn2 import Gn2Test, gn2_test
from repro.core.interfaces import SchedulerKind, necessary_conditions
from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet

ALL_TESTS = [dp_test, gn1_test, gn2_test]


def tiny_taskset():
    """A trivially schedulable set: tiny utilizations, narrow tasks."""
    return TaskSet(
        [
            Task(wcet=F(1, 10), period=10, area=1, name="a"),
            Task(wcet=F(1, 10), period=10, area=1, name="b"),
        ]
    )


def infeasible_taskset():
    return TaskSet([Task(wcet=9, period=10, deadline=5, area=2, name="x")])


@st.composite
def small_tasksets(draw):
    """Random 2-4 task sets with rational parameters, D = T."""
    n = draw(st.integers(2, 4))
    tasks = []
    for i in range(n):
        period = draw(st.integers(5, 20))
        wcet = F(draw(st.integers(1, period * 10)), 10)
        area = draw(st.integers(1, 10))
        tasks.append(Task(wcet=wcet, period=period, area=area, name=f"t{i}"))
    return TaskSet(tasks)


class TestNecessaryConditions:
    def test_accepts_feasible(self):
        res = necessary_conditions(tiny_taskset(), Fpga(width=10))
        assert res.accepted

    def test_rejects_wide_task(self):
        ts = TaskSet([Task(wcet=1, period=10, area=20, name="w")])
        res = necessary_conditions(ts, Fpga(width=10))
        assert not res.accepted
        assert "capacity" in res.per_task[0].detail

    def test_rejects_c_above_d(self):
        res = necessary_conditions(infeasible_taskset(), Fpga(width=10))
        assert not res.accepted

    def test_rejects_overloaded_system(self):
        ts = TaskSet(
            [Task(wcet=9, period=10, area=8, name=f"t{i}") for i in range(3)]
        )
        res = necessary_conditions(ts, Fpga(width=10))
        assert not res.accepted

    def test_accounts_for_static_regions(self):
        fpga = Fpga(width=10)
        from repro.fpga.device import StaticRegion

        shrunk = Fpga(width=10, static_regions=(StaticRegion(0, 5),))
        ts = TaskSet([Task(wcet=1, period=10, area=7, name="w")])
        assert necessary_conditions(ts, fpga).accepted
        assert not necessary_conditions(ts, shrunk).accepted


class TestCommonBehaviour:
    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    def test_accepts_tiny_taskset(self, test):
        assert test(tiny_taskset(), Fpga(width=10)).accepted

    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    def test_rejects_infeasible_task(self, test):
        assert not test(infeasible_taskset(), Fpga(width=10)).accepted

    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    def test_result_metadata(self, test):
        res = test(tiny_taskset(), Fpga(width=10))
        assert res.test_name == test.name
        assert bool(res) is res.accepted

    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    def test_failing_tasks_and_covers(self, test, fpga10, table1, table2, table3):
        for table in (table1, table2, table3):
            res = test(table, fpga10)
            assert res.failing_tasks == tuple(v.task for v in res.per_task if not v.passed)
            assert bool(res.failing_tasks) is not res.accepted
            for kind in SchedulerKind:
                assert res.covers(kind) is (kind in test.schedulers)

    def test_scheduler_coverage(self):
        assert SchedulerKind.EDF_FKF in dp_test.schedulers
        assert SchedulerKind.EDF_NF in dp_test.schedulers
        assert gn1_test.schedulers == frozenset({SchedulerKind.EDF_NF})
        assert SchedulerKind.EDF_FKF in gn2_test.schedulers

    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    @given(ts=small_tasksets())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_wcet_scaling(self, test, ts):
        """Scaling all WCETs down never flips accept -> reject."""
        fpga = Fpga(width=10)
        if test(ts, fpga).accepted:
            smaller = ts.scaled(time_factor=F(1, 2))
            assert test(smaller, fpga).accepted

    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    @given(ts=small_tasksets())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_device_width(self, test, ts):
        """A wider device never turns acceptance into rejection."""
        if test(ts, Fpga(width=10)).accepted:
            assert test(ts, Fpga(width=20)).accepted


class TestDpSpecifics:
    def test_integer_model_dominates_real(self):
        """DP-integer accepts everything DP-real accepts (Abnd is larger)."""
        fpga = Fpga(width=10)
        ts = tiny_taskset()
        assert dp_test(ts, fpga).accepted
        # construct a set right at the real-area boundary
        boundary = TaskSet(
            [
                Task(wcet=F("1.26"), period=7, area=9, name="a"),
                Task(wcet=F("0.95"), period=5, area=6, name="b"),
            ]
        )
        assert dp_test(boundary, fpga).accepted
        assert not dp_test_real_areas(boundary, fpga).accepted

    @given(ts=small_tasksets())
    @settings(max_examples=60, deadline=None)
    def test_real_accept_implies_integer_accept(self, ts):
        fpga = Fpga(width=12)
        if dp_test_real_areas(ts, fpga).accepted:
            assert dp_test(ts, fpga).accepted

    def test_names(self):
        assert dp_test.name == "DP"
        assert DpTest(AreaModel.REAL).name == "DP-real"


class TestGn1Specifics:
    def test_single_task_with_slack_accepted(self):
        ts = TaskSet([Task(wcet=1, period=10, area=5, name="solo")])
        assert gn1_test(ts, Fpga(width=10)).accepted

    def test_single_zero_laxity_task_rejected_by_strictness(self):
        """C = D makes the RHS zero; the strict `<` then fails even though
        the task is feasible — documented pessimism of Theorem 2."""
        ts = TaskSet([Task(wcet=10, period=10, area=5, name="solo")])
        assert not gn1_test(ts, Fpga(width=10)).accepted

    def test_interference_report_mentions_betas(self, table3, fpga10):
        report = Gn1Test().interference_report(table3, fpga10, 1)
        assert "β[tau1]" in report
        assert "fail" in report


class TestGn2Specifics:
    def test_witness_reported_in_details(self, table3, fpga10):
        res = gn2_test(table3, fpga10)
        assert all("certified by λ" in v.detail for v in res.per_task)

    def test_rejection_detail(self, table2, fpga10):
        res = gn2_test(table2, fpga10)
        failing = [v for v in res.per_task if not v.passed]
        assert failing and "no λ candidate" in failing[0].detail

    def test_name_flags_variants(self):
        assert gn2_test.name == "GN2"
        assert Gn2Test(strict_condition2=False).name == "GN2*"
