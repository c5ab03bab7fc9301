"""Cross-module property tests: invariants spanning analysis, simulation
and the reconfiguration model."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import composite_test
from repro.core.dp import dp_test
from repro.core.gn1 import gn1_test
from repro.core.gn2 import gn2_test
from repro.fpga.device import Fpga
from repro.fpga.reconfig import ReconfigurationModel, inflate_taskset
from repro.model.task import Task, TaskSet
from repro.sched.edf_nf import EdfNf
from repro.sim.offsets import simulate_with_offsets
from repro.sim.simulator import simulate
from repro.util.rngutil import rng_from_seed

ALL_TESTS = [dp_test, gn1_test, gn2_test]


@st.composite
def rational_tasksets(draw):
    n = draw(st.integers(1, 5))
    tasks = []
    for i in range(n):
        period = draw(st.integers(4, 16))
        deadline = draw(st.integers(2, period))
        wcet = F(draw(st.integers(1, deadline * 10)), 10)
        area = draw(st.integers(1, 9))
        tasks.append(
            Task(wcet=wcet, period=period, deadline=deadline, area=area, name=f"t{i}")
        )
    return TaskSet(tasks)


class TestCompositeIsDisjunction:
    @given(ts=rational_tasksets())
    @settings(max_examples=80, deadline=None)
    def test_equals_or_of_members(self, ts):
        fpga = Fpga(width=10)
        combined = composite_test(ALL_TESTS)(ts, fpga).accepted
        individual = any(t(ts, fpga).accepted for t in ALL_TESTS)
        assert combined == individual


class TestInflationMonotonicity:
    @pytest.mark.parametrize("test", ALL_TESTS, ids=lambda t: t.name)
    @given(ts=rational_tasksets(), base=st.fractions(min_value=0, max_value=1))
    @settings(max_examples=50, deadline=None)
    def test_accepting_inflated_implies_accepting_original(self, test, ts, base):
        """Charging reconfiguration overhead only ever hurts: if the
        inflated set passes, the original must too (per-task WCET
        monotonicity of all three bounds)."""
        fpga = Fpga(width=10)
        model = ReconfigurationModel(base=base, per_column=base / 10)
        inflated = inflate_taskset(ts, model)
        if test(inflated, fpga).accepted:
            assert test(ts, fpga).accepted


class TestSimulatorAccountingInvariants:
    @given(ts=rational_tasksets())
    @settings(max_examples=60, deadline=None)
    def test_conservation_laws(self, ts):
        fpga = Fpga(width=10)
        res = simulate(ts, fpga, EdfNf(), 40, eps=0, stop_at_first_miss=False)
        m = res.metrics
        assert m.jobs_completed <= m.jobs_released
        assert 0 <= m.busy_area_time <= fpga.capacity * m.simulated_time
        # a completed job ran for its full WCET, so its response >= WCET
        for name, resp in m.worst_response.items():
            assert resp >= ts.by_name(name).wcet

    @given(ts=rational_tasksets())
    @settings(max_examples=40, deadline=None)
    def test_zero_reconfig_model_is_identity(self, ts):
        fpga = Fpga(width=10)
        from repro.fpga.reconfig import ZERO_RECONFIG

        a = simulate(ts, fpga, EdfNf(), 40, eps=0, stop_at_first_miss=False)
        b = simulate(
            ts, fpga, EdfNf(), 40, eps=0, stop_at_first_miss=False,
            reconfig=ZERO_RECONFIG,
        )
        assert a.schedulable == b.schedulable
        assert a.metrics.busy_area_time == b.metrics.busy_area_time
        assert a.metrics.preemptions == b.metrics.preemptions

    @given(
        wcet=st.fractions(min_value=F(1, 10), max_value=3),
        base=st.fractions(min_value=F(1, 10), max_value=2),
        period=st.integers(6, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_overhead_adds_exactly_to_isolated_response(self, wcet, base, period):
        """For a single task the response under overhead is exactly
        ``C + load_time`` per job.  (For multi-task sets the relation is
        NOT monotone — reconfiguration delays reshuffle the schedule and
        can *reduce* another task's worst response, a classic scheduling
        anomaly that an earlier version of this test tripped over.)"""
        if wcet + base > period:
            return  # would just miss; nothing to compare
        ts = TaskSet([Task(wcet=wcet, period=period, area=4, name="solo")])
        fpga = Fpga(width=10)
        loaded = simulate(
            ts, fpga, EdfNf(), 3 * period, eps=0,
            reconfig=ReconfigurationModel(base=base),
        )
        assert loaded.schedulable
        assert loaded.metrics.worst_response["solo"] == wcet + base


class TestOffsetHarness:
    def test_zero_samples_synchronous_equals_plain_simulate(self):
        ts = TaskSet(
            [
                Task(wcet=1, period=4, area=5, name="a"),
                Task(wcet=2, period=6, area=5, name="b"),
            ]
        )
        fpga = Fpga(width=10)
        direct = simulate(ts, fpga, EdfNf(), 30, eps=0)
        harness = simulate_with_offsets(
            ts, fpga, EdfNf(), 30, rng_from_seed(1), samples=0, eps=0
        )
        assert direct.schedulable == harness.schedulable
        assert direct.metrics.jobs_released == harness.metrics.jobs_released
