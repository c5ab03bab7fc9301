"""Tests for the discrete-event FPGA simulator (free-migration mode)."""

from fractions import Fraction as F

import pytest

from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf
from repro.sim.simulator import (
    MigrationMode,
    SimulationError,
    default_horizon,
    simulate,
)
from repro.vector.batch import TaskSetBatch
from repro.vector.sim_vec import simulate_batch


def _t(c, t, a=1, d=None, name=None):
    return Task(wcet=c, period=t, deadline=d, area=a, name=name or f"t{c}-{t}-{a}")


class TestSingleTask:
    def test_runs_and_completes(self):
        ts = TaskSet([_t(2, 10, a=4, name="solo")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=30)
        assert res.schedulable
        assert res.metrics.jobs_released == 3
        assert res.metrics.jobs_completed == 3
        assert res.metrics.worst_response["solo"] == 2

    def test_infeasible_task_misses_immediately(self):
        ts = TaskSet([_t(6, 10, d=5, name="late")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=30)
        assert not res.schedulable
        assert res.misses[0].task == "late"
        assert res.misses[0].deadline == 5

    def test_task_wider_than_device_never_runs(self):
        ts = TaskSet([_t(1, 10, a=20, name="wide")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=30)
        assert not res.schedulable
        assert res.misses[0].remaining == 1

    def test_busy_area_time_matches_demand(self):
        ts = TaskSet([_t(2, 10, a=4, name="solo")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=30)
        # three jobs x 2 time units x 4 columns
        assert res.metrics.busy_area_time == 24


class TestParallelism:
    def test_two_tasks_run_concurrently(self):
        """FPGAs are inherently parallel (paper §1): two fitting tasks both
        complete with response time == C, no interference."""
        ts = TaskSet([_t(5, 10, a=4, name="a"), _t(5, 10, a=5, name="b")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=10)
        assert res.schedulable
        assert res.metrics.worst_response["a"] == 5
        assert res.metrics.worst_response["b"] == 5
        assert res.metrics.preemptions == 0

    def test_serialization_when_not_fitting(self):
        """Two full-width tasks must serialize: the later-deadline one
        waits for the earlier to finish."""
        ts = TaskSet(
            [_t(2, 10, a=10, name="first"), _t(2, 20, a=10, name="second")]
        )
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=20)
        assert res.schedulable
        assert res.metrics.worst_response["first"] == 2
        assert res.metrics.worst_response["second"] == 4  # waited behind first

    def test_preemption_by_earlier_deadline(self):
        """A newly released tight-deadline job displaces a running one."""
        ts = TaskSet(
            [
                _t(8, 20, a=10, name="long"),  # starts at 0, d=20
                _t(2, 20, d=5, a=10, name="urgent"),  # competes for full width
            ]
        )
        # urgent (d=5) preempts long (d=20) at release time 0? both release
        # at 0: urgent runs first (earlier deadline), long runs after.
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=20)
        assert res.schedulable
        assert res.metrics.worst_response["urgent"] == 2
        assert res.metrics.worst_response["long"] == 10

    def test_midstream_preemption_counted(self):
        ts = TaskSet(
            [
                Task(wcet=6, period=20, area=10, name="long"),
                Task(wcet=2, period=10, deadline=4, area=10, name="tick"),
            ]
        )
        # offset tick to release at 2: long runs [0,2), preempted.
        res = simulate(
            ts, Fpga(width=10), EdfNf(), horizon=20, offsets={"tick": 2}
        )
        assert res.schedulable
        assert res.metrics.preemptions >= 1


class TestBlockingFkfVsNf:
    def _blocking_set(self):
        # Queue at t=0 in deadline order: head (A=6), mid (A=6), narrow (A=3).
        # FkF runs only `head` (6+6 > 10 stops the prefix), blocking `narrow`
        # even though 6+3 fits; NF skips `mid` and runs `narrow` at once.
        return TaskSet(
            [
                _t(2, 20, d=5, a=6, name="head"),
                _t(3, 20, d=6, a=6, name="mid"),
                _t(2, 20, d=7, a=3, name="narrow"),
            ]
        )

    def test_nf_uses_idle_area(self):
        res = simulate(self._blocking_set(), Fpga(width=10), EdfNf(), horizon=20)
        assert res.schedulable
        assert res.metrics.worst_response["narrow"] == 2  # ran immediately

    def test_fkf_blocks_behind_wide_job(self):
        """Same set under FkF: 'narrow' cannot start before 'mid', so its
        completion is later than under NF — the paper's §1 intuition."""
        nf = simulate(self._blocking_set(), Fpga(width=10), EdfNf(), horizon=20)
        fkf = simulate(self._blocking_set(), Fpga(width=10), EdfFkf(), horizon=20)
        assert fkf.schedulable  # still makes its deadlines here
        assert fkf.metrics.worst_response["narrow"] > nf.metrics.worst_response["narrow"]


class TestDeadlineTieStarvation:
    """Two tiny unit-width tasks share the wide task's deadline and win the
    release/name tie-break under global EDF-NF, leaving the zero-laxity wide
    task 0.2 short of its deadline."""

    def _tie_set(self):
        return TaskSet(
            [
                _t(F(1, 10), 4, d=2, a=1, name="t0"),
                _t(F(1, 10), 4, d=2, a=1, name="t1"),
                _t(2, 4, d=2, a=9, name="t2"),
            ]
        )

    def test_scalar_edf_nf_misses(self):
        res = simulate(self._tie_set(), Fpga(width=10), EdfNf(), 20, eps=0)
        assert not res.schedulable
        assert res.misses[0].task == "t2"

    def test_batched_edf_nf_misses(self):
        batch = TaskSetBatch.from_tasksets([self._tie_set()])
        res = simulate_batch(batch, 10, "EDF-NF", horizon=20.0)
        assert not res.schedulable[0]


class TestGlobalEdfWorkedExamples:
    """Hand-traced global EDF-NF outcomes, checked on both simulators."""

    def _dhall_set(self):
        # Dhall's effect on a 2-column device: the two light unit-width
        # tasks have earlier deadlines, take both columns for half of every
        # unit, and the heavy task (C=1.9, T=2) falls behind and misses at 2.
        return TaskSet(
            [
                _t(F(1, 2), 1, a=1, name="light1"),
                _t(F(1, 2), 1, a=1, name="light2"),
                _t(F(19, 10), 2, a=1, name="heavy"),
            ]
        )

    def _wide_excluded_set(self):
        # Four narrow short-deadline tasks hold 4 columns while they run,
        # so the 8-column task cannot start on a 10-column device until
        # they finish (4 + 8 > 10), and with C=1.9 it cannot catch up.
        return TaskSet(
            [_t(F(1, 2), 1, a=1, name=f"n{i}") for i in range(4)]
            + [_t(F(19, 10), 2, a=8, name="wide")]
        )

    def _staggered_set(self):
        # a runs alone (6 + 5 > 10), then b and c side by side (5 + 5):
        # a ends at 9, b and c at 18 <= their deadlines 18 and 20.
        return TaskSet(
            [
                _t(9, 40, d=9, a=6, name="a"),
                _t(9, 40, d=18, a=5, name="b"),
                _t(9, 40, d=20, a=5, name="c"),
            ]
        )

    def test_dhall_effect_scalar(self):
        res = simulate(self._dhall_set(), Fpga(width=2), EdfNf(), 4, eps=0)
        assert not res.schedulable
        assert res.misses[0].task == "heavy"

    def test_dhall_effect_batched(self):
        batch = TaskSetBatch.from_tasksets([self._dhall_set()])
        assert not simulate_batch(batch, 2, "EDF-NF", horizon=4.0).schedulable[0]

    def test_wide_task_excluded_scalar(self):
        res = simulate(self._wide_excluded_set(), Fpga(width=10), EdfNf(), 4, eps=0)
        assert not res.schedulable
        assert res.misses[0].task == "wide"

    def test_wide_task_excluded_batched(self):
        batch = TaskSetBatch.from_tasksets([self._wide_excluded_set()])
        assert not simulate_batch(batch, 10, "EDF-NF", horizon=4.0).schedulable[0]

    def test_staggered_deadlines_scalar(self):
        res = simulate(self._staggered_set(), Fpga(width=10), EdfNf(), horizon=200)
        assert res.schedulable
        assert res.metrics.worst_response == {"a": 9, "b": 18, "c": 18}

    def test_staggered_deadlines_batched(self):
        batch = TaskSetBatch.from_tasksets([self._staggered_set()])
        assert simulate_batch(batch, 10, "EDF-NF", horizon=200.0).schedulable[0]


class TestDeadlineHandling:
    def test_finish_exactly_at_deadline_is_success(self):
        ts = TaskSet([_t(5, 10, d=5, a=10, name="edge")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=20)
        assert res.schedulable

    def test_stop_at_first_miss(self):
        ts = TaskSet([_t(6, 10, d=5, a=10, name="bad")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=100)
        assert len(res.misses) == 1
        assert res.metrics.simulated_time <= 10

    def test_continue_after_miss_records_all(self):
        ts = TaskSet([_t(6, 10, d=5, a=10, name="bad")])
        res = simulate(
            ts, Fpga(width=10), EdfNf(), horizon=40, stop_at_first_miss=False
        )
        assert not res.schedulable
        assert len(res.misses) >= 2  # several periods, several misses

    def test_tardy_job_still_completes(self):
        ts = TaskSet([_t(6, 50, d=5, a=10, name="tardy")])
        res = simulate(
            ts, Fpga(width=10), EdfNf(), horizon=50, stop_at_first_miss=False
        )
        assert res.metrics.jobs_completed == 1
        assert res.metrics.worst_response["tardy"] == 6


class TestExactArithmetic:
    def test_fraction_timeline(self):
        ts = TaskSet(
            [
                Task(wcet=F(1, 3), period=F(1, 2), area=5, name="x"),
                Task(wcet=F(1, 7), period=F(1, 2), area=5, name="y"),
            ]
        )
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=F(5, 2), eps=0)
        assert res.schedulable
        assert res.metrics.jobs_released == 10
        assert res.metrics.worst_response["x"] == F(1, 3)


class TestValidationAndGuards:
    def test_rejects_nonpositive_horizon(self):
        ts = TaskSet([_t(1, 10)])
        with pytest.raises(ValueError):
            simulate(ts, Fpga(width=10), EdfNf(), horizon=0)

    def test_rejects_unknown_offset_names(self):
        ts = TaskSet([_t(1, 10, name="a")])
        with pytest.raises(ValueError):
            simulate(ts, Fpga(width=10), EdfNf(), horizon=10, offsets={"zzz": 1})

    def test_event_bound_guards_runaway(self):
        ts = TaskSet([_t(1, 10, name="a")])
        with pytest.raises(SimulationError):
            simulate(ts, Fpga(width=10), EdfNf(), horizon=10_000, max_events=5)

    def test_placement_mode_requires_integer_areas(self):
        ts = TaskSet([Task(wcet=1, period=10, area=2.5, name="frac")])
        with pytest.raises(ValueError):
            simulate(
                ts, Fpga(width=10), EdfNf(), horizon=10,
                mode=MigrationMode.RELOCATABLE,
            )

    def test_default_horizon(self):
        ts = TaskSet([_t(1, 10, d=8), _t(1, 5)])
        assert default_horizon(ts, factor=20) == 8 + 20 * 10
        with pytest.raises(ValueError):
            default_horizon(ts, factor=0)


class TestOffsets:
    def test_offset_shifts_releases(self):
        ts = TaskSet([_t(1, 10, name="a")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=30, offsets={"a": 5})
        # releases at 5, 15, 25
        assert res.metrics.jobs_released == 3

    def test_offset_beyond_horizon_never_releases(self):
        ts = TaskSet([_t(1, 10, name="a")])
        res = simulate(ts, Fpga(width=10), EdfNf(), horizon=10, offsets={"a": 50})
        assert res.metrics.jobs_released == 0
        assert res.schedulable
