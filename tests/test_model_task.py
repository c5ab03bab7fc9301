"""Unit tests for the Task/TaskSet model."""

from fractions import Fraction as F

import numpy as np
import pytest

from repro.model.task import Task, TaskSet
from repro.model.validation import TaskParameterError, TaskSetError


class TestTask:
    def test_deadline_defaults_to_period(self):
        t = Task(wcet=1, period=10)
        assert t.deadline == 10
        assert t.implicit_deadline

    def test_explicit_deadline(self):
        t = Task(wcet=1, period=10, deadline=5)
        assert t.deadline == 5
        assert t.constrained_deadline
        assert not t.implicit_deadline

    def test_post_period_deadline(self):
        t = Task(wcet=1, period=5, deadline=9)
        assert not t.constrained_deadline

    def test_time_utilization(self):
        assert Task(wcet=2, period=8).time_utilization == F(1, 4)

    def test_system_utilization_weights_area(self):
        assert Task(wcet=2, period=8, area=6).system_utilization == F(3, 2)

    def test_density_and_laxity(self):
        t = Task(wcet=3, period=10, deadline=6)
        assert t.density == F(1, 2)
        assert t.laxity == 3

    def test_exact_arithmetic_with_fractions(self):
        t = Task(wcet=F("1.26"), period=7)
        assert t.time_utilization == F("0.18")

    def test_float_parameters_stay_float(self):
        t = Task(wcet=1.5, period=3.0)
        assert isinstance(t.time_utilization, float)
        assert t.time_utilization == 0.5

    def test_default_names_unique(self):
        a, b = Task(wcet=1, period=2), Task(wcet=1, period=2)
        assert a.name != b.name

    def test_scaled(self):
        t = Task(wcet=2, period=8, area=4)
        s = t.scaled(time_factor=F(1, 2), area_factor=2)
        assert s.wcet == 1 and s.area == 8
        assert s.period == 8  # unchanged

    def test_with_area_and_wcet(self):
        t = Task(wcet=2, period=8, area=4)
        assert t.with_area(7).area == 7
        assert t.with_wcet(3).wcet == 3

    def test_as_fractions(self):
        t = Task(wcet=0.5, period=2.0, area=3)
        ft = t.as_fractions()
        assert ft.wcet == F(1, 2)
        assert isinstance(ft.period, F)

    def test_has_integral_area(self):
        assert Task(wcet=1, period=2, area=3).has_integral_area
        assert not Task(wcet=1, period=2, area=2.5).has_integral_area

    def test_feasible_alone(self):
        assert Task(wcet=2, period=5).feasible_alone
        assert not Task(wcet=6, period=8, deadline=5).feasible_alone

    def test_frozen(self):
        t = Task(wcet=1, period=2)
        with pytest.raises(AttributeError):
            t.wcet = 5  # type: ignore[misc]


class TestTaskValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(wcet=0, period=1),
        dict(wcet=-1, period=1),
        dict(wcet=1, period=0),
        dict(wcet=1, period=-2),
        dict(wcet=1, period=2, deadline=0),
        dict(wcet=1, period=2, area=0),
        dict(wcet=1, period=2, area=0.5),
    ])
    def test_rejects_nonpositive_parameters(self, kwargs):
        with pytest.raises(TaskParameterError):
            Task(**kwargs)

    @pytest.mark.parametrize("field", ["wcet", "period", "deadline", "area"])
    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"),
        pytest.param(np.float32("nan"), id="float32-nan"),
    ])
    def test_rejects_non_finite_parameters(self, field, value):
        kwargs = dict(wcet=1.0, period=10.0, deadline=10.0, area=2.0)
        kwargs[field] = value
        with pytest.raises(TaskParameterError, match="finite"):
            Task(**kwargs)

    def test_huge_exact_parameters_stay_exact(self):
        # Ints and Fractions are finite by construction and are never
        # converted to float (10**400 has no float).
        huge = 10**400
        t = Task(wcet=1, period=huge, area=F(huge, 3))
        assert t.period == huge and t.area == F(huge, 3)

    def test_rejects_non_numeric(self):
        with pytest.raises(TaskParameterError):
            Task(wcet="fast", period=1)  # type: ignore[arg-type]

    def test_rejects_bool(self):
        with pytest.raises(TaskParameterError):
            Task(wcet=True, period=1)  # type: ignore[arg-type]

    def test_wcet_above_deadline_allowed_but_flagged(self):
        # Not a parameter error: the schedulability tests must reject it.
        t = Task(wcet=9, period=10, deadline=5)
        assert not t.feasible_alone


class TestTaskSet:
    def _ts(self):
        return TaskSet([
            Task(wcet=1, period=4, area=2, name="a"),
            Task(wcet=2, period=8, area=5, name="b"),
        ])

    def test_len_iter_getitem(self):
        ts = self._ts()
        assert len(ts) == 2
        assert [t.name for t in ts] == ["a", "b"]
        assert ts[1].name == "b"
        assert isinstance(ts[0:1], TaskSet)

    def test_aggregates(self):
        ts = self._ts()
        assert ts.time_utilization == F(1, 2)
        assert ts.system_utilization == F(1, 2) + F(5, 4)
        assert ts.max_area == 5
        assert ts.min_area == 2
        assert ts.max_period == 8

    def test_all_predicates(self):
        ts = self._ts()
        assert ts.all_implicit_deadline
        assert ts.all_constrained_deadline
        assert ts.all_integral_area
        assert ts.all_feasible_alone

    def test_rejects_empty(self):
        with pytest.raises(TaskSetError):
            TaskSet([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(TaskSetError):
            TaskSet([Task(wcet=1, period=2, name="x"), Task(wcet=1, period=3, name="x")])

    def test_equality_and_hash(self):
        a = TaskSet([Task(wcet=1, period=2, name="x")])
        b = TaskSet([Task(wcet=1, period=2, name="x")])
        assert a == b
        assert hash(a) == hash(b)

    def test_scaled_to_system_utilization(self):
        ts = self._ts().scaled_to_system_utilization(F(7, 2))
        assert ts.system_utilization == F(7, 2)
        # periods and areas unchanged
        assert ts.max_area == 5 and ts.max_period == 8

    def test_scaled_to_zero_current_raises(self):
        # impossible to construct zero-utilization taskset (wcet > 0), so
        # verify the rescale math instead on a tiny utilization
        ts = self._ts().scaled_to_system_utilization(F(1, 1000))
        assert ts.system_utilization == F(1, 1000)

    def test_without(self):
        ts = self._ts().without(0)
        assert [t.name for t in ts] == ["b"]
        with pytest.raises(IndexError):
            self._ts().without(5)

    def test_extended(self):
        ts = self._ts().extended([Task(wcet=1, period=9, name="c")])
        assert len(ts) == 3

    def test_by_name(self):
        assert self._ts().by_name("b").area == 5
        with pytest.raises(KeyError):
            self._ts().by_name("zzz")

    def test_sorted_by(self):
        ts = self._ts().sorted_by(lambda t: -t.area)
        assert ts[0].name == "b"

    def test_map_preserves_type(self):
        ts = self._ts().map(lambda t: t.with_area(1))
        assert isinstance(ts, TaskSet)
        assert ts.max_area == 1
