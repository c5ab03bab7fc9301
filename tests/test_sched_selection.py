"""Tests for scheduler selection rules (paper Definitions 1-2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.job import Job
from repro.model.task import Task, TaskSet
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf
from repro.sched.edf_queue import edf_order


def _job(name, deadline, area, release=0, period=None):
    task = Task(
        wcet=1, period=period or deadline, deadline=deadline, area=area, name=name
    )
    return Job(task=task, release=release)


class TestEdfOrder:
    def test_orders_by_deadline(self):
        jobs = [_job("late", 9, 1), _job("early", 3, 1), _job("mid", 5, 1)]
        assert [j.task.name for j in edf_order(jobs)] == ["early", "mid", "late"]

    def test_release_breaks_ties(self):
        a = _job("a", 6, 1, release=0)
        b = _job("b", 4, 1, release=2)  # same absolute deadline 6
        assert [j.task.name for j in edf_order([b, a])] == ["a", "b"]


class TestFkFSelection:
    def test_prefix_blocking(self):
        """Definition 1: a wide job at the head blocks everything behind it."""
        jobs = [_job("wide", 3, 8), _job("n1", 5, 2), _job("n2", 7, 2)]
        running = EdfFkf().select(jobs, capacity=9)
        assert [j.task.name for j in running] == ["wide"]  # n1 would overflow

    def test_takes_largest_fitting_prefix(self):
        jobs = [_job("a", 3, 3), _job("b", 5, 3), _job("c", 7, 3), _job("d", 9, 3)]
        running = EdfFkf().select(jobs, capacity=9)
        assert [j.task.name for j in running] == ["a", "b", "c"]

    def test_exact_fill(self):
        jobs = [_job("a", 3, 5), _job("b", 5, 5)]
        assert len(EdfFkf().select(jobs, capacity=10)) == 2

    def test_empty_queue(self):
        assert EdfFkf().select([], capacity=10) == []


class TestNfSelection:
    def test_skips_blocked_wide_job(self):
        """Definition 2: NF skips a wide job that cannot fit and runs the
        narrower jobs behind it."""
        jobs = [_job("wide", 3, 8), _job("n1", 5, 2), _job("n2", 7, 2)]
        running = EdfNf().select(jobs, capacity=7)
        assert [j.task.name for j in running] == ["n1", "n2"]

    def test_skip_occurs_midqueue(self):
        jobs = [_job("a", 1, 4), _job("big", 2, 7), _job("c", 3, 4), _job("d", 4, 1)]
        running = EdfNf().select(jobs, capacity=9)
        # a (4) fits; big (7) skipped; c (4) fits (8); d (1) fits (9)
        assert [j.task.name for j in running] == ["a", "c", "d"]

    def test_nf_superset_of_fkf_occupancy(self):
        """NF's selected area always >= FkF's on the same queue."""
        jobs = [_job("a", 1, 6), _job("b", 2, 5), _job("c", 3, 4), _job("d", 4, 3)]
        nf = sum(j.area for j in EdfNf().select(jobs, capacity=10))
        fkf = sum(j.area for j in EdfFkf().select(jobs, capacity=10))
        assert nf >= fkf


@st.composite
def job_queues(draw):
    n = draw(st.integers(1, 8))
    return [
        _job(
            f"j{i}",
            deadline=draw(st.integers(1, 20)),
            area=draw(st.integers(1, 10)),
            release=0,
        )
        for i in range(n)
    ]


class TestSelectionProperties:
    @given(jobs=job_queues(), cap=st.integers(5, 15))
    @settings(max_examples=150, deadline=None)
    def test_capacity_never_exceeded(self, jobs, cap):
        for sched in (EdfFkf(), EdfNf()):
            running = sched.select(jobs, cap)
            assert sum(j.area for j in running) <= cap

    @given(jobs=job_queues(), cap=st.integers(5, 15))
    @settings(max_examples=150, deadline=None)
    def test_nf_dominates_fkf_areawise(self, jobs, cap):
        nf = sum(j.area for j in EdfNf().select(jobs, cap))
        fkf = sum(j.area for j in EdfFkf().select(jobs, cap))
        assert nf >= fkf

    @given(jobs=job_queues(), cap=st.integers(5, 15))
    @settings(max_examples=150, deadline=None)
    def test_fkf_is_prefix_of_queue(self, jobs, cap):
        running = EdfFkf().select(jobs, cap)
        queue = edf_order(jobs)
        assert running == queue[: len(running)]

    @given(jobs=job_queues(), cap=st.integers(5, 15))
    @settings(max_examples=150, deadline=None)
    def test_nf_maximal(self, jobs, cap):
        """Lemma 2's essence: no waiting job fits in NF's leftover area."""
        running = EdfNf().select(jobs, cap)
        used = sum(j.area for j in running)
        waiting = [j for j in jobs if j not in running]
        for j in waiting:
            assert used + j.area > cap
