"""Churn parity: incremental verdicts bit-identical to from-scratch tests.

The central contract of :mod:`repro.incremental`: after ANY sequence of
add/remove/update operations, every analyzer's :class:`TestResult` —
including per-task lhs/rhs values and detail strings, under float *and*
exact arithmetic — equals what the scalar test returns on the equivalent
:class:`TaskSet`.  Hypothesis drives random operation streams; dedicated
tests pin the knife edges (empty set, single task, remove-last,
duplicate names) and the Tables 1-3 exact-rational sets.
"""

import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import paper_portfolio
from repro.core.dp import dp_test
from repro.core.gn1 import gn1_test
from repro.core.gn2 import gn2_test
from repro.core.interfaces import SchedulerKind
from repro.core.sensitivity import DeltaCertifier
from repro.fpga.device import Fpga
from repro.incremental import AdmissionState, Delta
from repro.incremental.analyzers import Gn2Analyzer
from repro.model.task import Task, TaskSet

MEMBERS = {"DP": dp_test, "GN1": gn1_test, "GN2": gn2_test}


def _assert_parity(state: AdmissionState, fpga: Fpga) -> None:
    """Full-dataclass equality between incremental and scalar verdicts."""
    if len(state) == 0:
        for name in MEMBERS:
            res = state.result(name)
            assert res.accepted and "vacuously" in res.reason
        assert state.portfolio_result().accepted
        return
    ts = TaskSet(state.tasks)
    for name, test in MEMBERS.items():
        assert state.result(name) == test(ts, fpga), name
    for scheduler in SchedulerKind:
        assert state.portfolio_result(scheduler) == paper_portfolio(scheduler)(
            ts, fpga
        ), scheduler


@st.composite
def churn_streams(draw, exact: bool, kinds=("add", "add", "remove", "update")):
    """A random sequence of (op, payload) churn operations."""
    n_ops = draw(st.integers(1, 25))
    ops = []
    for i in range(n_ops):
        kind = draw(st.sampled_from(kinds))
        period = draw(st.integers(4, 16))
        deadline = draw(st.integers(2, period + 4))
        wcet_tenths = draw(st.integers(1, min(deadline, period) * 10))
        wcet = F(wcet_tenths, 10) if exact else wcet_tenths / 10
        area = draw(st.integers(1, 9))
        victim = draw(st.integers(0, 30))  # resolved modulo residents
        task = Task(wcet=wcet, period=period, deadline=deadline, area=area, name=f"t{i}")
        ops.append((kind, task, victim))
    return ops


def _run_stream(ops, fpga):
    state = AdmissionState(fpga)
    for kind, task, victim in ops:
        names = [t.name for t in state]
        if kind == "add" or not names:
            state.add(task)
        elif kind == "remove":
            state.remove(names[victim % len(names)])
        else:
            name = names[victim % len(names)]
            state.update(
                name, Task(task.wcet, task.period, task.deadline, task.area, name=name)
            )
        _assert_parity(state, fpga)
    return state


class TestChurnParity:
    @given(ops=churn_streams(exact=False))
    @settings(max_examples=60, deadline=None)
    def test_float_streams(self, ops):
        _run_stream(ops, Fpga(width=10))

    @given(ops=churn_streams(exact=True))
    @settings(max_examples=60, deadline=None)
    def test_exact_streams(self, ops):
        _run_stream(ops, Fpga(width=10))

    def test_long_mixed_stream(self):
        """A deeper seeded stream than hypothesis affords per example."""
        rng = random.Random(42)
        fpga = Fpga(width=60)
        state = AdmissionState(fpga)
        for i in range(150):
            names = [t.name for t in state]
            roll = rng.random()
            period = rng.randint(5, 30)
            wcet = rng.randint(1, max(1, period // 2))
            task = Task(
                wcet=wcet,
                period=period,
                deadline=rng.randint(wcet, period + 5),
                area=rng.randint(1, 20),
                name=f"t{i}",
            )
            if not names or roll < 0.5:
                state.add(task)
            elif roll < 0.8:
                state.remove(rng.choice(names))
            else:
                name = rng.choice(names)
                state.update(
                    name,
                    Task(task.wcet, task.period, task.deadline, task.area, name=name),
                )
            if i % 5 == 0 or i > 140:
                _assert_parity(state, fpga)
        _assert_parity(state, fpga)


def _assert_verdict_first_parity(
    state: AdmissionState, fpga: Fpga, accepts_first: bool
) -> None:
    """Parity with the verdict-only queries asked *before* any full
    member result, so a rejecting member's early exit is what answers;
    the full results are compared only afterwards."""
    ts = TaskSet(state.tasks) if len(state) else None

    def check_portfolios():
        for scheduler in SchedulerKind:
            got = state.portfolio_result(scheduler)
            if ts is None:
                assert got.accepted
            else:
                assert got == paper_portfolio(scheduler)(ts, fpga), scheduler

    def check_accepts():
        for name, test in MEMBERS.items():
            want = True if ts is None else test(ts, fpga).accepted
            assert state.accepts(name) is want, name

    if accepts_first:
        check_accepts()
        check_portfolios()
    else:
        check_portfolios()
        check_accepts()
    if ts is not None:
        for name, test in MEMBERS.items():
            assert state.result(name) == test(ts, fpga), name


def _run_verdict_first_stream(ops, fpga, accepts_first):
    state = AdmissionState(fpga)
    portfolio = paper_portfolio(SchedulerKind.EDF_NF)
    for kind, task, victim in ops:
        names = [t.name for t in state]
        if kind in ("admit", "trial"):
            before = state.tasks
            expected = portfolio(TaskSet([*before, task]), fpga)
            if kind == "admit":
                assert state.admit(task) is expected.accepted
                if not expected.accepted:
                    assert state.tasks == before
            else:
                assert state.trial(task) == expected
                assert state.tasks == before
        elif kind == "add" or not names:
            state.add(task)
        elif kind == "remove":
            state.remove(names[victim % len(names)])
        else:
            name = names[victim % len(names)]
            state.update(
                name, Task(task.wcet, task.period, task.deadline, task.area, name=name)
            )
        _assert_verdict_first_parity(state, fpga, accepts_first)


_VERDICT_FIRST_KINDS = ("add", "admit", "admit", "trial", "remove", "update")


class TestVerdictFirstParity:
    """``portfolio_result``/``accepts`` on a freshly churned state answer
    from the early-exit walk; they must still equal the scalar tests, and
    the full results asked for afterwards must too."""

    @given(
        ops=churn_streams(exact=False, kinds=_VERDICT_FIRST_KINDS),
        accepts_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_streams(self, ops, accepts_first):
        _run_verdict_first_stream(ops, Fpga(width=10), accepts_first)

    @given(
        ops=churn_streams(exact=True, kinds=_VERDICT_FIRST_KINDS),
        accepts_first=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_streams(self, ops, accepts_first):
        _run_verdict_first_stream(ops, Fpga(width=10), accepts_first)

    def test_rejected_admit_leaves_verdicts_of_restored_set(self, fpga10):
        """A rejected admit refreshes the analyzers with the candidate
        set; the next queries must answer for the restored residents."""
        state = AdmissionState(fpga10, _GN2_REJECTS[:3])
        # Every member rejects the four tasks, GN2 by its early exit.
        assert not state.admit(_GN2_REJECTS[3])
        assert state.tasks == _GN2_REJECTS[:3]
        _assert_verdict_first_parity(state, fpga10, accepts_first=True)
        # A necessary-conditions reject rolls back the same way.
        assert not state.admit(Task(wcet=1, period=4, area=11, name="wide"))
        _assert_verdict_first_parity(state, fpga10, accepts_first=False)


#: DP, GN1 and GN2 all reject this set on a 10-column device, and the
#: necessary conditions hold.  tau1 and tau2 have λ witnesses, tau3 is
#: the first task without one; GN2 accepts tau1 and tau2 alone.
_GN2_REJECTS = (
    Task(wcet=1, period=6, area=3, name="tau1"),
    Task(wcet=2, period=10, area=3, name="tau2"),
    Task(wcet=2, period=4, area=3, name="tau3"),
    Task(wcet=4, period=4, area=3, name="tau4"),
)


@pytest.fixture
def witness_calls(monkeypatch):
    """Names of the tasks ``Gn2Analyzer._find_witness`` is called for."""
    calls = []
    find_witness = Gn2Analyzer._find_witness

    def counting(self, task_k, *args):
        calls.append(task_k.name)
        return find_witness(self, task_k, *args)

    monkeypatch.setattr(Gn2Analyzer, "_find_witness", counting)
    return calls


class TestEarlyExitMechanism:
    def test_rejecting_verdict_stops_at_first_witnessless_task(
        self, fpga10, witness_calls
    ):
        ts = TaskSet(_GN2_REJECTS)
        scalar = gn2_test(ts, fpga10)
        first_fail = [v.passed for v in scalar.per_task].index(False)
        assert first_fail == 2 and len(ts) == 4
        analyzer = Gn2Analyzer(gn2_test, fpga10)
        analyzer.refresh(list(ts))
        assert analyzer.verdict() is False
        assert witness_calls == ["tau1", "tau2", "tau3"]
        assert analyzer.verdict() is False  # cached: no further walk
        assert len(witness_calls) == first_fail + 1
        # The full result still walks every task and equals the scalar.
        assert analyzer.result() == scalar
        assert len(witness_calls) == first_fail + 1 + len(ts)

    def test_accepting_member_walks_once(self, fpga10, table3, witness_calls):
        analyzer = Gn2Analyzer(gn2_test, fpga10)
        analyzer.refresh(list(table3))
        assert analyzer.verdict() is True
        assert analyzer.result() == gn2_test(table3, fpga10)
        assert len(witness_calls) == len(table3)

    def test_state_portfolio_rejection_walks_gn2_to_first_failure(
        self, fpga10, witness_calls
    ):
        state = AdmissionState(fpga10, _GN2_REJECTS)
        assert not state.accepts("DP") and not state.accepts("GN1")
        witness_calls.clear()
        assert not state.portfolio_accepts()
        assert len(witness_calls) == 3

    def test_refresh_clears_cached_verdict(self, fpga10, witness_calls):
        analyzer = Gn2Analyzer(gn2_test, fpga10)
        analyzer.refresh(_GN2_REJECTS)
        assert analyzer.verdict() is False
        calls = len(witness_calls)
        analyzer.refresh(list(_GN2_REJECTS))  # same task objects: no change
        assert analyzer.verdict() is False
        assert len(witness_calls) == calls
        analyzer.refresh(_GN2_REJECTS[:2])  # tau3 and tau4 depart
        assert analyzer.verdict() is True
        assert len(witness_calls) == calls + 2
        assert analyzer.result() == gn2_test(TaskSet(_GN2_REJECTS[:2]), fpga10)
        assert len(witness_calls) == calls + 2


class TestKnifeEdges:
    def test_empty_state_vacuous_accept(self, fpga10):
        state = AdmissionState(fpga10)
        for name in MEMBERS:
            res = state.result(name)
            assert res.accepted
            assert res.reason == "empty taskset: vacuously schedulable"
            assert res.test_name == MEMBERS[name].name
        assert state.portfolio_result().accepted
        assert state.taskset is None

    def test_single_task_then_remove_last(self, fpga10):
        state = AdmissionState(fpga10)
        t = Task(wcet=1, period=4, deadline=4, area=2, name="solo")
        state.add(t)
        _assert_parity(state, fpga10)
        assert state.remove("solo") is t
        assert len(state) == 0
        _assert_parity(state, fpga10)
        # Refill after draining: caches must restart cleanly.
        state.add(t)
        _assert_parity(state, fpga10)

    def test_duplicate_name_rejected(self, fpga10):
        state = AdmissionState(fpga10)
        state.add(Task(wcet=1, period=4, area=2, name="dup"))
        with pytest.raises(KeyError):
            state.add(Task(wcet=1, period=5, area=3, name="dup"))
        state.add(Task(wcet=1, period=5, area=3, name="other"))
        with pytest.raises(KeyError):
            state.update("other", Task(wcet=1, period=5, area=3, name="dup"))
        _assert_parity(state, fpga10)

    def test_remove_unknown_name(self, fpga10):
        state = AdmissionState(fpga10)
        with pytest.raises(KeyError):
            state.remove("ghost")

    def test_update_rename(self, fpga10):
        state = AdmissionState(fpga10)
        state.add(Task(wcet=1, period=4, area=2, name="old"))
        state.add(Task(wcet=1, period=6, area=3, name="keep"))
        state.update("old", Task(wcet=2, period=8, area=4, name="new"))
        assert "new" in state and "old" not in state
        _assert_parity(state, fpga10)

    def test_admit_rolls_back_rejects(self, fpga10):
        state = AdmissionState(fpga10)
        assert state.admit(Task(wcet=1, period=4, area=2, name="ok"))
        # A task wider than the device fails the necessary conditions.
        assert not state.admit(Task(wcet=1, period=4, area=11, name="wide"))
        assert "wide" not in state and len(state) == 1
        _assert_parity(state, fpga10)

    def test_trial_and_rejected_admit_leave_state_unchanged(self, fpga10):
        """``trial`` returns the candidate set's portfolio verdict and,
        like a rejected ``admit``, leaves tasks and version as they were."""
        state = AdmissionState(fpga10)
        state.add(Task(wcet=1, period=4, area=2, name="ok"))
        before = (state.tasks, state.version)
        portfolio = paper_portfolio(SchedulerKind.EDF_NF)
        for task in (
            Task(wcet=1, period=8, area=3, name="fits"),
            Task(wcet=1, period=4, area=11, name="wide"),
        ):
            expected = portfolio(TaskSet([*state.tasks, task]), fpga10)
            assert state.trial(task) == expected
            assert (state.tasks, state.version) == before
        assert not state.admit(Task(wcet=1, period=4, area=11, name="wide"))
        assert (state.tasks, state.version) == before
        _assert_parity(state, fpga10)


class TestDeltaApply:
    """``AdmissionState.apply`` routes each :class:`Delta` kind to its
    churn operation."""

    def test_add_remove_update_deltas(self, fpga10):
        state = AdmissionState(fpga10)
        a = Task(wcet=1, period=4, area=2, name="a")
        b = Task(wcet=1, period=6, area=3, name="b")
        state.apply(Delta.add(a))
        state.apply(Delta.add(b))
        assert state.tasks == (a, b)
        _assert_parity(state, fpga10)
        b2 = Task(wcet=2, period=6, area=3, name="b")
        state.apply(Delta.update("b", b2))
        assert state["b"] is b2
        _assert_parity(state, fpga10)
        state.apply(Delta.remove("a"))
        assert state.tasks == (b2,)
        assert state.version == 4
        _assert_parity(state, fpga10)

    def test_delta_constructors(self):
        t = Task(wcet=1, period=4, area=2, name="t")
        assert Delta.add(t) == Delta("add", "t", t)
        assert Delta.remove("t") == Delta("remove", "t", None)
        assert Delta.update("old", t) == Delta("update", "old", t)

    def test_unknown_kind_rejected(self, fpga10):
        state = AdmissionState(fpga10, [Task(wcet=1, period=4, area=2, name="a")])
        with pytest.raises(ValueError, match="unknown delta kind"):
            state.apply(Delta("swap", "a"))
        assert state.version == 1 and len(state) == 1

    def test_results_match_each_member(self, fpga10, table2):
        state = AdmissionState(fpga10, table2)
        results = state.results()
        assert list(results) == ["DP", "GN1", "GN2"]
        for name, test in MEMBERS.items():
            assert results[name] == test(table2, fpga10)


class TestPaperTablesChurn:
    """Churn across the paper's exact knife-edge tasksets (Tables 1-3)."""

    def test_tables_rotation(self, fpga10, table1, table2, table3):
        state = AdmissionState(fpga10)
        # Walk through each table's tasks by add/remove, asserting parity
        # at every intermediate (mixed-table) resident set.
        tables = {"T1": table1, "T2": table2, "T3": table3}
        for label, table in tables.items():
            for t in table:
                state.add(
                    Task(t.wcet, t.period, t.deadline, t.area, name=f"{label}.{t.name}")
                )
                _assert_parity(state, fpga10)
        for label, table in tables.items():
            for t in table:
                state.remove(f"{label}.{t.name}")
                _assert_parity(state, fpga10)

    def test_table_verdicts_via_state(self, fpga10, table1, table2, table3):
        """The paper's accept/reject matrix, reproduced incrementally."""
        expect = {
            "T1": {"DP": True, "GN1": False, "GN2": False},
            "T2": {"DP": False, "GN1": True, "GN2": False},
            "T3": {"DP": False, "GN1": False, "GN2": True},
        }
        for label, table in (("T1", table1), ("T2", table2), ("T3", table3)):
            state = AdmissionState(fpga10, table)
            for name, want in expect[label].items():
                assert state.accepts(name) is want, (label, name)
            assert state.portfolio_accepts()


class TestDeltaCertifier:
    """Certificates must be *sound*: a True/False answer always matches
    the exact portfolio verdict after the delta; None means rerun."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
    def test_random_stream_soundness(self, exact):
        rng = random.Random(9)
        fpga = Fpga(width=80)
        state = AdmissionState(fpga)
        cert = DeltaCertifier()
        cert.refresh(state)
        certified = 0
        for i in range(120):
            names = [t.name for t in state]
            roll = rng.random()
            period = rng.randint(8, 40)
            wcet = rng.randint(1, max(1, period // 3))
            if exact:
                task = Task(
                    wcet=F(wcet),
                    period=F(period),
                    deadline=F(rng.randint(wcet, period + 4)),
                    area=rng.randint(1, 12),
                    name=f"c{i}",
                )
            else:
                task = Task(
                    wcet=wcet,
                    period=period,
                    deadline=rng.randint(wcet, period + 4),
                    area=rng.randint(1, 12),
                    name=f"c{i}",
                )
            if not names or roll < 0.55:
                answer = cert.certify_add(task)
                state.add(task)
            elif roll < 0.85:
                victim = rng.choice(names)
                answer = cert.certify_remove(victim)
                state.remove(victim)
            else:
                victim = rng.choice(names)
                replacement = Task(
                    task.wcet, task.period, task.deadline, task.area, name=victim
                )
                answer = cert.certify_update(victim, replacement)
                state.update(victim, replacement)
            truth = state.portfolio_accepts()
            if answer is None:
                cert.refresh(state)
            else:
                certified += 1
                assert answer == truth, (i, answer, truth)
        assert certified > 0  # the fast path actually fires
        assert 0.0 < cert.hit_rate < 1.0

    def test_remove_certified_under_dp_accept(self, fpga100):
        state = AdmissionState(
            fpga100, [Task(wcet=1, period=10, area=5, name=f"r{i}") for i in range(4)]
        )
        cert = DeltaCertifier()
        cert.refresh(state)
        assert cert.certify_remove("r2") is True
        state.remove("r2")
        assert state.portfolio_accepts()

    def test_unknown_cases_return_none(self, fpga10):
        state = AdmissionState(fpga10)
        cert = DeltaCertifier()
        cert.refresh(state)
        # Empty state: no Amax to reason about.
        assert cert.certify_add(Task(wcet=1, period=4, area=2, name="x")) is None
        assert cert.certify_remove("ghost") is None


class TestExampleCrossCheck:
    def test_admission_example_from_scratch_mode(self):
        """The ported example's --from-scratch replay asserts identical
        decisions between incremental and from-scratch paths."""
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "examples" / "admission_control.py"),
             "--from-scratch", "--arrivals", "60"],
            capture_output=True,
            text=True,
            timeout=240,
            cwd=root,
            env={"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "identical to from-scratch" in proc.stdout


class TestChurnExperimentCrossCheck:
    def test_experiment_parity_audit(self):
        from repro.experiments.churn import churn_experiment

        curves = churn_experiment(
            events=40, seed=7, util_buckets=(0.2, 0.5), cross_check=True
        )
        assert curves.labels == ("DP", "GN1", "GN2", "ANY")
        for label in ("DP", "GN1", "GN2"):
            for u, any_ratio in zip(curves["ANY"].utilizations, curves["ANY"].ratios):
                assert curves[label].at(u) <= any_ratio + 1e-12
