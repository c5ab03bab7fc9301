"""Tests for the adaptive release-pattern search (`repro.search`).

Four pillars:

* **Soundness** (hypothesis): every adaptively-sampled offset stays in
  ``[0, T_i)`` and every sporadic gap stays ``>= T_i`` whatever the
  proposals were refit to — so any miss a sampled pattern exhibits is a
  legal counterexample.
* **Invariants**: the adaptive searched curve is pointwise <= the
  synchronous/periodic curve (the same intersection invariant the
  uniform search asserts).
* **Parity**: the scalar twins replay the batched drivers bit-for-bit
  on shared per-row streams, and the uniform scalar/vector searches
  report identical best-effort ``min_slack`` on a shared-seed fixture.
* **Budget efficiency** (the PR's acceptance fixture): at equal pattern
  budget on a seeded sweep, the adaptive search certifies at least as
  many unschedulable tasksets as the uniform search in every bucket and
  strictly more in at least one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.ablations import offset_ablation, sporadic_ablation
from repro.experiments.acceptance import feasible_batch_at
from repro.fpga.device import Fpga
from repro.gen.profiles import paper_unconstrained
from repro.model.task import Task, TaskSet
from repro.sched.edf_nf import EdfNf
from repro.search import (
    SearchConfig,
    UNIT_MAX,
    UnitProposal,
    adaptive_pattern_search,
    offsets_from_unit,
    release_times_from_unit,
    round_sizes,
)
from repro.search.drivers import (
    adaptive_offset_search_batch,
    adaptive_sporadic_search_batch,
    uniform_offset_search_batch,
    uniform_sporadic_search_batch,
)
from repro.sim.offsets import adaptive_offset_search, simulate_with_offsets
from repro.sim.simulator import default_horizon, simulate
from repro.sim.sporadic import adaptive_sporadic_search, simulate_sporadic
from repro.util.rngutil import rng_from_seed, spawn_rngs
from repro.vector.batch import TaskSetBatch
from repro.vector.sim_vec import default_horizon_batch, simulate_batch

FPGA = Fpga(width=100)


def _empty_taskset() -> TaskSet:
    """The model forbids constructing empty tasksets, but duck-typed and
    legacy callers can still hand one to the searches — build one through
    the backdoor to pin the guard."""
    ts = TaskSet.__new__(TaskSet)
    ts._tasks = ()
    return ts


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"elite_frac": 0.0},
            {"elite_frac": 1.5},
            {"uniform_floor": -0.1},
            {"uniform_floor": 1.1},
            {"init_sigma": 0.0},
            {"sigma_floor": 0.0},
            {"sigma_floor": 0.5, "init_sigma": 0.3},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestRoundSizes:
    @pytest.mark.parametrize("budget,rounds", [(0, 4), (3, 4), (10, 3), (10, 1)])
    def test_sums_to_budget(self, budget, rounds):
        sizes = round_sizes(budget, rounds)
        assert sum(sizes) == budget
        assert all(s >= 1 for s in sizes)
        assert sizes == sorted(sizes, reverse=True)  # remainder goes early

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            round_sizes(-1, 2)
        with pytest.raises(ValueError):
            round_sizes(4, 0)


class TestSampleLegality:
    """Soundness pillar: samples stay legal whatever the refits did."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_tasks=st.integers(1, 6),
        patterns=st.integers(1, 8),
        slack_scale=st.floats(0.01, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_proposal_stays_in_unit_interval(
        self, seed, n_tasks, patterns, slack_scale
    ):
        """Refit on adversarial elites, sample again: still in [0, 1)."""
        rng = rng_from_seed(seed)
        proposal = UnitProposal(1, n_tasks, SearchConfig())
        u = proposal.sample_row(0, rng, patterns, explore=True)
        assert np.all(u >= 0) and np.all(u < 1)
        # Slacks that drag elites toward the boundary.
        slack = (rng.standard_normal(patterns) - 1.0) * slack_scale
        proposal.refit_row(0, u, slack)
        u2 = proposal.sample_row(0, rng, patterns, explore=False)
        assert np.all(u2 >= 0) and np.all(u2 < 1)

    @given(
        seed=st.integers(0, 2**32 - 1),
        periods=st.lists(st.floats(0.5, 50.0), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_offsets_stay_below_period(self, seed, periods):
        period = np.array(periods)
        rng = rng_from_seed(seed)
        u = np.clip(rng.uniform(0.0, 1.0, (5, period.size)), 0.0, UNIT_MAX)
        offs = offsets_from_unit(period, u)
        assert np.all(offs >= 0)
        assert np.all(offs < period)
        # The extreme coordinate still maps strictly below the period.
        top = offsets_from_unit(period, np.full((1, period.size), UNIT_MAX))
        assert np.all(top < period)

    @given(
        seed=st.integers(0, 2**32 - 1),
        periods=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=5),
        jitter=st.floats(0.0, 2.0),
        horizon=st.floats(10.0, 200.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_sporadic_gaps_respect_min_interarrival(
        self, seed, periods, jitter, horizon
    ):
        period = np.array([periods])
        rng = rng_from_seed(seed)
        u = np.clip(
            rng.uniform(0.0, 1.0, period.shape), 0.0, UNIT_MAX
        )
        times = release_times_from_unit(
            period, u, np.array([horizon]), jitter
        )
        assert times[0, :, 0].min() == 0.0  # first release is t=0
        finite = np.isfinite(times)
        assert np.all(times[finite] < horizon)
        # Every gap >= T (the sporadic model's one obligation), asserted
        # in add-form — r_k + T computed like the release accumulation
        # itself — so the property is exact in float64 (a difference
        # r_{k+1} - r_k could round one ulp below T and falsely fail).
        lower = times[:, :, :-1] + np.broadcast_to(
            period[:, :, None], times[:, :, :-1].shape
        )
        ok = np.isfinite(times[:, :, 1:]) & np.isfinite(lower)
        assert np.all(times[:, :, 1:][ok] >= lower[ok])

    def test_release_times_validate_inputs(self):
        with pytest.raises(ValueError):
            release_times_from_unit(
                np.ones((1, 2)), np.full((1, 2), 1.0), np.array([10.0]), 0.5
            )
        with pytest.raises(ValueError):
            release_times_from_unit(
                np.ones((1, 2)), np.zeros((1, 2)), np.array([0.0]), 0.5
            )
        with pytest.raises(ValueError):
            release_times_from_unit(
                np.ones((1, 2)), np.zeros((1, 2)), np.array([10.0]), -0.5
            )


class TestAdaptiveLoop:
    def test_early_stop_saves_budget(self):
        """A row that certifies a miss in round 1 spends no more patterns."""
        calls = []

        def score(live, u):
            calls.append((live.copy(), u.shape))
            slack = np.ones((live.size, u.shape[1]))
            ok = np.ones_like(slack, dtype=bool)
            if 0 in live:  # row 0 fails immediately
                k = int(np.nonzero(live == 0)[0][0])
                slack[k, 0] = -1.0
                ok[k, 0] = False
            return slack, ok

        out = adaptive_pattern_search(
            2, 3, score, spawn_rngs(1, 2), budget=12,
            config=SearchConfig(rounds=3),
        )
        assert out.found.tolist() == [True, False]
        assert out.min_slack[0] == -1.0
        assert out.patterns_used[0] == 4  # one round of 12/3
        assert out.patterns_used[1] == 12
        assert out.rounds_run == 3
        # Rounds 2 and 3 only saw the surviving row.
        assert [live.tolist() for live, _ in calls] == [[0, 1], [1], [1]]

    def test_all_found_stops_loop(self):
        def score(live, u):
            shape = (live.size, u.shape[1])
            return np.full(shape, -1.0), np.zeros(shape, dtype=bool)

        out = adaptive_pattern_search(
            3, 2, score, spawn_rngs(2, 3), budget=20,
            config=SearchConfig(rounds=4),
        )
        assert out.found.all()
        assert out.rounds_run == 1
        assert (out.patterns_used == 5).all()

    def test_validates_shapes_and_rngs(self):
        with pytest.raises(ValueError, match="one rng per row"):
            adaptive_pattern_search(
                2, 2, lambda l, u: (None, None), [rng_from_seed(0)], 4
            )
        with pytest.raises(ValueError, match="score_fn returned"):
            adaptive_pattern_search(
                1, 2,
                lambda l, u: (np.zeros((1, 1)), np.zeros((1, 1), bool)),
                [rng_from_seed(0)], 4,
                config=SearchConfig(rounds=1),  # one round of 4 patterns
            )

    def test_trivial_inputs(self):
        out = adaptive_pattern_search(0, 3, None, [], 10)
        assert out.count == 0 and out.rounds_run == 0
        out = adaptive_pattern_search(
            2, 3, None, spawn_rngs(0, 2), 0
        )
        assert not out.found.any()
        assert np.isinf(out.min_slack).all()


class TestSlackChannelBackends:
    """The min-slack channel agrees with the scalar reference."""

    def test_min_slack_matches_scalar(self):
        batch = feasible_batch_at(
            paper_unconstrained(5), 80.0, 20, rng_from_seed(21)
        )
        offs = rng_from_seed(22).uniform(0.0, batch.period)
        res = simulate_batch(
            batch, FPGA, "EDF-NF", offsets=offs, horizon_factor=5
        )
        assert np.array_equal(res.min_slack < 0, ~res.schedulable)
        for i in range(batch.count):
            ts = batch.taskset(i)
            od = {t.name: float(offs[i, j]) for j, t in enumerate(ts)}
            ref = simulate(
                ts, FPGA, EdfNf(),
                default_horizon(ts, factor=5, offsets=od), offsets=od,
            )
            assert bool(res.schedulable[i]) == ref.schedulable
            assert float(res.min_slack[i]) == float(ref.min_slack)

    def test_uniform_search_slack_parity(self):
        """Satellite cross-check: scalar and vector *searches* report the
        identical best-effort min-slack on a shared-seed fixture (US=50),
        and identical verdicts in a bucket where patterns fail (US=80)."""
        for us in (50.0, 80.0):
            batch = feasible_batch_at(
                paper_unconstrained(4), us, 6, rng_from_seed(23)
            )
            out = uniform_offset_search_batch(
                batch, FPGA, "EDF-NF", patterns=5,
                rng=rng_from_seed(24), horizon_factor=5,
            )
            scalar_rng = rng_from_seed(24)
            for i in range(batch.count):
                ts = batch.taskset(i)
                # simulate_with_offsets draws every pattern before it
                # simulates, so a failing set leaves the stream aligned.
                ref = simulate_with_offsets(
                    ts, FPGA, EdfNf(), default_horizon(ts, factor=5),
                    scalar_rng, samples=5, include_synchronous=False,
                )
                assert ref.schedulable == (not out.found[i])
                if us == 50.0:
                    # Every pattern survives: no early exit on either
                    # side, so the searches saw the same five patterns.
                    assert ref.schedulable
                    assert float(ref.min_slack) == float(out.min_slack[i])
            if us == 80.0:
                assert out.found.any() and not out.found.all()

    def test_uniform_sporadic_search_slack_parity(self):
        for us in (50.0, 80.0):
            batch = feasible_batch_at(
                paper_unconstrained(4), us, 6, rng_from_seed(25)
            )
            batch_rng = rng_from_seed(26)
            out = uniform_sporadic_search_batch(
                batch, FPGA, "EDF-NF", patterns=4,
                rng=batch_rng, horizon_factor=5,
            )
            scalar_rng = rng_from_seed(26)
            for i in range(batch.count):
                ts = batch.taskset(i)
                # simulate_sporadic draws every schedule before it
                # simulates, so a failing set leaves the stream aligned.
                ref = simulate_sporadic(
                    ts, FPGA, EdfNf(), default_horizon(ts, factor=5),
                    scalar_rng, samples=4, include_periodic=False,
                )
                assert ref.schedulable == (not out.found[i])
                if us == 50.0:
                    # Every pattern survives: no early exit on either
                    # side, so the searches saw the same four patterns.
                    assert ref.schedulable
                    assert float(ref.min_slack) == float(out.min_slack[i])
            # Both sides consumed the shared stream alike.
            assert scalar_rng.random() == batch_rng.random()
            if us == 80.0:
                assert out.found.any() and not out.found.all()


class TestScalarVectorAdaptiveParity:
    """The scalar twins replay the batched drivers bit-for-bit."""

    def test_offset_twin(self):
        batch = feasible_batch_at(
            paper_unconstrained(6), 80.0, 8, rng_from_seed(31)
        )
        cfg = SearchConfig(rounds=3)
        out = adaptive_offset_search_batch(
            batch, FPGA, "EDF-NF", budget=9,
            rngs=spawn_rngs(32, batch.count), config=cfg, horizon_factor=6,
        )
        rngs = spawn_rngs(32, batch.count)
        for i in range(batch.count):
            ts = batch.taskset(i)
            res = adaptive_offset_search(
                ts, FPGA, EdfNf(), float(default_horizon(ts, factor=6)),
                rngs[i], budget=9, config=cfg, include_synchronous=False,
            )
            assert res.schedulable == (not out.found[i])
            assert float(res.min_slack) == float(out.min_slack[i])

    def test_sporadic_twin(self):
        batch = feasible_batch_at(
            paper_unconstrained(6), 80.0, 8, rng_from_seed(33)
        )
        cfg = SearchConfig(rounds=3)
        out = adaptive_sporadic_search_batch(
            batch, FPGA, "EDF-NF", budget=9,
            rngs=spawn_rngs(34, batch.count), max_jitter_factor=0.5,
            config=cfg, horizon_factor=6,
        )
        rngs = spawn_rngs(34, batch.count)
        for i in range(batch.count):
            ts = batch.taskset(i)
            res = adaptive_sporadic_search(
                ts, FPGA, EdfNf(), float(default_horizon(ts, factor=6)),
                rngs[i], budget=9, max_jitter_factor=0.5, config=cfg,
                include_periodic=False,
            )
            assert res.schedulable == (not out.found[i])
            assert float(res.min_slack) == float(out.min_slack[i])


class TestAdaptiveTwinBaselines:
    """The scalar twins check the synchronous/periodic pattern first,
    outside the budget, and validate their budget knobs."""

    TWINS = {
        "offset": (adaptive_offset_search, "include_synchronous"),
        "sporadic": (adaptive_sporadic_search, "include_periodic"),
    }

    @staticmethod
    def _dhall_set():
        # Misses synchronously/periodically: two light unit tasks with
        # earlier deadlines starve the heavy one on 2 columns.
        return TaskSet([
            Task(wcet=0.5, period=1, area=1, name="light1"),
            Task(wcet=0.5, period=1, area=1, name="light2"),
            Task(wcet=1.9, period=2, area=1, name="heavy"),
        ])

    @pytest.mark.parametrize("twin", sorted(TWINS))
    def test_baseline_miss_returned_without_search(self, twin):
        search, _ = self.TWINS[twin]
        ts = self._dhall_set()
        rng = rng_from_seed(5)
        res = search(ts, Fpga(width=2), EdfNf(), 4.0, rng, budget=6)
        assert not res.schedulable
        assert res.misses[0].task == "heavy"
        assert res.misses == simulate(ts, Fpga(width=2), EdfNf(), 4.0).misses
        # The budget was never touched: the stream is where it started.
        assert rng.random() == rng_from_seed(5).random()

    @pytest.mark.parametrize("twin", sorted(TWINS))
    def test_zero_budget_keeps_baseline(self, twin):
        search, _ = self.TWINS[twin]
        ts = TaskSet([Task(wcet=1, period=4, area=2, name="a")])
        res = search(ts, FPGA, EdfNf(), 8.0, rng_from_seed(5), budget=0)
        base = simulate(ts, FPGA, EdfNf(), 8.0)
        assert res.schedulable
        assert res.min_slack == base.min_slack

    @pytest.mark.parametrize("twin", sorted(TWINS))
    def test_zero_budget_without_baseline_rejected(self, twin):
        search, flag = self.TWINS[twin]
        ts = TaskSet([Task(wcet=1, period=4, area=2, name="a")])
        with pytest.raises(ValueError, match="nothing to simulate"):
            search(ts, FPGA, EdfNf(), 8.0, rng_from_seed(5), budget=0, **{flag: False})

    @pytest.mark.parametrize("twin", sorted(TWINS))
    def test_negative_budget_rejected(self, twin):
        search, _ = self.TWINS[twin]
        ts = TaskSet([Task(wcet=1, period=4, area=2, name="a")])
        with pytest.raises(ValueError, match="budget must be >= 0"):
            search(ts, FPGA, EdfNf(), 8.0, rng_from_seed(5), budget=-1)

    def test_negative_jitter_rejected(self):
        ts = TaskSet([Task(wcet=1, period=4, area=2, name="a")])
        with pytest.raises(ValueError, match="max_jitter_factor must be >= 0"):
            adaptive_sporadic_search(
                ts, FPGA, EdfNf(), 8.0, rng_from_seed(5), max_jitter_factor=-0.1
            )


class TestSearchInvariants:
    """The PR's acceptance fixture: seeded sweeps where the adaptive
    search dominates the uniform one at equal budget, while both stay
    below the synchronous/periodic baseline."""

    def test_offset_adaptive_dominates_uniform(self):
        grid = (70.0, 80.0, 85.0)
        kwargs = dict(us_grid=grid, samples=30, offset_samples=20, seed=43)
        uniform = offset_ablation(**kwargs)
        adaptive = offset_ablation(
            **kwargs, search="adaptive", search_rounds=4, elite_frac=0.25
        )
        sync = adaptive["sim:synchronous"].ratios
        u = uniform["sim:offset-search"].ratios
        a = adaptive["sim:offset-search"].ratios
        # Intersection invariant: searched <= synchronous, pointwise.
        assert all(s >= x for s, x in zip(sync, a))
        assert all(s >= x for s, x in zip(sync, u))
        # Equal budget: adaptive certifies at least as many misses in
        # every bucket, strictly more in at least one.
        assert all(ua >= aa for ua, aa in zip(u, a))
        assert any(ua > aa for ua, aa in zip(u, a))

    def test_sporadic_adaptive_dominates_uniform(self):
        grid = (80.0, 85.0, 90.0)
        kwargs = dict(
            us_grid=grid, samples=40, sporadic_samples=30, seed=47
        )
        uniform = sporadic_ablation(**kwargs)
        adaptive = sporadic_ablation(
            **kwargs, search="adaptive", search_rounds=4, elite_frac=0.25
        )
        periodic = adaptive["sim:periodic"].ratios
        u = uniform["sim:sporadic-search"].ratios
        a = adaptive["sim:sporadic-search"].ratios
        assert all(p >= x for p, x in zip(periodic, a))
        assert all(p >= x for p, x in zip(periodic, u))
        assert all(ua >= aa for ua, aa in zip(u, a))
        assert any(ua > aa for ua, aa in zip(u, a))

    def test_unknown_search_rejected(self):
        with pytest.raises(ValueError, match="unknown search"):
            offset_ablation(us_grid=(50.0,), samples=2, search="magic")
        with pytest.raises(ValueError, match="unknown search"):
            sporadic_ablation(us_grid=(50.0,), samples=2, search="magic")


class TestEmptyTasksetGuards:
    """Regression: the searches used to crash on ``max()`` over an empty
    offset assignment; they now return the trivially-schedulable run."""

    def test_simulate_with_offsets_empty(self):
        res = simulate_with_offsets(
            _empty_taskset(), FPGA, EdfNf(), 10.0, rng_from_seed(1), samples=3
        )
        assert res.schedulable
        assert np.isinf(res.min_slack)

    def test_simulate_sporadic_empty(self):
        res = simulate_sporadic(
            _empty_taskset(), FPGA, EdfNf(), 10.0, rng_from_seed(1), samples=3
        )
        assert res.schedulable

    def test_adaptive_twins_empty(self):
        assert adaptive_offset_search(
            _empty_taskset(), FPGA, EdfNf(), 10.0, rng_from_seed(1), budget=3
        ).schedulable
        assert adaptive_sporadic_search(
            _empty_taskset(), FPGA, EdfNf(), 10.0, rng_from_seed(1), budget=3
        ).schedulable

    def test_default_horizon_batch_empty_mirror(self):
        """The batched horizon-extension path mirrors the guard: no task
        axis to reduce over, no crash, trivial windows."""
        empty = TaskSetBatch(*(np.zeros((3, 0)) for _ in range(4)))
        assert np.array_equal(
            default_horizon_batch(empty), np.zeros(3)
        )
        assert np.array_equal(
            default_horizon_batch(empty, offsets=np.zeros((3, 0))),
            np.zeros(3),
        )


class TestSearchMinSlackRecording:
    """Satellite: early exit no longer discards the near-miss record."""

    def test_scalar_search_records_min_over_patterns(self):
        batch = feasible_batch_at(
            paper_unconstrained(4), 60.0, 4, rng_from_seed(41)
        )
        ts = batch.taskset(0)
        horizon = default_horizon(ts, factor=5)
        rng = rng_from_seed(42)
        res = simulate_with_offsets(
            ts, FPGA, EdfNf(), horizon, rng, samples=6
        )
        # Replay the same patterns one by one: the recorded slack is the
        # minimum over all of them, not the last run's.
        rng = rng_from_seed(42)
        res_sync = simulate(ts, FPGA, EdfNf(), horizon)
        slacks = [res_sync.min_slack]
        from repro.sim.offsets import sample_offsets

        for _ in range(6):
            od = sample_offsets(ts, rng)
            r = simulate(
                ts, FPGA, EdfNf(),
                horizon + max(od.values()), offsets=od,
            )
            slacks.append(r.min_slack)
            if not r.schedulable:
                break
        assert float(res.min_slack) == float(min(slacks))

    def test_adaptive_outcome_slack_negative_iff_found(self):
        batch = feasible_batch_at(
            paper_unconstrained(6), 85.0, 12, rng_from_seed(43)
        )
        out = adaptive_offset_search_batch(
            batch, FPGA, "EDF-NF", budget=8,
            rngs=spawn_rngs(44, batch.count), horizon_factor=6,
        )
        assert np.array_equal(out.min_slack < 0, out.found)
        assert (out.patterns_used[~out.found] == 8).all()
        assert (out.patterns_used[out.found] <= 8).all()
