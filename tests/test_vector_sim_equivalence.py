"""Cross-validation: batched simulator verdicts == scalar simulator verdicts.

The contract (ISSUE: same ``sequential_sum`` discipline as the analytical
vector tests) is *bit-identical* schedulability verdicts between
:func:`repro.vector.sim_vec.simulate_batch` and the scalar
:func:`repro.sim.simulator.simulate` run on ``batch.taskset(i)``, for
EDF-NF and EDF-FkF, on random batches (float and integer periods), on
the paper's knife-edge tasksets, for the placement-aware
RELOCATABLE/PINNED modes — under every placement policy, with and
without static-region pre-fragmentation — and for every release
pattern: random per-row offsets against ``simulate(offsets=...)`` and
seed-shared sporadic schedules against ``simulate_release_schedule``.
"""

import warnings

import numpy as np
import pytest

from repro.fpga.device import Fpga, StaticRegion
from repro.fpga.placement import PlacementPolicy
from repro.gen.profiles import (
    GenerationProfile,
    paper_unconstrained,
    spatially_heavy_temporally_light,
    spatially_light_temporally_heavy,
)
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf
from repro.sched.edf_us import EdfUs, edf_us_threshold
from repro.sim.simulator import (
    MigrationMode,
    SimulationError,
    default_horizon,
    simulate,
)
from repro.sim.sporadic import sample_release_schedule, simulate_release_schedule
from repro.util.rngutil import rng_from_seed
from repro.vector.batch import TaskSetBatch, generate_batch
from repro.vector import xp as xp_backends
from repro.vector.sim_vec import (
    SIM_WORKERS_ENV,
    default_horizon_batch,
    resolve_sim_workers,
    sample_offsets_batch,
    sample_release_times_batch,
    simulate_batch,
)

CAPACITY = 100
FPGA = Fpga(width=CAPACITY)
SCHEDULERS = [("EDF-NF", EdfNf), ("EDF-FkF", EdfFkf)]

PROFILES = [
    paper_unconstrained(2),
    paper_unconstrained(4),
    paper_unconstrained(10),
    spatially_heavy_temporally_light(10),
    spatially_light_temporally_heavy(10),
    # integer periods: synchronized releases -> massive deadline ties,
    # exercising the (release, name) tie-break incl. tau10 < tau2
    GenerationProfile(n_tasks=6, integer_periods=True, name="int-periods-6"),
    GenerationProfile(n_tasks=12, integer_periods=True, name="int-periods-12"),
]


def _batch(profile, seed, count=30):
    """A batch spread over the utilization axis (mixed verdicts)."""
    raw = generate_batch(profile, count, rng_from_seed(seed))
    targets = rng_from_seed(seed + 100).uniform(20, 120, size=count)
    scaled = raw.scaled_to_system_utilization(targets)
    keep = scaled.feasible_mask
    return TaskSetBatch(
        scaled.wcet[keep], scaled.period[keep],
        scaled.deadline[keep], scaled.area[keep],
    )


def _assert_verdicts_match(batch, sched_name, sched_cls, factor=5):
    vec = simulate_batch(batch, CAPACITY, sched_name, horizon_factor=factor)
    for i in range(batch.count):
        ts = batch.taskset(i)
        ref = simulate(
            ts, FPGA, sched_cls(), default_horizon(ts, factor=factor)
        ).schedulable
        assert bool(vec.schedulable[i]) == ref, f"set {i}: {ts}"
    return vec


@pytest.mark.usefixtures("array_backend")
@pytest.mark.parametrize("sched_name,sched_cls", SCHEDULERS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
class TestRandomBatchEquivalence:
    def test_verdicts_bit_identical(self, profile, sched_name, sched_cls):
        batch = _batch(profile, seed=1)
        vec = _assert_verdicts_match(batch, sched_name, sched_cls)
        assert not vec.budget_exceeded.any()
        assert 0.0 <= vec.acceptance_ratio <= 1.0


@pytest.mark.usefixtures("array_backend")
@pytest.mark.parametrize("sched_name,sched_cls", SCHEDULERS)
class TestKnifeEdgeEquivalence:
    def test_paper_tables(self, sched_name, sched_cls, table1, table2, table3):
        """The paper's Tables 1-3 sets, simulated on the 10-column device."""
        batch = TaskSetBatch.from_tasksets([table1, table2, table3])
        vec = simulate_batch(batch, 10, sched_name, horizon_factor=5)
        for i in range(3):
            ts = batch.taskset(i)
            ref = simulate(
                ts, Fpga(width=10), sched_cls(), default_horizon(ts, factor=5)
            ).schedulable
            assert bool(vec.schedulable[i]) == ref

    def test_identical_periods_tie_storm(self, sched_name, sched_cls):
        """12 tasks, one shared period: every release ties every deadline,
        so selection is decided purely by the name tie-break."""
        rng = rng_from_seed(9)
        n, b = 12, 20
        period = np.full((b, n), 10.0)
        wcet = rng.uniform(0.5, 6.0, size=(b, n))
        area = rng.integers(5, 60, size=(b, n)).astype(float)
        batch = TaskSetBatch(wcet, period, period.copy(), area)
        _assert_verdicts_match(batch, sched_name, sched_cls)

    def test_completion_exactly_at_deadline(self, sched_name, sched_cls):
        """C == D: the job finishes exactly on its deadline — a success in
        both simulators (completions are processed before miss checks)."""
        wcet = np.array([[4.0, 3.0]])
        period = np.array([[4.0, 6.0]])
        area = np.array([[60.0, 40.0]])
        batch = TaskSetBatch(wcet, period, period.copy(), area)
        _assert_verdicts_match(batch, sched_name, sched_cls)


@pytest.mark.usefixtures("array_backend")
class TestFloat32Inputs:
    """Knife-edge dtype pinning: simulate_batch pins its state arrays to
    float64 at the batch boundary, so a float32 input batch yields the
    same verdicts as its exactly-upcast float64 twin — on every backend
    (float32 event arithmetic would drift the eps comparisons)."""

    def test_float32_batch_matches_float64_twin(self):
        b64 = _batch(paper_unconstrained(6), seed=61, count=20)
        f32 = TaskSetBatch(
            b64.wcet.astype(np.float32), b64.period.astype(np.float32),
            b64.deadline.astype(np.float32), b64.area.astype(np.float32),
        )
        back = TaskSetBatch(
            f32.wcet.astype(np.float64), f32.period.astype(np.float64),
            f32.deadline.astype(np.float64), f32.area.astype(np.float64),
        )
        for sched_name, _ in SCHEDULERS:
            lo = simulate_batch(f32, CAPACITY, sched_name, horizon_factor=5)
            hi = simulate_batch(back, CAPACITY, sched_name, horizon_factor=5)
            assert (lo.schedulable == hi.schedulable).all()
            assert (lo.horizon == hi.horizon).all()
            assert lo.schedulable.dtype == np.bool_
            assert lo.horizon.dtype == np.float64

    def test_float32_verdicts_match_scalar_reference(self):
        """The float32 batch agrees with the scalar simulator evaluated
        on the rounded (then exactly-upcast) parameters, bit for bit."""
        b64 = _batch(paper_unconstrained(4), seed=62, count=12)
        f32 = TaskSetBatch(
            b64.wcet.astype(np.float32), b64.period.astype(np.float32),
            b64.deadline.astype(np.float32), b64.area.astype(np.float32),
        )
        vec = simulate_batch(f32, CAPACITY, "EDF-NF", horizon_factor=5)
        for i in range(f32.count):
            ts = f32.taskset(i)  # Task stores python floats — exact upcast
            ref = simulate(
                ts, FPGA, EdfNf(), default_horizon(ts, factor=5)
            ).schedulable
            assert bool(vec.schedulable[i]) == ref, f"set {i}: {ts}"


class TestBudgetAndHorizon:
    def test_budget_exceeded_rows_marked_not_schedulable(self):
        batch = _batch(paper_unconstrained(4), seed=3, count=10)
        res = simulate_batch(batch, CAPACITY, "EDF-NF", max_events=3)
        assert res.budget_exceeded.all()
        assert not res.schedulable.any()
        # the scalar reference raises where the batch runner records
        ts = batch.taskset(0)
        with pytest.raises(SimulationError):
            simulate(ts, FPGA, EdfNf(), default_horizon(ts), max_events=3)

    def test_default_horizon_matches_scalar(self):
        batch = _batch(paper_unconstrained(5), seed=4, count=8)
        hz = default_horizon_batch(batch, factor=7)
        for i in range(batch.count):
            assert hz[i] == float(default_horizon(batch.taskset(i), factor=7))

    def test_explicit_horizon_broadcasts(self):
        batch = _batch(paper_unconstrained(3), seed=5, count=6)
        scalar_h = simulate_batch(batch, CAPACITY, "EDF-NF", horizon=50.0)
        array_h = simulate_batch(
            batch, CAPACITY, "EDF-NF", horizon=np.full(batch.count, 50.0)
        )
        assert (scalar_h.schedulable == array_h.schedulable).all()
        for i in range(batch.count):
            ref = simulate(batch.taskset(i), FPGA, EdfNf(), 50.0).schedulable
            assert bool(scalar_h.schedulable[i]) == ref

    def test_events_counted(self):
        batch = _batch(paper_unconstrained(3), seed=6, count=5)
        res = simulate_batch(batch, CAPACITY, "EDF-NF", horizon_factor=3)
        assert (res.events > 0).all()


#: Narrow devices make fragmentation bite at small batch sizes, so the
#: scalar reference stays affordable while verdicts remain mixed.
PLACEMENT_DEVICES = [
    Fpga(width=30),
    Fpga(width=30, static_regions=(StaticRegion(8, 3), StaticRegion(20, 2))),
]
PLACEMENT_MODES = [MigrationMode.RELOCATABLE, MigrationMode.PINNED]
NARROW = GenerationProfile(n_tasks=5, area_min=1, area_max=12, name="narrow-5")


def _placement_batch(seed, count=12):
    raw = generate_batch(NARROW, count, rng_from_seed(seed))
    targets = rng_from_seed(seed + 50).uniform(8.0, 34.0, size=count)
    scaled = raw.scaled_to_system_utilization(targets)
    keep = scaled.feasible_mask
    return TaskSetBatch(
        scaled.wcet[keep], scaled.period[keep],
        scaled.deadline[keep], scaled.area[keep],
    )


def _assert_placement_match(batch, fpga, mode, policy, sched_name, sched_cls,
                            factor=4):
    vec = simulate_batch(
        batch, fpga, sched_name,
        mode=mode, placement_policy=policy, horizon_factor=factor,
    )
    assert vec.mode is mode and vec.policy is policy
    for i in range(batch.count):
        ts = batch.taskset(i)
        ref = simulate(
            ts, fpga, sched_cls(), default_horizon(ts, factor=factor),
            mode=mode, placement_policy=policy,
        ).schedulable
        assert bool(vec.schedulable[i]) == ref, (
            f"set {i} under {mode}/{policy.value}/{sched_name}: {ts}"
        )
    return vec


@pytest.mark.usefixtures("array_backend")
@pytest.mark.parametrize("fpga", PLACEMENT_DEVICES,
                         ids=["plain", "static-regions"])
@pytest.mark.parametrize("policy", list(PlacementPolicy),
                         ids=lambda p: p.value)
@pytest.mark.parametrize("mode", PLACEMENT_MODES, ids=lambda m: m.value)
class TestPlacementEquivalence:
    def test_verdicts_bit_identical_nf(self, mode, policy, fpga):
        batch = _placement_batch(seed=21)
        vec = _assert_placement_match(batch, fpga, mode, policy, "EDF-NF", EdfNf)
        assert not vec.budget_exceeded.any()

    def test_verdicts_bit_identical_fkf(self, mode, policy, fpga):
        batch = _placement_batch(seed=22)
        _assert_placement_match(batch, fpga, mode, policy, "EDF-FkF", EdfFkf)


class TestPlacementKnifeEdges:
    def test_static_region_fragmentation_blocks(self):
        """8 free columns split 4+4 by a static block: an area-5 job runs
        under FREE (capacity check) but not under RELOCATABLE — the same
        witness as the scalar test_sim_placement_modes case."""
        fpga = Fpga(width=10, static_regions=(StaticRegion(4, 2),))
        batch = TaskSetBatch(
            np.array([[2.0]]), np.array([[10.0]]),
            np.array([[4.0]]), np.array([[5.0]]),
        )
        free = simulate_batch(batch, fpga, "EDF-NF", horizon_factor=1)
        reloc = simulate_batch(
            batch, fpga, "EDF-NF", mode=MigrationMode.RELOCATABLE,
            horizon_factor=1,
        )
        assert free.schedulable.all()
        assert not reloc.schedulable.any()

    def test_exact_fill_contiguous(self):
        """Widths 6+4 exactly fill the 10-column device; the third job is
        blocked at zero remaining columns (NF skips it, FkF stops)."""
        wcet = np.array([[3.0, 3.0, 2.0]])
        period = np.array([[10.0, 10.0, 10.0]])
        area = np.array([[6.0, 4.0, 3.0]])
        batch = TaskSetBatch(wcet, period, period.copy(), area)
        for sched_name, sched_cls in SCHEDULERS:
            for mode in PLACEMENT_MODES:
                for policy in PlacementPolicy:
                    _assert_placement_match(
                        batch, Fpga(width=10), mode, policy,
                        sched_name, sched_cls, factor=2,
                    )

    def test_pinned_resume_requires_original_columns(self):
        """The scalar pinned-eviction witness, through the batch path."""
        # long: C=10, T=D=20, A=6; burst: C=1, T=5, D=2, A=10.
        wcet = np.array([[10.0, 1.0]])
        period = np.array([[20.0, 5.0]])
        deadline = np.array([[20.0, 2.0]])
        area = np.array([[6.0, 10.0]])
        batch = TaskSetBatch(wcet, period, deadline, area)
        for policy in PlacementPolicy:
            _assert_placement_match(
                batch, Fpga(width=10), MigrationMode.PINNED, policy,
                "EDF-NF", EdfNf, factor=2,
            )


class TestEdgeCases:
    def test_empty_batch(self):
        """B == 0 must yield an empty result (and a quiet nan ratio),
        not a reduction error — callers slice batches freely."""
        empty = TaskSetBatch(*(np.empty((0, 3)) for _ in range(4)))
        for mode in MigrationMode:
            res = simulate_batch(
                empty, Fpga(width=10), "EDF-NF", mode=mode, horizon=5.0
            )
            assert res.count == 0
            assert res.schedulable.shape == (0,)
            assert not res.budget_exceeded.any()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(res.acceptance_ratio)

    def test_zero_task_rows_rejected(self):
        degenerate = TaskSetBatch(*(np.empty((2, 0)) for _ in range(4)))
        with pytest.raises(ValueError):
            simulate_batch(degenerate, 10)

    def test_single_task_rows(self):
        """N == 1 exercises the degenerate sort/selection shapes."""
        batch = _batch(paper_unconstrained(1), seed=8, count=12)
        for sched_name, sched_cls in SCHEDULERS:
            _assert_verdicts_match(batch, sched_name, sched_cls)
        for mode in PLACEMENT_MODES:
            _assert_placement_match(
                batch, FPGA, mode, PlacementPolicy.FIRST_FIT, "EDF-NF", EdfNf
            )

    def test_zero_remaining_capacity_tie(self):
        """Areas summing *exactly* to the capacity: the boundary of the
        <= fit comparison must match the scalar queue for both fit
        disciplines (NF skips the overflowing job, FkF stops on it)."""
        wcet = np.array([[2.0, 2.0, 1.0], [2.0, 2.0, 1.0]])
        period = np.array([[8.0, 8.0, 3.0], [8.0, 8.0, 2.9]])
        area = np.array([[60.0, 40.0, 10.0], [60.0, 40.0, 10.0]])
        batch = TaskSetBatch(wcet, period, period.copy(), area)
        for sched_name, sched_cls in SCHEDULERS:
            vec = _assert_verdicts_match(batch, sched_name, sched_cls, factor=2)
            assert vec.count == 2

    def test_oversized_area_never_places(self):
        """Regression: an area wider than the device (here wider than
        256, past the narrow hole dtype) must block forever — the raw
        width used to wrap in the uint8 comparison and falsely place."""
        fpga = Fpga(width=100)
        batch = TaskSetBatch(
            np.array([[1.0]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[300.0]]),
        )
        for mode in PLACEMENT_MODES:
            for policy in PlacementPolicy:
                _assert_placement_match(
                    batch, fpga, mode, policy, "EDF-NF", EdfNf, factor=1
                )
                vec = simulate_batch(
                    batch, fpga, "EDF-NF", mode=mode,
                    placement_policy=policy, horizon_factor=1,
                )
                assert not vec.schedulable.any()

    def test_non_integral_area_rejected_for_placement(self):
        batch = TaskSetBatch(
            np.array([[1.0]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[2.5]]),
        )
        assert simulate_batch(batch, 10).schedulable.all()  # FREE is fine
        with pytest.raises(ValueError):
            simulate_batch(batch, 10, mode=MigrationMode.RELOCATABLE)

    def test_placement_needs_integral_width_device(self):
        batch = TaskSetBatch(
            np.array([[1.0]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[2.0]]),
        )
        with pytest.raises(ValueError):
            simulate_batch(batch, 10.5, mode=MigrationMode.PINNED)


def _offsets_map(batch, offsets, i):
    """Row ``i`` of an offsets array as the scalar simulate() mapping."""
    return {f"tau{j + 1}": float(offsets[i, j]) for j in range(batch.n_tasks)}


def _assert_offset_verdicts_match(batch, offsets, sched_name, sched_cls,
                                  fpga=FPGA, factor=5, mode=MigrationMode.FREE):
    vec = simulate_batch(
        batch, fpga, sched_name, offsets=offsets,
        horizon_factor=factor, mode=mode,
    )
    for i in range(batch.count):
        ts = batch.taskset(i)
        omap = _offsets_map(batch, offsets, i)
        ref = simulate(
            ts, fpga, sched_cls(),
            default_horizon(ts, factor=factor, offsets=omap),
            offsets=omap, mode=mode,
        ).schedulable
        assert bool(vec.schedulable[i]) == ref, f"set {i}: {ts} offsets {omap}"
    return vec


def _assert_sporadic_verdicts_match(batch, seed, sched_name, sched_cls,
                                    jitter=0.5, fpga=FPGA, factor=5,
                                    mode=MigrationMode.FREE):
    """Shared-seed contract: one generator drives the batched sampler, an
    identically-seeded twin drives per-row scalar sample_release_schedule
    calls in row order — verdicts must agree bit for bit."""
    vec = simulate_batch(
        batch, fpga, sched_name, release="sporadic", jitter=jitter,
        rng=rng_from_seed(seed), horizon_factor=factor, mode=mode,
    )
    hz = default_horizon_batch(batch, factor=factor)
    scalar_rng = rng_from_seed(seed)
    for i in range(batch.count):
        ts = batch.taskset(i)
        schedule = sample_release_schedule(ts, hz[i], scalar_rng, jitter)
        ref = simulate_release_schedule(
            ts, fpga, sched_cls(), hz[i], schedule, mode=mode
        ).schedulable
        assert bool(vec.schedulable[i]) == ref, f"set {i}: {ts}"
    return vec


@pytest.mark.usefixtures("array_backend")
@pytest.mark.parametrize("sched_name,sched_cls", SCHEDULERS)
class TestOffsetEquivalence:
    """Random per-row offsets: batch verdicts == simulate(offsets=...)."""

    @pytest.mark.parametrize(
        "profile",
        [paper_unconstrained(4), paper_unconstrained(10),
         GenerationProfile(n_tasks=6, integer_periods=True, name="int-6")],
        ids=lambda p: p.name,
    )
    def test_random_offsets_bit_identical(self, profile, sched_name, sched_cls):
        batch = _batch(profile, seed=31)
        offsets = sample_offsets_batch(batch, rng_from_seed(310))
        vec = _assert_offset_verdicts_match(batch, offsets, sched_name, sched_cls)
        assert vec.release == "periodic"

    def test_zero_offsets_match_synchronous(self, sched_name, sched_cls):
        batch = _batch(paper_unconstrained(5), seed=32, count=15)
        zero = np.zeros((batch.count, batch.n_tasks))
        plain = simulate_batch(batch, CAPACITY, sched_name, horizon_factor=5)
        offs = simulate_batch(
            batch, CAPACITY, sched_name, offsets=zero, horizon_factor=5
        )
        assert (plain.schedulable == offs.schedulable).all()
        assert (plain.horizon == offs.horizon).all()

    def test_offset_equal_period(self, sched_name, sched_cls):
        """Knife edge: every first release exactly one period late."""
        batch = _batch(paper_unconstrained(4), seed=33, count=12)
        _assert_offset_verdicts_match(
            batch, batch.period.copy(), sched_name, sched_cls
        )

    def test_offset_at_and_beyond_horizon(self, sched_name, sched_cls):
        """Knife edge: a task whose offset reaches the (explicit) horizon
        never releases — in both simulators (strict `release < horizon`)."""
        batch = _batch(paper_unconstrained(3), seed=34, count=10)
        horizon = 30.0
        offsets = np.zeros((batch.count, batch.n_tasks))
        offsets[:, 0] = horizon  # exactly at the horizon
        offsets[:, -1] = horizon + 5.0  # beyond it
        vec = simulate_batch(
            batch, CAPACITY, sched_name, offsets=offsets, horizon=horizon
        )
        for i in range(batch.count):
            ts = batch.taskset(i)
            ref = simulate(
                ts, FPGA, sched_cls(), horizon,
                offsets=_offsets_map(batch, offsets, i),
            ).schedulable
            assert bool(vec.schedulable[i]) == ref

    def test_offsets_with_placement_modes(self, sched_name, sched_cls):
        batch = _placement_batch(seed=35, count=8)
        offsets = sample_offsets_batch(batch, rng_from_seed(350))
        for fpga in PLACEMENT_DEVICES:
            for mode in PLACEMENT_MODES:
                _assert_offset_verdicts_match(
                    batch, offsets, sched_name, sched_cls,
                    fpga=fpga, factor=4, mode=mode,
                )


@pytest.mark.usefixtures("array_backend")
@pytest.mark.parametrize("sched_name,sched_cls", SCHEDULERS)
class TestSporadicEquivalence:
    """Seed-shared sporadic schedules: batch == simulate_release_schedule."""

    @pytest.mark.parametrize(
        "profile",
        [paper_unconstrained(4), paper_unconstrained(10),
         GenerationProfile(n_tasks=6, integer_periods=True, name="int-6")],
        ids=lambda p: p.name,
    )
    def test_shared_seed_bit_identical(self, profile, sched_name, sched_cls):
        batch = _batch(profile, seed=41)
        vec = _assert_sporadic_verdicts_match(batch, 410, sched_name, sched_cls)
        assert vec.release == "sporadic"

    def test_zero_jitter_matches_periodic(self, sched_name, sched_cls):
        """Knife edge: jitter 0 degenerates to the synchronous-periodic
        pattern — same releases, same verdicts (float periods, so no
        cross-task deadline ties to expose the pseudo-name rank)."""
        batch = _batch(paper_unconstrained(5), seed=42, count=20)
        periodic = simulate_batch(batch, CAPACITY, sched_name, horizon_factor=5)
        sporadic = simulate_batch(
            batch, CAPACITY, sched_name, release="sporadic", jitter=0.0,
            rng=rng_from_seed(420), horizon_factor=5,
        )
        assert (periodic.schedulable == sporadic.schedulable).all()

    def test_release_times_replay_matches_rng(self, sched_name, sched_cls):
        """Precomputed release_times replay == in-call rng sampling."""
        batch = _batch(paper_unconstrained(4), seed=43, count=10)
        hz = default_horizon_batch(batch, factor=5)
        times = sample_release_times_batch(batch, hz, rng_from_seed(430), 0.5)
        replay = simulate_batch(
            batch, CAPACITY, sched_name, release="sporadic",
            release_times=times, horizon_factor=5,
        )
        sampled = simulate_batch(
            batch, CAPACITY, sched_name, release="sporadic",
            rng=rng_from_seed(430), horizon_factor=5,
        )
        assert (replay.schedulable == sampled.schedulable).all()

    def test_sporadic_with_placement_modes(self, sched_name, sched_cls):
        batch = _placement_batch(seed=44, count=8)
        for mode in PLACEMENT_MODES:
            _assert_sporadic_verdicts_match(
                batch, 440, sched_name, sched_cls,
                fpga=PLACEMENT_DEVICES[1], factor=4, mode=mode,
            )


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - CI always installs hypothesis
    given = None

if given is not None:

    class TestReleasePatternProperties:
        """Hypothesis sweep over seeds/jitter: the equivalences hold on
        arbitrary random batches, not just the fixed ones above."""

        @given(seed=st.integers(0, 10**6))
        @settings(max_examples=10, deadline=None)
        def test_random_offsets(self, seed):
            rng = rng_from_seed(seed)
            n = int(rng.integers(1, 7))
            batch = _batch(paper_unconstrained(n), seed=seed, count=8)
            if batch.count == 0:
                return
            offsets = sample_offsets_batch(batch, rng)
            for sched_name, sched_cls in SCHEDULERS:
                _assert_offset_verdicts_match(
                    batch, offsets, sched_name, sched_cls, factor=3
                )

        @given(seed=st.integers(0, 10**6),
               jitter=st.floats(0.0, 2.0, allow_nan=False))
        @settings(max_examples=10, deadline=None)
        def test_random_sporadic_schedules(self, seed, jitter):
            rng = rng_from_seed(seed)
            n = int(rng.integers(1, 7))
            batch = _batch(paper_unconstrained(n), seed=seed + 1, count=8)
            if batch.count == 0:
                return
            for sched_name, sched_cls in SCHEDULERS:
                _assert_sporadic_verdicts_match(
                    batch, seed, sched_name, sched_cls, jitter=jitter,
                    factor=3,
                )


class TestReleasePatternValidation:
    def _tiny(self):
        return TaskSetBatch(
            np.array([[1.0]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[2.0]]),
        )

    def test_unknown_release_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, release="bursty")

    def test_sporadic_needs_exactly_one_source(self):
        t = self._tiny()
        with pytest.raises(ValueError):
            simulate_batch(t, 10, release="sporadic")  # neither
        times = np.array([[[0.0, np.inf]]])
        with pytest.raises(ValueError):
            simulate_batch(
                t, 10, release="sporadic",
                rng=rng_from_seed(1), release_times=times,
            )  # both

    def test_periodic_rejects_sporadic_knobs(self):
        t = self._tiny()
        with pytest.raises(ValueError):
            simulate_batch(t, 10, rng=rng_from_seed(1))
        with pytest.raises(ValueError):
            simulate_batch(t, 10, release_times=np.array([[[0.0]]]))

    def test_offsets_incompatible_with_sporadic(self):
        with pytest.raises(ValueError):
            simulate_batch(
                self._tiny(), 10, release="sporadic",
                rng=rng_from_seed(1), offsets=np.array([[1.0]]),
            )

    def test_bad_offsets_rejected(self):
        t = self._tiny()
        with pytest.raises(ValueError):
            simulate_batch(t, 10, offsets=np.array([[-1.0]]))
        with pytest.raises(ValueError):
            simulate_batch(t, 10, offsets=np.array([[np.inf]]))
        with pytest.raises(ValueError):
            simulate_batch(t, 10, jitter=-0.1)

    def test_bad_release_times_rejected(self):
        t = self._tiny()
        for times in (
            np.array([[0.0]]),  # not 3-D
            np.zeros((2, 1, 1)),  # wrong B
            np.array([[[3.0, 1.0]]]),  # descending
            np.array([[[-1.0]]]),  # negative
        ):
            with pytest.raises(ValueError):
                simulate_batch(
                    t, 10, release="sporadic", release_times=times
                )

    def test_release_gap_below_deadline_rejected(self):
        """Regression: a replayed gap shorter than the deadline would
        clobber the live job in the one-slot-per-task layout and return
        a false schedulable verdict — it must be rejected instead."""
        batch = TaskSetBatch(
            np.array([[3.0]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[60.0]]),
        )
        with pytest.raises(ValueError, match="deadline"):
            simulate_batch(
                batch, 100, release="sporadic",
                release_times=np.array([[[0.0, 1.0, np.inf]]]),
                horizon=10.0,
            )
        # gap == deadline is the legal knife edge (job decided at its
        # deadline before the successor releases)
        ok = simulate_batch(
            batch, 100, release="sporadic",
            release_times=np.array([[[0.0, 4.0, np.inf]]]),
            horizon=10.0,
        )
        assert ok.count == 1

    def test_sampler_validation(self):
        t = self._tiny()
        with pytest.raises(ValueError):
            sample_release_times_batch(t, 10.0, rng_from_seed(1), -0.5)
        with pytest.raises(ValueError):
            sample_release_times_batch(t, 0.0, rng_from_seed(1))


class TestValidation:
    def _tiny(self):
        return TaskSetBatch(
            np.array([[1.0]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[2.0]]),
        )

    def test_scheduler_instances_accepted(self):
        batch = self._tiny()
        assert simulate_batch(batch, 10, EdfNf()).schedulable.all()
        assert simulate_batch(batch, 10, EdfFkf()).schedulable.all()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, "RoundRobin")
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, EdfUs(edf_us_threshold(2)))
        with pytest.raises(TypeError):
            simulate_batch(self._tiny(), 10, 42)

    def test_unconstrained_deadline_rejected(self):
        batch = TaskSetBatch(
            np.array([[1.0]]), np.array([[4.0]]),
            np.array([[5.0]]), np.array([[2.0]]),
        )
        with pytest.raises(ValueError):
            simulate_batch(batch, 10)

    def test_degenerate_parameters_rejected(self):
        bad_wcet = TaskSetBatch(
            np.array([[1e-12]]), np.array([[4.0]]),
            np.array([[4.0]]), np.array([[2.0]]),
        )
        with pytest.raises(ValueError):
            simulate_batch(bad_wcet, 10)
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, horizon=0.0)
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, max_events=0)
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, horizon_factor=0)


def _assert_results_equal(a, b, counters=False):
    """Every per-row field of two SimBatchResults, bit-for-bit."""
    assert (a.schedulable == b.schedulable).all()
    assert (a.budget_exceeded == b.budget_exceeded).all()
    assert (a.events == b.events).all()
    assert np.array_equal(a.horizon, b.horizon)
    assert np.array_equal(a.min_slack, b.min_slack, equal_nan=True)
    if counters:
        assert a.kernel_passes == b.kernel_passes
        assert a.event_steps == b.event_steps


@pytest.mark.usefixtures("array_backend")
class TestFusionKnifeEdges:
    """Fused stepping must be invisible in every per-row output."""

    def test_fuse_one_equals_fused(self):
        batch = _batch(paper_unconstrained(10), seed=21)
        for sched_name, _ in SCHEDULERS:
            base = simulate_batch(batch, CAPACITY, sched_name, fuse=1)
            # fuse=1 is the unfused path: one event step per kernel pass
            assert base.kernel_passes == base.event_steps
            for fuse in (2, 8):
                fused = simulate_batch(batch, CAPACITY, sched_name, fuse=fuse)
                _assert_results_equal(base, fused)
                assert fused.event_steps == base.event_steps
                assert fused.kernel_passes <= base.kernel_passes

    def test_fuse_beyond_events_per_row(self):
        """K larger than any row's event count: everything decides in
        very few passes, outputs untouched."""
        batch = _batch(paper_unconstrained(4), seed=22, count=10)
        base = simulate_batch(batch, CAPACITY, "EDF-NF", fuse=1)
        huge = simulate_batch(batch, CAPACITY, "EDF-NF", fuse=10 * base.event_steps)
        _assert_results_equal(base, huge)
        assert huge.kernel_passes == 1

    def test_max_events_exhaustion_mid_chunk(self):
        """The budget counts events, not passes: a budget that runs out
        in the middle of a fused chunk must match the unfused verdicts."""
        batch = _batch(paper_unconstrained(10), seed=24)
        base = simulate_batch(batch, CAPACITY, "EDF-NF", max_events=5, fuse=1)
        assert base.budget_exceeded.any()  # the knife edge is exercised
        for fuse in (2, 4, 8):
            fused = simulate_batch(batch, CAPACITY, "EDF-NF", max_events=5, fuse=fuse)
            _assert_results_equal(base, fused)
        assert (base.events[xp_backends.asnumpy(base.budget_exceeded)] == 6).all()

    def test_instrumentation_counters(self):
        batch = _batch(paper_unconstrained(10), seed=25)
        res = simulate_batch(batch, CAPACITY, "EDF-NF", fuse=8)
        assert res.kernel_passes >= 1
        assert res.event_steps >= res.kernel_passes
        assert res.fusion_factor == pytest.approx(
            res.event_steps / res.kernel_passes
        )
        assert int(res.events.max()) <= res.event_steps

    def test_fuse_validation(self):
        batch = _batch(paper_unconstrained(4), seed=26, count=5)
        with pytest.raises(ValueError):
            simulate_batch(batch, CAPACITY, fuse=0)
        with pytest.raises(ValueError):
            simulate_batch(batch, CAPACITY, fuse=1.5)


class TestShardingKnifeEdges:
    """sim_workers must be invisible in every per-row output.

    Process pools are numpy-only here: the backend-parametrized
    equivalence above already pins fused verdicts per backend, and the
    sharded path re-enters ``simulate_batch`` per shard with the same
    backend name, so numpy sharding plus per-backend fusion covers the
    matrix.
    """

    def test_not_divisible_and_prime_batch(self):
        full = _batch(paper_unconstrained(10), seed=31)
        batch = full.rows(slice(0, 29))  # prime: indivisible by any worker count
        assert batch.count == 29
        serial = simulate_batch(batch, CAPACITY, "EDF-NF", sim_workers=1)
        for workers in (2, 3, 7):
            sharded = simulate_batch(
                batch, CAPACITY, "EDF-NF", sim_workers=workers
            )
            _assert_results_equal(serial, sharded)

    def test_single_row_batch(self):
        batch = _batch(paper_unconstrained(4), seed=32, count=3)
        one = TaskSetBatch(
            batch.wcet[:1], batch.period[:1], batch.deadline[:1], batch.area[:1]
        )
        serial = simulate_batch(one, CAPACITY, "EDF-NF", sim_workers=1)
        sharded = simulate_batch(one, CAPACITY, "EDF-NF", sim_workers=4)
        _assert_results_equal(serial, sharded, counters=True)

    def test_empty_batch(self):
        empty = TaskSetBatch(
            np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3))
        )
        res = simulate_batch(empty, CAPACITY, "EDF-NF", sim_workers=4, fuse=8)
        assert res.schedulable.shape == (0,)
        assert res.kernel_passes == 0 and res.event_steps == 0

    def test_sharded_offsets_and_sporadic(self):
        batch = _batch(paper_unconstrained(10), seed=33)
        offsets = sample_offsets_batch(batch, rng_from_seed(34))
        serial = simulate_batch(batch, CAPACITY, "EDF-NF", offsets=offsets)
        sharded = simulate_batch(
            batch, CAPACITY, "EDF-NF", offsets=offsets, sim_workers=3
        )
        _assert_results_equal(serial, sharded)
        # sporadic: the release schedules are sampled from the full-batch
        # stream *before* the split, so shards replay identical draws
        spo_serial = simulate_batch(
            batch, CAPACITY, "EDF-NF",
            release="sporadic", jitter=0.4, rng=rng_from_seed(35),
        )
        spo_sharded = simulate_batch(
            batch, CAPACITY, "EDF-NF",
            release="sporadic", jitter=0.4, rng=rng_from_seed(35), sim_workers=3,
        )
        _assert_results_equal(spo_serial, spo_sharded)

    def test_shard_counters_sum_to_shard_work(self):
        """Counters account the work actually done: each shard steps its
        own rows, so the sharded totals exceed the serial globals while
        the per-row ``events`` stay bit-identical."""
        batch = _batch(paper_unconstrained(10), seed=36)
        serial = simulate_batch(batch, CAPACITY, "EDF-NF", sim_workers=1)
        sharded = simulate_batch(batch, CAPACITY, "EDF-NF", sim_workers=3)
        assert sharded.event_steps >= serial.event_steps
        assert sharded.kernel_passes >= serial.kernel_passes
        assert (serial.events == sharded.events).all()

    def test_resolve_sim_workers_precedence(self, monkeypatch):
        monkeypatch.delenv(SIM_WORKERS_ENV, raising=False)
        assert resolve_sim_workers(None) == 1
        assert resolve_sim_workers(3) == 3
        monkeypatch.setenv(SIM_WORKERS_ENV, "5")
        assert resolve_sim_workers(None) == 5
        assert resolve_sim_workers(2) == 2  # kwarg beats env
        with pytest.raises(ValueError):
            resolve_sim_workers(0)
        monkeypatch.setenv(SIM_WORKERS_ENV, "zero")
        with pytest.raises(ValueError):
            resolve_sim_workers(None)

    def test_env_var_drives_simulate_batch(self, monkeypatch):
        batch = _batch(paper_unconstrained(4), seed=38, count=9)
        serial = simulate_batch(batch, CAPACITY, "EDF-NF")
        monkeypatch.setenv(SIM_WORKERS_ENV, "2")
        via_env = simulate_batch(batch, CAPACITY, "EDF-NF")
        _assert_results_equal(serial, via_env)
