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

import tracemalloc
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
from repro.sched.base import Scheduler
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf
from repro.sim.simulator import (
    MigrationMode,
    SimulationError,
    default_horizon,
    simulate,
)
from repro.sim.sporadic import sample_release_schedule, simulate_release_schedule
from repro.util.rngutil import rng_from_seed
from repro.vector import sim_vec
from repro.vector.batch import TaskSetBatch, generate_batch
from repro.vector.grid import simulate_grid, stack_rows
from repro.vector.sim_vec import (
    default_horizon_batch,
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


@pytest.mark.parametrize("sched_name,sched_cls", SCHEDULERS)
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
class TestRandomBatchEquivalence:
    def test_verdicts_bit_identical(self, profile, sched_name, sched_cls):
        batch = _batch(profile, seed=1)
        vec = _assert_verdicts_match(batch, sched_name, sched_cls)
        assert not vec.budget_exceeded.any()
        assert vec.count == batch.count


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


class TestFloat32Inputs:
    """Knife-edge dtype pinning: simulate_batch pins its state arrays to
    float64 at the batch boundary, so a float32 input batch yields the
    same verdicts as its exactly-upcast float64 twin (float32 event
    arithmetic would drift the eps comparisons)."""

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
        """B == 0 must yield an empty result, not a reduction error —
        callers slice batches freely."""
        empty = TaskSetBatch(*(np.empty((0, 3)) for _ in range(4)))
        for mode in MigrationMode:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = simulate_batch(
                    empty, Fpga(width=10), "EDF-NF", mode=mode, horizon=5.0
                )
            assert res.count == 0
            assert res.schedulable.shape == (0,)
            assert not res.budget_exceeded.any()
            assert res.kernel_passes == 0 and np.isnan(res.fusion_factor)

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
    hz = default_horizon_batch(batch, factor=factor)
    vec = simulate_batch(
        batch, fpga, sched_name,
        release_times=sample_release_times_batch(
            batch, hz, rng_from_seed(seed), jitter
        ),
        horizon_factor=factor, mode=mode,
    )
    scalar_rng = rng_from_seed(seed)
    for i in range(batch.count):
        ts = batch.taskset(i)
        schedule = sample_release_schedule(ts, hz[i], scalar_rng, jitter)
        ref = simulate_release_schedule(
            ts, fpga, sched_cls(), hz[i], schedule, mode=mode
        ).schedulable
        assert bool(vec.schedulable[i]) == ref, f"set {i}: {ts}"
    return vec


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
        _assert_offset_verdicts_match(batch, offsets, sched_name, sched_cls)

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
        _assert_sporadic_verdicts_match(batch, 410, sched_name, sched_cls)

    def test_zero_jitter_matches_periodic(self, sched_name, sched_cls):
        """Knife edge: jitter 0 degenerates to the synchronous-periodic
        pattern — same releases, same verdicts (float periods, so no
        cross-task deadline ties to expose the pseudo-name rank)."""
        batch = _batch(paper_unconstrained(5), seed=42, count=20)
        periodic = simulate_batch(batch, CAPACITY, sched_name, horizon_factor=5)
        times = sample_release_times_batch(
            batch, default_horizon_batch(batch, factor=5), rng_from_seed(420), 0.0
        )
        sporadic = simulate_batch(
            batch, CAPACITY, sched_name, release_times=times, horizon_factor=5,
        )
        assert (periodic.schedulable == sporadic.schedulable).all()

    def test_sporadic_with_placement_modes(self, sched_name, sched_cls):
        batch = _placement_batch(seed=44, count=8)
        for mode in PLACEMENT_MODES:
            _assert_sporadic_verdicts_match(
                batch, 440, sched_name, sched_cls,
                fpga=PLACEMENT_DEVICES[1], factor=4, mode=mode,
            )


def _same_result(a, b):
    assert np.array_equal(a.schedulable, b.schedulable)
    assert np.array_equal(a.budget_exceeded, b.budget_exceeded)
    assert np.array_equal(a.events, b.events)
    assert np.array_equal(a.min_slack, b.min_slack)
    assert (a.kernel_passes, a.event_steps) == (b.kernel_passes, b.event_steps)


class TestSporadicReplayInPlace:
    """The replay reads the caller's table as given: padding and releases
    past the horizon are the caller's business, and the call holds no
    copy of the table."""

    def _table(self, batch, factor):
        return sample_release_times_batch(
            batch, default_horizon_batch(batch, factor=factor), rng_from_seed(62)
        )

    def test_no_trailing_inf_column_replays_like_padded(self):
        batch = _batch(paper_unconstrained(6), seed=63)
        table = self._table(batch, 4)
        assert np.isinf(table[:, :, -1]).all()
        trimmed = table[:, :, :-1]
        assert np.isfinite(trimmed[:, :, -1]).any()  # some task fills every column
        for sched in ("EDF-NF", "EDF-FkF"):
            _same_result(
                simulate_batch(batch, CAPACITY, sched, release_times=table, horizon_factor=4),
                simulate_batch(batch, CAPACITY, sched, release_times=trimmed, horizon_factor=4),
            )

    def test_releases_past_the_horizon_never_fire(self):
        batch = _batch(paper_unconstrained(6), seed=64)
        table = self._table(batch, 8)  # sampled past the simulated window
        hz = default_horizon_batch(batch, factor=4)
        clipped = np.where(table < hz[:, None, None], table, np.inf)
        assert (clipped != table).any()
        _same_result(
            simulate_batch(batch, CAPACITY, release_times=table, horizon_factor=4),
            simulate_batch(batch, CAPACITY, release_times=clipped, horizon_factor=4),
        )

    def test_sporadic_peak_memory_close_to_periodic(self):
        """A 2,048-row sporadic call allocates about what the same rows
        run periodic do: the table the caller holds (about 11 MB) is read
        in place, never copied."""
        batch = _batch(paper_unconstrained(10), seed=61, count=2600).rows(slice(0, 2048))
        assert batch.count == 2048
        table = self._table(batch, 20)

        def peak(**kwargs):
            tracemalloc.start()
            try:
                simulate_batch(batch, CAPACITY, **kwargs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        periodic = peak()
        sporadic = peak(release_times=table)
        assert sporadic <= 1.5 * periodic, (sporadic / 2**20, periodic / 2**20)


class TestPhases:
    """Each fused pass runs module-level phases that a tracer outside the
    package can wrap by path (as perfbench's ``wrap_function`` does)."""

    PHASES = ("_release", "_select", "_advance", "_compact")

    def test_every_phase_wrappable_and_results_unchanged(self, monkeypatch):
        free = _batch(paper_unconstrained(6), seed=65)
        placed = _placement_batch(seed=66, count=12)
        table = sample_release_times_batch(
            free, default_horizon_batch(free, factor=4), rng_from_seed(67)
        )
        runs = [
            lambda: simulate_batch(free, CAPACITY, "EDF-FkF", horizon_factor=4),
            lambda: simulate_batch(
                placed, PLACEMENT_DEVICES[1], horizon_factor=4,
                mode=MigrationMode.RELOCATABLE,
            ),
            lambda: simulate_batch(free, CAPACITY, release_times=table, horizon_factor=4),
        ]
        expected = [run() for run in runs]
        calls = {}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        for name in self.PHASES:
            monkeypatch.setattr(sim_vec, name, counting(name, getattr(sim_vec, name)))
        for run, want in zip(runs, expected):
            calls.clear()
            calls.update(dict.fromkeys(self.PHASES, 0))
            got = run()
            assert all(calls.values()), calls
            _same_result(got, want)


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

    @pytest.mark.parametrize(
        "kwarg", ["release", "rng", "jitter", "fuse", "sim_workers"]
    )
    def test_removed_kwargs_rejected(self, kwarg):
        """One serial kernel: sporadic input is replay-only, fusion is
        the FUSE constant and row sharding lives in simulate_grid."""
        with pytest.raises(TypeError):
            simulate_batch(self._tiny(), 10, **{kwarg: 1})

    def test_offsets_incompatible_with_sporadic(self):
        with pytest.raises(ValueError, match="offsets"):
            simulate_batch(
                self._tiny(), 10, release_times=np.array([[[0.0, np.inf]]]),
                offsets=np.array([[1.0]]),
            )

    def test_bad_offsets_rejected(self):
        t = self._tiny()
        with pytest.raises(ValueError):
            simulate_batch(t, 10, offsets=np.array([[-1.0]]))
        with pytest.raises(ValueError):
            simulate_batch(t, 10, offsets=np.array([[np.inf]]))

    @pytest.mark.parametrize("times,match", [
        (np.array([[0.0]]), "shape"),
        (np.zeros((2, 1, 1)), "shape"),
        (np.zeros((1, 2, 1)), "shape"),
        (np.zeros((1, 1, 0)), "shape"),
        (np.array([[[0.0, -1.0]]]), ">= 0"),
        (np.array([[[0.0, np.nan, np.inf]]]), ">= 0"),
        (np.array([[[8.0, 4.0]]]), "ascending"),
        (np.array([[[0.0, 3.0, np.inf]]]), "deadline"),
        # past the horizon, where the replay never reads, still checked
        (np.array([[[0.0, 40.0, 41.0]]]), "deadline"),
    ], ids=["not-3d", "wrong-rows", "wrong-tasks", "no-columns", "negative",
            "nan", "descending", "too-close", "too-close-past-horizon"])
    def test_bad_release_times_rejected(self, times, match):
        with pytest.raises(ValueError, match=match):
            simulate_batch(self._tiny(), 10, release_times=times, horizon=10.0)

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
                batch, 100,
                release_times=np.array([[[0.0, 1.0, np.inf]]]),
                horizon=10.0,
            )
        # gap == deadline is the legal knife edge (job decided at its
        # deadline before the successor releases)
        ok = simulate_batch(
            batch, 100,
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
        class LongestFirst(Scheduler):
            """A priority order the batched kernels do not replicate."""

            name = "longest-first"
            skip_blocked = True

            def order(self, jobs):
                return sorted(jobs, key=lambda j: (-j.task.wcet,) + j.sort_key)

        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, "RoundRobin")
        with pytest.raises(ValueError):
            simulate_batch(self._tiny(), 10, LongestFirst())
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


class TestFusionKnifeEdges:
    """Fused stepping must be invisible in every per-row output."""

    def test_fuse_one_equals_fused(self, monkeypatch):
        batch = _batch(paper_unconstrained(10), seed=21)
        for sched_name, _ in SCHEDULERS:
            monkeypatch.setattr(sim_vec, "FUSE", 1)
            base = simulate_batch(batch, CAPACITY, sched_name)
            # FUSE = 1 is the unfused path: one event step per kernel pass
            assert base.kernel_passes == base.event_steps
            for fuse in (2, 8):
                monkeypatch.setattr(sim_vec, "FUSE", fuse)
                fused = simulate_batch(batch, CAPACITY, sched_name)
                _assert_results_equal(base, fused)
                assert fused.event_steps == base.event_steps
                assert fused.kernel_passes <= base.kernel_passes

    def test_fuse_beyond_events_per_row(self, monkeypatch):
        """K larger than any row's event count: everything decides in
        very few passes, outputs untouched."""
        batch = _batch(paper_unconstrained(4), seed=22, count=10)
        monkeypatch.setattr(sim_vec, "FUSE", 1)
        base = simulate_batch(batch, CAPACITY, "EDF-NF")
        monkeypatch.setattr(sim_vec, "FUSE", 10 * base.event_steps)
        huge = simulate_batch(batch, CAPACITY, "EDF-NF")
        _assert_results_equal(base, huge)
        assert huge.kernel_passes == 1

    def test_max_events_exhaustion_mid_chunk(self, monkeypatch):
        """The budget counts events, not passes: a budget that runs out
        in the middle of a fused chunk must match the unfused verdicts."""
        batch = _batch(paper_unconstrained(10), seed=24)
        monkeypatch.setattr(sim_vec, "FUSE", 1)
        base = simulate_batch(batch, CAPACITY, "EDF-NF", max_events=5)
        assert base.budget_exceeded.any()  # the knife edge is exercised
        for fuse in (2, 4, 8):
            monkeypatch.setattr(sim_vec, "FUSE", fuse)
            fused = simulate_batch(batch, CAPACITY, "EDF-NF", max_events=5)
            _assert_results_equal(base, fused)
        assert (base.events[base.budget_exceeded] == 6).all()

    def test_instrumentation_counters(self):
        batch = _batch(paper_unconstrained(10), seed=25)
        assert sim_vec.FUSE == 8  # the documented default
        res = simulate_batch(batch, CAPACITY, "EDF-NF")
        assert res.kernel_passes >= 1
        assert res.event_steps >= res.kernel_passes
        assert res.fusion_factor == pytest.approx(
            res.event_steps / res.kernel_passes
        )
        assert int(res.events.max()) <= res.event_steps


def _assert_grids_equal(a, b):
    """Every per-row field of two simulate_grid results, bit-for-bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.schedulable, y.schedulable)
        assert np.array_equal(x.min_slack, y.min_slack, equal_nan=True)
        assert x.budget_exceeded == y.budget_exceeded


class TestShardingKnifeEdges:
    """simulate_grid's sim_workers must be invisible in every per-row
    output."""

    CONFIGS = [dict(scheduler="EDF-NF"), dict(scheduler="EDF-FkF")]

    def _grid(self, batches, workers, **kwargs):
        flat = (
            stack_rows(batches) if batches
            else TaskSetBatch(*(np.empty((0, 3)) for _ in range(4)))
        )
        return simulate_grid(
            flat, [b.count for b in batches], FPGA, self.CONFIGS,
            sim_workers=workers, horizon_factor=5, **kwargs,
        )

    def test_not_divisible_and_prime_grid(self):
        full = _batch(paper_unconstrained(10), seed=31)
        batches = [full.rows(slice(0, 12)), full.rows(slice(12, 29))]
        assert sum(b.count for b in batches) == 29  # prime: no even split
        serial = self._grid(batches, 1)
        for workers in (2, 3, 7):
            _assert_grids_equal(serial, self._grid(batches, workers))

    def test_single_row_grid(self):
        one = _batch(paper_unconstrained(4), seed=32, count=3).rows(slice(0, 1))
        _assert_grids_equal(self._grid([one], 1), self._grid([one], 4))

    def test_empty_grid(self):
        empty = TaskSetBatch(*(np.empty((0, 3)) for _ in range(4)))
        for batches in ([], [empty, empty]):
            results = self._grid(batches, 4)
            assert [r.schedulable.shape for r in results] == [(0,), (0,)]
            assert [r.budget_exceeded for r in results] == [0, 0]

    def test_sharded_offsets_and_sporadic(self):
        full = _batch(paper_unconstrained(10), seed=33)
        batches = [full.rows(slice(0, 7)), full.rows(slice(7, None))]
        offsets = np.concatenate(
            [sample_offsets_batch(b, rng_from_seed(34)) for b in batches]
        )
        _assert_grids_equal(
            self._grid(batches, 1, offsets=offsets),
            self._grid(batches, 3, offsets=offsets),
        )
        # sporadic: schedules are sampled in the parent, in call order,
        # from each batch's own stream, so workers replay identical draws
        def sporadic(workers):
            rngs = [rng_from_seed(35 + i) for i in range(len(batches))]
            return self._grid(batches, workers, release_rngs=rngs, jitter=0.4)

        _assert_grids_equal(sporadic(1), sporadic(3))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_sim_workers_below_one_raises(self, workers):
        batch = _batch(paper_unconstrained(4), seed=37, count=3)
        with pytest.raises(ValueError, match="sim_workers must be >= 1"):
            self._grid([batch], workers)
