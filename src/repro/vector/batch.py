"""Struct-of-arrays batches of same-size tasksets.

A :class:`TaskSetBatch` holds ``B`` tasksets of ``N`` tasks each as four
``(B, N)`` float arrays — the layout the vectorized tests want (and the
cache-friendly one: each bound touches whole columns of parameters).
Conversion to/from the object model is provided for cross-validation and
for feeding individual sets to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.gen.profiles import GenerationProfile
from repro.gen.random_tasksets import _MIN_FACTOR
from repro.model.task import Task, TaskSet
from repro.vector.xp import host as np


def sequential_sum(arr, axis: int = -1):
    """Left-to-right summation along ``axis``.

    ``np.sum`` switches to pairwise summation above 8 elements, which
    re-associates floating-point adds and can flip strict-inequality
    verdicts at knife-edge tasksets relative to the scalar reference
    (which accumulates left-to-right).  The vectorized tests use this so
    their verdicts are bit-identical to :mod:`repro.core`.
    """
    arr = np.moveaxis(arr, axis, -1)
    out = arr[..., 0].copy()
    for j in range(1, arr.shape[-1]):
        out += arr[..., j]
    return out


@dataclass(frozen=True)
class TaskSetBatch:
    """``B`` tasksets x ``N`` tasks in struct-of-arrays form."""

    wcet: "np.ndarray"  # (B, N) float64
    period: "np.ndarray"  # (B, N) float64
    deadline: "np.ndarray"  # (B, N) float64
    area: "np.ndarray"  # (B, N) float64 (integral values)

    def __post_init__(self) -> None:
        shape = self.wcet.shape
        if len(shape) != 2:
            raise ValueError(f"expected (B, N) arrays, got shape {shape}")
        for name in ("period", "deadline", "area"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(
                    f"{name} shape {arr.shape} does not match wcet shape {shape}"
                )

    # -- shape ------------------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of tasksets ``B``."""
        return int(self.wcet.shape[0])

    @property
    def n_tasks(self) -> int:
        """Tasks per set ``N``."""
        return int(self.wcet.shape[1])

    def __len__(self) -> int:
        return self.count

    # -- aggregates ---------------------------------------------------------------

    @property
    def time_utilization(self):
        """``UT`` per taskset, shape ``(B,)``."""
        return sequential_sum(self.wcet / self.period, axis=1)

    @property
    def system_utilization(self):
        """``US`` per taskset, shape ``(B,)``."""
        return sequential_sum(self.wcet * self.area / self.period, axis=1)

    @property
    def max_area(self):
        return np.max(self.area, axis=1)

    @property
    def min_area(self):
        return np.min(self.area, axis=1)

    # -- conversions -------------------------------------------------------------

    @classmethod
    def from_tasksets(cls, tasksets: Sequence[TaskSet]) -> "TaskSetBatch":
        """Pack same-length tasksets into a batch (floats)."""
        if not tasksets:
            raise ValueError("need at least one taskset")
        n = len(tasksets[0])
        if any(len(ts) != n for ts in tasksets):
            raise ValueError("all tasksets in a batch must have the same size")
        b = len(tasksets)
        wcet = np.empty((b, n))
        period = np.empty((b, n))
        deadline = np.empty((b, n))
        area = np.empty((b, n))
        for bi, ts in enumerate(tasksets):
            for ni, t in enumerate(ts):
                wcet[bi, ni] = float(t.wcet)
                period[bi, ni] = float(t.period)
                deadline[bi, ni] = float(t.deadline)
                area[bi, ni] = float(t.area)
        return cls(wcet, period, deadline, area)

    def taskset(self, index: int) -> TaskSet:
        """Materialize one row as a :class:`TaskSet`."""
        return TaskSet(
            Task(
                wcet=float(self.wcet[index, i]),
                period=float(self.period[index, i]),
                deadline=float(self.deadline[index, i]),
                area=int(self.area[index, i]),
                name=f"tau{i + 1}",
            )
            for i in range(self.n_tasks)
        )

    def to_tasksets(self) -> List[TaskSet]:
        return [self.taskset(i) for i in range(self.count)]

    def rows(self, index) -> "TaskSetBatch":
        """The rows ``index`` selects: any numpy row index — a slice
        (a view, shared storage), an int array or a bool mask (copies).

        Rows are independent in every vector kernel, so selecting along
        the batch axis is how :func:`repro.vector.grid.simulate_grid`
        cuts its merged calls (and its ``sim_workers`` shares): results
        computed on ``rows(a:b)`` slices concatenate to the full-batch
        result bit-for-bit.
        """
        return TaskSetBatch(
            self.wcet[index], self.period[index],
            self.deadline[index], self.area[index],
        )

    def scaled_to_system_utilization(self, targets) -> "TaskSetBatch":
        """Rescale every set's WCETs to hit per-set ``US`` targets.

        Vectorized analogue of
        :meth:`repro.model.task.TaskSet.scaled_to_system_utilization`.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if tuple(targets.shape) != (self.count,):
            raise ValueError(f"targets must have shape ({self.count},)")
        factor = targets / self.system_utilization
        return TaskSetBatch(
            self.wcet * factor[:, None], self.period, self.deadline, self.area
        )

    @property
    def feasible_mask(self):
        """Per-set mask: every task has ``C <= min(D, T)`` (``(B,)`` bool)."""
        ok = (self.wcet <= self.deadline) & (self.wcet <= self.period)
        return np.all(ok, axis=1)


def raw_draws(profile: GenerationProfile, count: int, rng: "np.random.Generator"):
    """The profile's random draws for ``count`` tasksets, in stream order.

    Returns ``(period, factor, area)``, each ``(count, N)``: float64
    periods, utilization factors clipped below at ``_MIN_FACTOR``, and
    *integer* (int64) areas.  This is the one routine that consumes a
    profile's stream: :func:`generate_batch` builds whole batches from
    it, and the binned sampler filters its rows before building any.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = profile.n_tasks
    if profile.integer_periods:
        lo = int(np.ceil(profile.period_min))
        hi = int(np.floor(profile.period_max))
        if lo > hi:
            raise ValueError("no integers in period range")
        period = rng.integers(lo, hi + 1, size=(count, n)).astype(np.float64)
    else:
        period = rng.uniform(profile.period_min, profile.period_max, size=(count, n))
    factor = rng.uniform(profile.util_min, profile.util_max, size=(count, n))
    np.maximum(factor, _MIN_FACTOR, out=factor)
    area = rng.integers(profile.area_min, profile.area_max + 1, size=(count, n))
    return period, factor, area


def generate_batch(
    profile: GenerationProfile, count: int, rng: "np.random.Generator"
) -> TaskSetBatch:
    """Draw ``count`` tasksets from ``profile`` directly into arrays.

    Identical distributions to
    :func:`repro.gen.random_tasksets.generate_taskset`, but one vectorized
    draw instead of ``count * N`` Python-object constructions.
    """
    period, factor, area = raw_draws(profile, count, rng)
    return TaskSetBatch(
        wcet=period * factor,
        period=period,
        deadline=period.copy(),
        area=area.astype(np.float64),
    )
