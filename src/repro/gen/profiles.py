"""Declarative taskset-generation profiles.

A :class:`GenerationProfile` captures the §6 recipe parameters:

* ``n_tasks`` tasks, each with
* area uniform over integers ``[area_min, area_max]``,
* period uniform over the real interval ``(period_min, period_max)``,
* implicit deadline (``D = T``),
* WCET = period × factor, factor uniform over ``(util_min, util_max)``.

The paper names four distribution classes for Figure 4 but not their
numeric cutoffs; the values below are our documented choices
(README, "Design notes" §4.8) and are trivially overridable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GenerationProfile:
    """Parameter box for random taskset generation (see module docs)."""

    n_tasks: int
    area_min: int = 1
    area_max: int = 100
    period_min: float = 5.0
    period_max: float = 20.0
    util_min: float = 0.0
    util_max: float = 1.0
    #: Draw integer periods from [ceil(period_min), floor(period_max)] —
    #: enables exact hyperperiod simulation (not used by the paper's
    #: figures, which draw real periods).
    integer_periods: bool = False
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if not (1 <= self.area_min <= self.area_max):
            raise ValueError("need 1 <= area_min <= area_max")
        if not (0 < self.period_min <= self.period_max):
            raise ValueError("need 0 < period_min <= period_max")
        if not (0 <= self.util_min <= self.util_max <= 1):
            raise ValueError("need 0 <= util_min <= util_max <= 1")

    def with_tasks(self, n_tasks: int) -> "GenerationProfile":
        return replace(self, n_tasks=n_tasks)

    @property
    def max_system_utilization_per_task(self) -> float:
        """Upper bound on one task's ``C*A/T`` under this profile."""
        return self.util_max * self.area_max


def paper_unconstrained(n_tasks: int) -> GenerationProfile:
    """Figure 3's recipe: unconstrained execution-time and area factors."""
    return GenerationProfile(n_tasks=n_tasks, name=f"unconstrained-{n_tasks}")


def spatially_heavy_temporally_light(n_tasks: int = 10) -> GenerationProfile:
    """Figure 4(a): wide tasks (A ~ U{50..100}) with low time utilization
    (factor ~ U(0, 0.3))."""
    return GenerationProfile(
        n_tasks=n_tasks,
        area_min=50,
        area_max=100,
        util_min=0.0,
        util_max=0.3,
        name=f"spatial-heavy-{n_tasks}",
    )


def spatially_light_temporally_heavy(n_tasks: int = 10) -> GenerationProfile:
    """Figure 4(b): narrow tasks (A ~ U{1..30}) with high time utilization
    (factor ~ U(0.5, 1))."""
    return GenerationProfile(
        n_tasks=n_tasks,
        area_min=1,
        area_max=30,
        util_min=0.5,
        util_max=1.0,
        name=f"spatial-light-{n_tasks}",
    )
