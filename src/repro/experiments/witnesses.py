"""Witness search and empirical incomparability statistics.

Tables 1–3 exist because the three bounds are pairwise incomparable —
for each test there are tasksets only it accepts.  This module automates
finding such witnesses (presumably how the authors built the tables) and
measures how often each acceptance pattern occurs on random workloads —
a statistical generalization of the three tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dp import dp_test
from repro.core.gn1 import gn1_test
from repro.core.gn2 import gn2_test
from repro.fpga.device import Fpga
from repro.gen.profiles import GenerationProfile
from repro.gen.random_tasksets import generate_taskset
from repro.model.task import TaskSet

TESTS = (("DP", dp_test), ("GN1", gn1_test), ("GN2", gn2_test))

#: Acceptance pattern: (DP, GN1, GN2) verdicts.
Pattern = Tuple[bool, bool, bool]

#: The three exclusive patterns the paper's tables exhibit.
TABLE_PATTERNS: Dict[str, Pattern] = {
    "table1-like (DP only)": (True, False, False),
    "table2-like (GN1 only)": (False, True, False),
    "table3-like (GN2 only)": (False, False, True),
}


def acceptance_pattern(taskset: TaskSet, fpga: Fpga) -> Pattern:
    """(DP, GN1, GN2) verdicts for one taskset."""
    return tuple(test(taskset, fpga).accepted for _, test in TESTS)  # type: ignore[return-value]


def find_witness(
    pattern: Pattern,
    rng: np.random.Generator,
    fpga: Optional[Fpga] = None,
    profile: Optional[GenerationProfile] = None,
    max_tries: int = 100_000,
) -> Optional[TaskSet]:
    """Search random tasksets for one matching the acceptance ``pattern``.

    When no ``profile`` is given, the generation parameters (task count,
    area floor, utilization range) are re-drawn every attempt: some
    patterns live in skewed corners of the workload space that no single
    uniform profile reaches.  Notably, **DP-only** acceptance — the
    paper's Table 1 pattern — appears to have measure zero for 2-task
    sets (Table 1 itself sits exactly on DP's and GN2's decision
    boundaries) and only materializes for >= 3 tasks with a high area
    floor; see README, "Design notes" §4.4.  Returns ``None`` when the budget runs
    out — evidence of rarity, not an impossibility proof.
    """
    fpga = fpga or Fpga(width=10)
    for _ in range(max_tries):
        if profile is not None:
            p = profile
        else:
            n = int(rng.integers(2, 6))
            area_min = int(rng.integers(1, max(2, fpga.capacity - 2)))
            p = GenerationProfile(
                n_tasks=n,
                area_min=area_min,
                area_max=fpga.capacity,
                period_min=3,
                period_max=20,
                util_min=0.02,
                util_max=0.9,
                name="witness-search",
            )
        ts = generate_taskset(p, rng)
        if acceptance_pattern(ts, fpga) == pattern:
            return ts
    return None


@dataclass(frozen=True)
class IncomparabilityCensus:
    """Counts of every acceptance pattern over a random sample."""

    counts: Dict[Pattern, int]
    total: int

    def fraction(self, pattern: Pattern) -> float:
        return self.counts.get(pattern, 0) / self.total if self.total else 0.0

    @property
    def exclusive_witnesses_found(self) -> Dict[str, int]:
        """How many tasksets realize each of the paper's table patterns."""
        return {
            name: self.counts.get(pat, 0) for name, pat in TABLE_PATTERNS.items()
        }

    def render(self) -> str:
        label = lambda p: "+".join(
            n for (n, _), bit in zip(TESTS, p) if bit
        ) or "(none)"
        lines = [f"{'pattern':<14} {'count':>8} {'fraction':>9}"]
        for pattern in sorted(self.counts, reverse=True):
            lines.append(
                f"{label(pattern):<14} {self.counts[pattern]:>8} "
                f"{self.fraction(pattern):>9.4f}"
            )
        return "\n".join(lines)


def incomparability_census(
    samples: int,
    rng: np.random.Generator,
    fpga: Optional[Fpga] = None,
    profile: Optional[GenerationProfile] = None,
) -> IncomparabilityCensus:
    """Acceptance-pattern census over ``samples`` random tasksets."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    fpga = fpga or Fpga(width=10)
    profile = profile or GenerationProfile(
        n_tasks=2,
        area_min=1,
        area_max=fpga.capacity,
        period_min=4,
        period_max=10,
        util_min=0.05,
        util_max=0.95,
        name="census",
    )
    counts: Dict[Pattern, int] = {}
    for _ in range(samples):
        ts = generate_taskset(profile, rng)
        pat = acceptance_pattern(ts, fpga)
        counts[pat] = counts.get(pat, 0) + 1
    return IncomparabilityCensus(counts=counts, total=samples)
