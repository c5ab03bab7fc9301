"""Proposal distributions for the adaptive release-pattern search.

Patterns are parametrized on the **unit cube**: each (row, task) slot
carries one coordinate ``u in [0, 1)`` that the drivers map onto a legal
pattern coordinate — ``offset = u * T_i`` (always in ``[0, T_i)``) or a
sporadic gap ``T_i * (1 + u * jitter)`` (always ``>= T_i``).  Working in
normalized space keeps the proposal family task-scale-free and makes the
legality argument one line: any ``u`` in the cube is a legal pattern.

The proposal per slot is a **truncated normal** (mean/std clipped into
the cube) mixed with a **uniform floor**: each pattern is drawn from the
fitted proposal with probability ``1 - uniform_floor`` and uniformly
otherwise.  The floor keeps every region of pattern space reachable in
every round, so a collapsed proposal cannot lock the search out of the
true worst case; it changes only where the budget is spent, never what a
found miss means (soundness is pattern legality + baseline
intersection, see :mod:`repro.search`).

Refitting is the cross-entropy step: after a round, the ``elite_frac``
lowest-slack (closest-to-miss) patterns of each row refit that row's
per-task mean and std, with ``sigma_floor`` preventing premature
point-mass collapse.

All sampling is numpy (like every seeded sampler in this codebase —
draw order pinned so the scalar twins replay identical patterns); the
sampled patterns are simulated batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Largest double below 1.0 — the inclusive upper clip of the unit
#: coordinate, so ``u * T < T`` holds exactly in float64.
UNIT_MAX = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the cross-entropy release-pattern search.

    ``rounds`` splits the pattern budget into that many adaptation
    rounds (round 0 is always pure uniform exploration); ``elite_frac``
    picks the fraction of lowest-slack patterns that refit the
    proposals; ``uniform_floor`` is the per-pattern probability of
    ignoring the fitted proposal and drawing uniformly (the soundness-
    preserving exploration floor); ``init_sigma``/``sigma_floor`` bound
    the proposal spread from above initially and from below forever.
    """

    rounds: int = 4
    elite_frac: float = 0.25
    uniform_floor: float = 0.2
    init_sigma: float = 0.35
    sigma_floor: float = 0.05

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (0.0 < self.elite_frac <= 1.0):
            raise ValueError("elite_frac must be in (0, 1]")
        if not (0.0 <= self.uniform_floor <= 1.0):
            raise ValueError("uniform_floor must be in [0, 1]")
        if self.init_sigma <= 0.0:
            raise ValueError("init_sigma must be > 0")
        if not (0.0 < self.sigma_floor <= self.init_sigma):
            raise ValueError("sigma_floor must be in (0, init_sigma]")


class UnitProposal:
    """Per-(row, task) truncated-normal proposals over ``[0, 1)``.

    One independent proposal per row (taskset) — rows never share
    parameters or random draws, so a single-row search replays the exact
    stream of the same row inside a batch (the scalar/vector parity the
    twins are tested against).
    """

    def __init__(self, count: int, n_tasks: int, config: SearchConfig):
        if count < 0 or n_tasks < 0:
            raise ValueError("count and n_tasks must be >= 0")
        self.config = config
        self.mu = np.full((count, n_tasks), 0.5, dtype=np.float64)
        self.sigma = np.full((count, n_tasks), config.init_sigma, dtype=np.float64)

    def sample_row(
        self,
        row: int,
        rng: np.random.Generator,
        patterns: int,
        explore: bool,
    ) -> np.ndarray:
        """``(patterns, n_tasks)`` unit coordinates for one row.

        ``explore`` forces pure uniform draws (round 0).  The uniform
        base draw always happens first so the stream consumption per
        round is fixed whatever the mixture decides.
        """
        n = self.mu.shape[1]
        base = rng.uniform(0.0, 1.0, size=(patterns, n))
        if explore:
            return base
        keep_prop = rng.random(patterns) >= self.config.uniform_floor
        z = rng.standard_normal((patterns, n))
        prop = np.clip(self.mu[row] + self.sigma[row] * z, 0.0, UNIT_MAX)
        return np.where(keep_prop[:, None], prop, base)

    def refit_row(self, row: int, u: np.ndarray, slack: np.ndarray) -> None:
        """Cross-entropy refit of one row from its round's scored draws.

        ``u`` is the round's ``(patterns, n_tasks)`` coordinates,
        ``slack`` the per-pattern near-miss score (lower = closer to a
        miss).  The ``elite_frac`` lowest-slack patterns become the new
        mean/std, floored at ``sigma_floor``.
        """
        patterns = u.shape[0]
        if patterns == 0:
            return
        k = max(1, int(round(self.config.elite_frac * patterns)))
        elites = u[np.argsort(slack, kind="stable")[:k]]
        self.mu[row] = elites.mean(axis=0)
        self.sigma[row] = np.maximum(elites.std(axis=0), self.config.sigma_floor)
