"""Adaptive importance sampling for release-pattern searches.

The §6 simulation upper bound is refined by searching release patterns
(offsets, sporadic inter-arrival jitter) for deadline-miss
counterexamples.  Uniform pattern draws waste most of the budget far
from any miss; this package steers the same budget toward the patterns
most likely to miss with a cross-entropy-style loop over per-task
proposal distributions, scored by the simulators' near-miss channel
(``min_slack``).

Soundness: every sampled pattern — adaptive or uniform — is a *legal*
release pattern (offsets in ``[0, T_i)``, sporadic gaps ``>= T_i``), so
any miss it exhibits is a genuine certificate of unschedulability, and
callers always intersect the searched verdict with the synchronous/
periodic baseline.  Adaptivity therefore only changes *which* sound
refutations the budget finds, never the meaning of the verdict.

Layout:

* :mod:`repro.search.proposal` — :class:`SearchConfig` and the
  normalized per-task proposal family (truncated normal over ``[0, 1)``
  with a uniform-mixture floor, elite refitting);
* :mod:`repro.search.adaptive` — the generic budgeted search loop and
  its :class:`SearchOutcome`;
* :mod:`repro.search.patterns` — unit-cube -> legal-pattern mappings
  (numpy-only, shared with the scalar twins);
* :mod:`repro.search.drivers` — the batched offset/sporadic drivers
  (uniform and adaptive) on
  :func:`repro.vector.sim_vec.simulate_batch`; resolved lazily below
  because the scalar twins (:func:`repro.sim.offsets.
  adaptive_offset_search`, :func:`repro.sim.sporadic.
  adaptive_sporadic_search`) import this package from *underneath*
  :mod:`repro.vector` and must not drag it in at import time.
"""

from repro.search.adaptive import (
    SearchOutcome,
    adaptive_pattern_search,
    round_sizes,
)
from repro.search.patterns import offsets_from_unit, release_times_from_unit
from repro.search.proposal import UNIT_MAX, SearchConfig, UnitProposal

#: Batched drivers exposed at package level but imported on first use
#: (they pull in repro.vector; see the module docstring).
_DRIVER_EXPORTS = (
    "adaptive_offset_search_batch",
    "adaptive_sporadic_search_batch",
    "uniform_offset_search_batch",
    "uniform_offset_search_grid",
    "uniform_sporadic_search_batch",
    "uniform_sporadic_search_grid",
)

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "UnitProposal",
    "UNIT_MAX",
    "adaptive_pattern_search",
    "round_sizes",
    "offsets_from_unit",
    "release_times_from_unit",
    *_DRIVER_EXPORTS,
]


def __getattr__(name: str):
    if name in _DRIVER_EXPORTS:
        from repro.search import drivers

        return getattr(drivers, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
