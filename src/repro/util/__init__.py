"""Shared numeric and infrastructure utilities.

The seeded RNG helpers are imported from :mod:`repro.util.rngutil`
directly, so importing this package loads no numpy.
"""

from repro.util.mathutil import (
    exact_div,
    fraction_lcm,
    hyperperiod,
    is_close,
    lcm_many,
)

__all__ = [
    "exact_div",
    "fraction_lcm",
    "hyperperiod",
    "is_close",
    "lcm_many",
]
