"""Hardware-task schedulers.

* :class:`EdfFkf` — EDF-First-k-Fit (paper Definition 1): run the largest
  *prefix* of the deadline-ordered queue that fits.
* :class:`EdfNf` — EDF-Next-Fit (paper Definition 2): walk the queue and
  greedily run anything that still fits (skipping blocked wide jobs).
"""

from repro.sched.base import Scheduler
from repro.sched.edf_queue import edf_order
from repro.sched.edf_fkf import EdfFkf
from repro.sched.edf_nf import EdfNf

__all__ = [
    "Scheduler",
    "edf_order",
    "EdfFkf",
    "EdfNf",
]
