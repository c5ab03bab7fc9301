"""repro — reproduction of Guan et al., IPDPS 2007.

"Improved Schedulability Analysis of EDF Scheduling on Reconfigurable
Hardware Devices" derives utilization-bound schedulability tests (DP, GN1,
GN2) for global EDF scheduling of hardware tasks on 1D partially
runtime-reconfigurable FPGAs.

This package provides:

* :mod:`repro.model` — the sporadic/periodic hardware-task model ``(C, D, T, A)``.
* :mod:`repro.core` — the paper's schedulability tests (DP, GN1, GN2).
* :mod:`repro.mp` — the multiprocessor analysis lineage the paper builds
  on (GFB, BCL, BAK2).
* :mod:`repro.fpga`, :mod:`repro.sched`, :mod:`repro.sim` — a 1D PRTR FPGA
  substrate, EDF-FkF / EDF-NF schedulers and a discrete-event simulator.
* :mod:`repro.gen` — synthetic taskset generators (the paper's §6 recipe).
* :mod:`repro.vector` — numpy-vectorized batch versions of the tests and a
  batched EDF simulator (``simulate_batch``: every migration mode, plus
  offset/sporadic release patterns) that lets the acceptance experiments
  simulate whole buckets — and whole pattern searches — instead of
  subsamples.
* :mod:`repro.incremental` — stateful admission analysis under taskset
  churn: per-test caches updated in O(changed·N) per add/remove/update,
  verdicts bit-identical to the scalar tests, plus batched re-verdicting
  on the vector kernels.
* :mod:`repro.experiments` — runners regenerating every table and figure.

Quickstart::

    from repro import Task, TaskSet, Fpga
    from repro.core import dp_test, gn1_test, gn2_test

    ts = TaskSet([Task(wcet=2.1, deadline=5, period=5, area=7),
                  Task(wcet=2.0, deadline=7, period=7, area=7)])
    fpga = Fpga(width=10)
    print(dp_test(ts, fpga).accepted)   # False
    print(gn2_test(ts, fpga).accepted)  # True  (Table 3 of the paper)
"""

from repro.model.task import Task, TaskSet
from repro.model.job import Job
from repro.fpga.device import Fpga

__version__ = "1.0.0"

__all__ = ["Task", "TaskSet", "Job", "Fpga", "__version__"]
