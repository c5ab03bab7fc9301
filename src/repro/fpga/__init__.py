"""1D partially runtime-reconfigurable FPGA substrate.

The paper's platform model (§2): a device ``H`` with ``A(H)`` homogeneous
columns; a task occupies a contiguous run of ``A_k`` columns while it
executes.  This package provides the device abstraction, a contiguous
free-interval manager with classic placement policies (first/best/worst
fit), and a reconfiguration-overhead model — the last two support the
paper's §7 future-work extensions (fragmentation, non-zero reconfiguration
cost) and the corresponding ablation experiments.  The package is pure
Python; the uint64 bitmap encoding of free spans lives in
:mod:`repro.vector.xp`.
"""

from repro.fpga.device import Fpga, StaticRegion
from repro.fpga.freelist import FreeList, Allocation
from repro.fpga.intervals import Interval, word_count
from repro.fpga.placement import PlacementPolicy, choose_interval
from repro.fpga.reconfig import ReconfigurationModel, inflate_taskset

__all__ = [
    "Fpga",
    "StaticRegion",
    "FreeList",
    "Allocation",
    "Interval",
    "PlacementPolicy",
    "choose_interval",
    "word_count",
    "ReconfigurationModel",
    "inflate_taskset",
]
