"""RL001 good: a kernel module computing through the xp namespace."""

from repro.vector import xp
from repro.vector.xp import host as hnp


def kernel(batch, width):
    arr = hnp.asarray(batch, dtype=hnp.float64)
    return arr, xp.unpack_bitmap(hnp.zeros((1, 1), dtype=hnp.uint64), width)
