"""The array namespace of the vector kernels: numpy, behind one seam.

Every kernel in :mod:`repro.vector` takes its numpy namespace from this
module (``from repro.vector.xp import host as np``) instead of importing
numpy itself, so this is the one place that names the array library
(lint rule RL001).  Besides :data:`host` it holds the boundary transfer
:func:`asnumpy` and the helpers that hide the placement bitmap format
(:func:`unpack_bitmap`, :func:`low_bits`, :func:`col_index`).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy

#: The numpy namespace every kernel computes through.
host = numpy


def asnumpy(arr: Any) -> "numpy.ndarray":
    """``arr`` as a numpy array (identity for an ndarray).

    Kernels call it once per batch on the verdicts they return, which
    marks the batch boundary for the effect report.
    """
    return numpy.asarray(arr)


def unpack_bitmap(words: Any, width: int) -> Any:
    """Unpack ``(R, n_words)`` uint64 bitmap words to ``(R, width)`` uint8 0/1.

    Bit ``c % 64`` of word ``c // 64`` lands at flat position ``c``
    (little-endian byte order, which holds on every platform this repo
    targets).
    """
    rows = words.shape[0]
    flat = numpy.unpackbits(
        numpy.ascontiguousarray(words).view(numpy.uint8).reshape(-1),
        bitorder="little",
    ).reshape(rows, words.shape[1] * 64)
    return flat[:, :width]


_LOW_BITS = numpy.array([(1 << j) - 1 for j in range(65)], dtype=numpy.uint64)


def low_bits() -> "numpy.ndarray":
    """``low_bits()[j]`` has the low ``j`` bits set (``j`` in 0..64), uint64."""
    return _LOW_BITS


_COL_INDEX: Dict[int, "numpy.ndarray"] = {}


def col_index(width: int) -> "numpy.ndarray":
    """Cached ``arange(1, width + 1)`` in the narrowest dtype that fits.

    Indices are biased by +1 so the maximum-accumulate that computes
    hole starts can run in uint8 for the (typical) narrow devices —
    half the bandwidth of int16 on the chooser's hottest loop.
    """
    cached = _COL_INDEX.get(width)
    if cached is None:
        max_width = int(numpy.iinfo(numpy.int16).max) // 2
        if width > max_width:
            raise ValueError(f"device width {width} exceeds {max_width}")
        dtype = numpy.uint8 if width < 255 else numpy.int16
        cached = _COL_INDEX[width] = numpy.arange(1, width + 1, dtype=dtype)
    return cached
