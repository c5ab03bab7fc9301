"""The array namespace of the vector kernels: numpy, behind one seam.

Every kernel in :mod:`repro.vector` takes its numpy namespace from this
module (``from repro.vector.xp import host as np``) instead of importing
numpy itself, so this is the one place that names the array library
(lint rule RL001).  Besides :data:`host` it holds the helpers that hide
the placement bitmap format: the encoding bridge from
:mod:`repro.fpga.intervals` span lists (:func:`spans_to_words`,
:func:`words_to_spans`) and the kernel building blocks
(:func:`unpack_bitmap`, :func:`low_bits`, :func:`col_index`).
Keeping the bridge here means the scalar analysis and the admission
service, which only use span lists, never load numpy.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy
from numpy.typing import NDArray

from repro.fpga.intervals import WORD_BITS, Interval, word_count

#: The numpy namespace every kernel computes through.
host = numpy


def spans_to_words(spans: Iterable[Interval], width: int) -> NDArray[numpy.uint64]:
    """Encode free spans as a ``(word_count(width),)`` uint64 bitmap.

    Bit ``c % 64`` of word ``c // 64`` is set iff column ``c`` is free.
    Columns at and beyond ``width`` are always clear, so popcounts and
    hole scans never see phantom free space past the device edge.
    """
    words = numpy.zeros(word_count(width), dtype=numpy.uint64)
    for s, e in spans:
        if not (0 <= s < e <= width):
            raise ValueError(f"span ({s},{e}) outside device [0,{width})")
        for w in range(s // WORD_BITS, (e - 1) // WORD_BITS + 1):
            lo = max(s - w * WORD_BITS, 0)
            hi = min(e - w * WORD_BITS, WORD_BITS)
            mask = ((1 << hi) - 1) ^ ((1 << lo) - 1)
            words[w] |= numpy.uint64(mask)
    return words


def words_to_spans(words: NDArray[numpy.uint64], width: int) -> List[Interval]:
    """Decode a uint64 bitmap back to sorted, maximal free spans
    (the inverse of :func:`spans_to_words`)."""
    spans: List[Interval] = []
    run_start = None
    for c in range(width):
        bit = (int(words[c // WORD_BITS]) >> (c % WORD_BITS)) & 1
        if bit and run_start is None:
            run_start = c
        elif not bit and run_start is not None:
            spans.append((run_start, c))
            run_start = None
    if run_start is not None:
        spans.append((run_start, width))
    return spans


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
