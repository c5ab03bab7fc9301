"""Shared contiguous-interval representation for 1D column allocation.

Both free-space trackers in the repo — the scalar
:class:`repro.fpga.freelist.FreeList` (sorted interval lists, one device)
and the batched :class:`repro.vector.placement_vec.BatchFreeList`
(per-row ``uint64`` column bitmaps, one device per batch row) — describe
the same thing: a set of disjoint, sorted, maximal free column spans,
seeded from :meth:`repro.fpga.device.Fpga.free_spans` (so static regions
pre-fragment both representations identically).

This module is the single source of truth for that representation:
pure interval-list primitives (:func:`insert_coalesced`, :func:`carve`,
:func:`contains_span`, :func:`total_width`, :func:`largest_width`) used
by the scalar ``FreeList``, plus the bitmap geometry (:data:`WORD_BITS`,
:func:`word_count`).  The uint64 bitmap encoding bridge itself
(``spans_to_words``/``words_to_spans``) lives in the numpy layer,
:mod:`repro.vector.xp`, so this module — and everything scalar that
imports it — loads no numpy.

Intervals are half-open ``(start, end)`` tuples of non-negative ints.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

Interval = Tuple[int, int]  # half-open (start, end)

#: Bits per bitmap word (the vectorized encoding packs column ``c`` into
#: bit ``c % 64`` of word ``c // 64``; bit set means *free*).
WORD_BITS = 64


def total_width(intervals: Sequence[Interval]) -> int:
    """Sum of interval widths."""
    return sum(e - s for s, e in intervals)


def largest_width(intervals: Sequence[Interval]) -> int:
    """Width of the widest interval (0 when empty)."""
    return max((e - s for s, e in intervals), default=0)


def contains_span(intervals: Sequence[Interval], start: int, width: int) -> bool:
    """True iff ``[start, start+width)`` lies entirely inside one interval."""
    end = start + width
    return any(s <= start and end <= e for s, e in intervals)


def carve(intervals: Sequence[Interval], start: int, width: int) -> List[Interval]:
    """Remove ``[start, start+width)`` from the interval set.

    The span must lie entirely inside one interval (the caller allocated
    it out of a free hole); :class:`ValueError` otherwise.  Returns a new
    sorted, maximal interval list with the hole split into up to two
    remnants.
    """
    end = start + width
    out: List[Interval] = []
    hit = False
    for s, e in intervals:
        if s <= start and end <= e:
            hit = True
            if s < start:
                out.append((s, start))
            if end < e:
                out.append((end, e))
        else:
            out.append((s, e))
    if not hit:
        raise ValueError(f"span [{start},{end}) is not inside a free interval")
    return out


def insert_coalesced(
    intervals: Sequence[Interval], start: int, end: int
) -> List[Interval]:
    """Insert ``[start, end)`` into a sorted interval list, merging with
    touching neighbours so the result stays sorted and maximal.

    The span must be disjoint from every existing interval (it was
    allocated, hence not free); overlap raises :class:`ValueError`.
    """
    if start >= end:
        raise ValueError(f"empty span [{start},{end})")
    ns, ne = start, end
    before: List[Interval] = []
    after: List[Interval] = []
    for s, e in intervals:
        if e < ns:
            before.append((s, e))
        elif s > ne:
            after.append((s, e))
        elif e == ns:  # touches on the left: coalesce
            ns = s
        elif s == ne:  # touches on the right: coalesce
            ne = e
        else:
            raise ValueError(f"span [{start},{end}) overlaps free interval ({s},{e})")
    return before + [(ns, ne)] + after


def complement(intervals: Sequence[Interval], width: int) -> List[Interval]:
    """The occupied spans of a ``width``-column device given its free spans."""
    out: List[Interval] = []
    cursor = 0
    for s, e in intervals:
        if s > cursor:
            out.append((cursor, s))
        cursor = e
    if cursor < width:
        out.append((cursor, width))
    return out


def check_sorted_maximal(intervals: Sequence[Interval], width: int) -> None:
    """Assert the structural invariants of a free-interval list."""
    prev_end = -1
    for s, e in intervals:
        assert s < e, f"empty interval ({s},{e})"
        assert s > prev_end, "intervals not sorted/maximal"
        assert 0 <= s and e <= width, f"interval ({s},{e}) outside [0,{width})"
        prev_end = e


# -- bitmap geometry ----------------------------------------------------------


def word_count(width: int) -> int:
    """Words needed for a ``width``-column bitmap: ``ceil(width / 64)``."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return (width + WORD_BITS - 1) // WORD_BITS
