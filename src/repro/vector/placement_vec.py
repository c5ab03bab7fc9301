"""Batched struct-of-arrays free-list over per-row column bitmaps.

One :class:`BatchFreeList` tracks the free/occupied columns of ``B``
independent copies of the same device as a ``(B, ceil(W/64))`` array of
64-bit bitmap words — bit ``c % 64`` of word ``c // 64`` set iff column
``c`` of that row is free.  Static regions pre-fragment every row
identically: the seed words are encoded from
:meth:`repro.fpga.device.Fpga.free_spans` through
:func:`repro.fpga.intervals.spans_to_words`, the same source of truth the
scalar :class:`repro.fpga.freelist.FreeList` consumes as interval lists.

The kernels replicate the scalar reference *exactly*:

* :meth:`BatchFreeList.is_free` — ``FreeList.is_free`` (span entirely
  inside one hole), evaluated with word masks, no unpacking;
* :meth:`BatchFreeList.choose` — ``choose_interval`` for every row at
  once: maximal holes are extracted from the unpacked bitmap (a suffix
  scan gives each free column the distance to the next occupied one) and
  the first/best/worst-fit winners are picked with integer keys encoding
  the scalar tie-breaks (best fit: smallest hole then leftmost; worst
  fit: largest hole then leftmost).

All geometry is integer arithmetic, so agreement with the scalar path is
bit-exact by construction — and property-tested against ``FreeList`` and
``choose_interval`` under random place/free sequences in
``tests/test_fpga_intervals.py``.

Backend-neutral: every kernel dispatches on the bitmap array's own
:mod:`repro.vector.xp` namespace (or an explicit ``ns``), so the same
code runs on numpy uint64 words or torch int64 words (torch has no
uint64 arithmetic; the int64 reinterpretation is bit-identical for
``& | ~`` and equality under two's complement — see
:meth:`repro.vector.xp.ArrayBackend.bitmap_from_host`).
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.fpga.device import Fpga
from repro.fpga.intervals import (
    Interval,
    WORD_BITS,
    spans_to_words,
    word_count,
    words_to_spans,
)
from repro.fpga.placement import PlacementPolicy
from repro.vector import xp


def range_masks(starts, ends, n_words: int, ns=None):
    """Per-row word masks with bits ``[start, end)`` set.

    ``starts``/``ends`` are ``(R,)`` int arrays (``0 <= start <= end <=
    64 * n_words``); returns ``(R, n_words)`` words in the backend's
    bitmap dtype.
    """
    ns = ns if ns is not None else xp.namespace_of(starts)
    base = ns.arange(n_words, dtype=ns.int64) * WORD_BITS
    # Manual min/max instead of np.clip: this sits on the simulator's
    # per-decision hot path and clip's dtype plumbing costs ~5x the ufuncs.
    lo = ns.minimum(ns.maximum(starts[:, None] - base, 0), WORD_BITS)
    hi = ns.minimum(ns.maximum(ends[:, None] - base, 0), WORD_BITS)
    low_bits = ns.low_bits()
    return low_bits[hi] & ~low_bits[lo]


def span_free(words, starts, widths, width: int, n_words: int, ns=None):
    """Per-row "is ``[start, start+width)`` entirely free" on word bitmaps.

    The single implementation behind :meth:`BatchFreeList.is_free` and
    the simulator's resume-in-place checks.  Rows with ``start < 0`` (no
    recorded position), non-positive widths, or spans past the device
    edge report ``False``; their (clamped, garbage) masks are vetoed by
    the validity term, so no sanitizing pass is needed.
    """
    ns = ns if ns is not None else xp.namespace_of(words)
    valid = (starts >= 0) & (widths > 0) & (starts + widths <= width)
    masks = range_masks(starts, starts + widths, n_words, ns=ns)
    return ns.all((words & masks) == masks, axis=1) & valid


def clear_spans(words, rows, starts, widths, n_words: int, ns=None):
    """Occupy (clear) ``[start, start+width)`` in each given row of ``words``."""
    ns = ns if ns is not None else xp.namespace_of(words)
    masks = range_masks(starts, starts + widths, n_words, ns=ns)
    words[rows] &= ~masks
    return words


def set_spans(words, rows, starts, widths, n_words: int, ns=None):
    """Release (set) ``[start, start+width)`` in each given row of ``words``."""
    ns = ns if ns is not None else xp.namespace_of(words)
    masks = range_masks(starts, starts + widths, n_words, ns=ns)
    words[rows] |= masks
    return words


def unpack_words(words, width: int, ns=None):
    """Unpack ``(R, n_words)`` bitmap words to ``(R, width)`` uint8 0/1."""
    ns = ns if ns is not None else xp.namespace_of(words)
    return ns.unpack_bitmap(words, width)


def hole_ends_and_lengths(free, ns=None):
    """Maximal-hole geometry of ``(R, W)`` uint8 0/1 free maps.

    Returns ``(start_of, hole_len)``: ``start_of[r, c]`` is the start of
    the free run ending at ``c`` (meaningful where ``free``), and
    ``hole_len[r, c]`` is the width of the maximal hole *ending* at ``c``
    (0 unless ``c`` is a hole end).  Holes enumerated by their end
    column are exactly the candidate list
    :func:`repro.fpga.placement.choose_interval` enumerates by start —
    one entry per maximal hole, in left-to-right order.

    Everything is a forward scan over contiguous narrow-dtype rows (one
    ``maximum.accumulate``), which profiles several times faster than
    the reversed-suffix-min formulation on float/int64.
    """
    ns = ns if ns is not None else xp.namespace_of(free)
    W = int(free.shape[1])
    idx1 = ns.col_index(W)  # column index + 1, so 0 can mean "no occupied yet"
    zero = ns.zeros((), dtype=idx1.dtype)
    # start_of[c]: (last occupied column <= c) + 1 == start of the free
    # run ending at c (free cols), or c + 1 (occupied cols).
    start_of = ns.maximum_accumulate(ns.where(free, zero, idx1), axis=1)
    ends = ns.copy(free)
    ends[:, :-1] &= free[:, 1:] ^ 1
    # Hole ending at c has width c - start + 1 == idx1 - start_of.
    hole_len = ns.where(ends, idx1 - start_of, zero)
    return start_of, hole_len


def choose_batch(words, widths, device_width: int, policy: PlacementPolicy, ns=None):
    """Vectorized :func:`repro.fpga.placement.choose_interval` over rows.

    ``words`` is ``(R, n_words)`` bitmap words, ``widths`` ``(R,)``
    positive ints.  Returns ``(R,)`` int64 start columns, ``-1`` where no
    hole is wide enough.  Tie-breaks are bit-identical to the scalar
    chooser.
    """
    ns = ns if ns is not None else xp.namespace_of(words)
    free = unpack_words(words, device_width, ns=ns)
    start_of, hole_len = hole_ends_and_lengths(free, ns=ns)
    W = device_width
    # Clamp before narrowing: a request wider than the device can never
    # fit (hole_len <= W < W + 1), and the raw width could wrap in the
    # narrow hole_len dtype (e.g. 300 -> 44 in uint8) and falsely place.
    need = ns.astype(ns.minimum(widths, W + 1)[:, None], hole_len.dtype)
    fits = hole_len >= need
    rows = ns.arange(words.shape[0])
    if policy is PlacementPolicy.FIRST_FIT:
        # Leftmost fitting hole == leftmost fitting hole end.
        pick = ns.argmax(fits, axis=1)
    elif policy is PlacementPolicy.BEST_FIT:
        # min (length, start): encode as length * (W + 1) + start.
        key = ns.where(
            fits,
            ns.astype(hole_len, ns.int32) * (W + 1) + start_of,
            ns.full((), (W + 1) * (W + 1), dtype=ns.int32),
        )
        pick = ns.argmin(key, axis=1)
    elif policy is PlacementPolicy.WORST_FIT:
        # max (length, -start): encode as length * (W + 1) + (W - start).
        key = ns.where(
            fits,
            ns.astype(hole_len, ns.int32) * (W + 1) + (W - start_of),
            ns.full((), -1, dtype=ns.int32),
        )
        pick = ns.argmax(key, axis=1)
    else:  # pragma: no cover
        raise AssertionError(f"unhandled policy {policy!r}")
    # fits[rows, pick] doubles as the "any hole fits" flag (cheaper than
    # a separate any-reduction).
    return ns.where(
        fits[rows, pick], ns.astype(start_of[rows, pick], ns.int64), -1
    )


class BatchFreeList:
    """``B`` parallel free-lists for one device geometry.

    Mutations are in-place and vectorized over an arbitrary subset of
    rows; :meth:`reset` rewinds every row to the device's pristine free
    spans (the simulator re-places the running set from scratch at each
    decision point, mirroring the scalar path's fresh ``FreeList``).
    ``backend`` selects the :mod:`repro.vector.xp` namespace the bitmap
    words live on (``None`` = the active selection).
    """

    def __init__(
        self,
        fpga: Fpga,
        count: int,
        backend: Union[None, str, "xp.ArrayBackend"] = None,
    ):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.fpga = fpga
        self.width = fpga.width
        self.n_words = word_count(fpga.width)
        self.ns = xp.get_backend(backend)
        self.device_words = self.ns.bitmap_from_host(
            spans_to_words(fpga.free_spans(), fpga.width)
        )
        self.words = self.ns.tile(self.device_words, (count, 1))

    @property
    def count(self) -> int:
        return int(self.words.shape[0])

    def reset(self, count: Optional[int] = None) -> None:
        """Free every row (optionally resizing to ``count`` rows)."""
        n = self.count if count is None else count
        if count is not None and self.words.shape[0] != count:
            self.words = self.ns.tile(self.device_words, (n, 1))
        else:
            self.words[:] = self.device_words

    # -- queries ---------------------------------------------------------

    def free_spans_of(self, row: int) -> List[Interval]:
        """Row ``row``'s sorted maximal free intervals (for tests/tools)."""
        return words_to_spans(self.ns.asnumpy(self.words[row]), self.width)

    def total_free(self):
        """Free columns per row, ``(B,)`` int64."""
        unpacked = unpack_words(self.words, self.width, ns=self.ns)
        return self.ns.sum(self.ns.astype(unpacked, self.ns.int64), axis=1)

    def largest_hole(self):
        """Widest hole per row, ``(B,)`` int64."""
        free = unpack_words(self.words, self.width, ns=self.ns)
        _, hole_len = hole_ends_and_lengths(free, ns=self.ns)
        return self.ns.astype(self.ns.max(hole_len, axis=1), self.ns.int64)

    def is_free(self, starts, widths):
        """Per-row ``FreeList.is_free(start, width)`` — ``(B,)`` bool.

        Rows with ``start < 0`` (no recorded position) report ``False``.
        """
        starts = self.ns.asarray(starts, dtype=self.ns.int64)
        widths = self.ns.asarray(widths, dtype=self.ns.int64)
        return span_free(
            self.words, starts, widths, self.width, self.n_words, ns=self.ns
        )

    def choose(self, widths, policy: PlacementPolicy, rows=None):
        """Vectorized ``choose_interval`` (``-1`` where no hole fits).

        With ``rows`` given, only that subset is evaluated (and the
        result aligns with ``rows``); otherwise all rows.
        """
        widths = self.ns.asarray(widths, dtype=self.ns.int64)
        words = self.words if rows is None else self.words[rows]
        return choose_batch(words, widths, self.width, policy, ns=self.ns)

    # -- mutations -------------------------------------------------------

    def occupy(self, rows, starts, widths) -> None:
        """Clear (allocate) ``[start, start+width)`` in each given row."""
        starts = self.ns.asarray(starts, dtype=self.ns.int64)
        widths = self.ns.asarray(widths, dtype=self.ns.int64)
        clear_spans(self.words, rows, starts, widths, self.n_words, ns=self.ns)

    def vacate(self, rows, starts, widths) -> None:
        """Set (release) ``[start, start+width)`` in each given row."""
        starts = self.ns.asarray(starts, dtype=self.ns.int64)
        widths = self.ns.asarray(widths, dtype=self.ns.int64)
        set_spans(self.words, rows, starts, widths, self.n_words, ns=self.ns)
