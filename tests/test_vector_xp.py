"""The numpy seam of the vector kernels: the placement bitmap helpers
and the kernel building blocks computed on them (``sequential_sum``,
the hole scan, span masks).

The bitmap helpers hide the uint64 word format the placement kernels
compute on (bit ``c % 64`` of word ``c // 64`` is column ``c``); each is
checked here against an independent numpy or pure-python reference.
"""

import numpy as np
import pytest

from repro.vector import xp as xp_mod


def test_low_bits_table():
    table = xp_mod.low_bits()
    want = np.array([(1 << j) - 1 for j in range(65)], dtype=np.uint64)
    assert table.dtype == np.uint64
    assert (table == want).all()


def test_bitmap_roundtrip_and_bitwise_ops():
    """Bitwise word ops commute with unpacking: the word-level kernels
    and the unpacked column view see the same free map."""
    rng = np.random.default_rng(6)
    words = rng.integers(0, 2**64, size=(3, 2), dtype=np.uint64)
    mask = np.full((3, 2), 0x0F0F0F0F0F0F0F0F, dtype=np.uint64)
    unpack = xp_mod.unpack_bitmap
    assert (unpack(words & mask, 128) == (unpack(words, 128) & unpack(mask, 128))).all()
    assert (unpack(words | mask, 128) == (unpack(words, 128) | unpack(mask, 128))).all()
    assert (unpack(~words, 128) == (unpack(words, 128) ^ 1)).all()


def test_unpack_bitmap():
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2**64, size=(4, 2), dtype=np.uint64)
    for width in (1, 63, 64, 65, 100, 128):
        got = xp_mod.unpack_bitmap(words, width)
        want = np.unpackbits(
            words.view(np.uint8), axis=1, bitorder="little"
        )[:, :width]
        assert got.shape == (4, width)
        assert (got == want).all(), width


def test_col_index_dtype_and_values():
    narrow = xp_mod.col_index(100)
    assert narrow.dtype == np.uint8
    assert (narrow == np.arange(1, 101)).all()
    wide = xp_mod.col_index(300)
    assert wide.dtype == np.int16
    with pytest.raises(ValueError):
        xp_mod.col_index(10**6)


def test_range_masks_and_span_free():
    """The placement bit-kernels against pure-python bit arithmetic."""
    from repro.vector.placement_vec import range_masks, span_free

    starts = np.array([0, 5, 60, 64, 0], dtype=np.int64)
    ends = np.array([3, 70, 64, 128, 128], dtype=np.int64)
    got = range_masks(starts, ends, 2)
    assert got.dtype == np.uint64
    for row, (s, e) in enumerate(zip(starts, ends)):
        bits = ((1 << int(e)) - 1) ^ ((1 << int(s)) - 1)
        want = [(bits >> (64 * w)) & ((1 << 64) - 1) for w in range(2)]
        assert [int(v) for v in got[row]] == want, (s, e)
    # all-free 100-column device: spans inside [0, 100) are free
    words = np.zeros((5, 2), dtype=np.uint64)
    words[:, 0] = ~np.uint64(0)
    words[:, 1] = np.uint64((1 << 36) - 1)
    s = np.array([0, 90, 95, -1, 20], dtype=np.int64)
    w = np.array([100, 10, 10, 5, 0], dtype=np.int64)
    got = span_free(words, s, w, 100, 2)
    assert (got == np.array([True, True, False, False, False])).all()


# -- one array library, resolved as plain attributes ---------------------

KERNEL_MODULES = [
    "repro.vector.batch",
    "repro.vector.dp_vec",
    "repro.vector.gn1_vec",
    "repro.vector.gn2_vec",
    "repro.vector.placement_vec",
    "repro.vector.sim_vec",
]


def test_seam_is_numpy_without_module_getattr():
    """``xp.host`` is numpy itself and the seam resolves no attribute
    lazily: there is no module ``__getattr__`` to run per access."""
    assert xp_mod.host is np
    assert "__getattr__" not in vars(xp_mod)


@pytest.mark.parametrize("name", KERNEL_MODULES)
def test_kernel_namespace_is_plain_numpy(name):
    """Each kernel computes through the seam's numpy, bound once at
    import, so every ``np.<op>`` in a pass loop is a plain lookup."""
    import importlib

    mod = importlib.import_module(name)
    assert mod.np is np


# -- sequential_sum: the scalar reference's left-to-right order ----------

def _left_to_right(arr, axis):
    moved = np.moveaxis(arr, axis, -1)
    out = np.empty(moved.shape[:-1], dtype=arr.dtype)
    for idx in np.ndindex(*moved.shape[:-1]):
        acc = moved[idx][0]
        for v in moved[idx][1:]:
            acc = acc + v
        out[idx] = acc
    return out


@pytest.mark.parametrize("axis", [0, 1, 2, -1])
def test_sequential_sum_matches_left_to_right(axis):
    from repro.vector.batch import sequential_sum

    rng = np.random.default_rng(11)
    a = rng.random((3, 12, 17)) * 10.0 ** rng.integers(-8, 8, size=(3, 12, 17))
    got = sequential_sum(a, axis=axis)
    want = _left_to_right(a, axis)
    assert got.dtype == a.dtype
    assert got.shape == want.shape
    assert (got == want).all()  # bit-identical, not approx


def test_sequential_sum_does_not_reassociate():
    """Past 8 elements ``np.sum`` adds pairwise; sequential_sum keeps the
    scalar order even where the two round differently."""
    from repro.vector.batch import sequential_sum

    rng = np.random.default_rng(5)
    rows = rng.random((2000, 40))
    got = sequential_sum(rows, axis=1)
    assert (got == _left_to_right(rows, 1)).all()
    assert (got != np.sum(rows, axis=1)).any()


# -- hole geometry across the uint8/int16 column-index boundary ----------

def _python_holes(free_row):
    width = len(free_row)
    start_of = [0] * width
    hole_len = [0] * width
    run_start = 0
    for c in range(width):
        if free_row[c]:
            start_of[c] = run_start
            if c == width - 1 or not free_row[c + 1]:
                hole_len[c] = c - run_start + 1
        else:
            start_of[c] = c + 1
            run_start = c + 1
    return start_of, hole_len


@pytest.mark.parametrize("width", [1, 63, 64, 100, 254, 255, 300])
def test_hole_ends_and_lengths_match_python_scan(width):
    from repro.vector.placement_vec import hole_ends_and_lengths

    rng = np.random.default_rng(width)
    free = (rng.random((6, width)) < 0.7).astype(np.uint8)
    free[0] = 1  # one hole spanning the whole device
    free[1] = 0  # fully occupied
    start_of, hole_len = hole_ends_and_lengths(free)
    assert hole_len.dtype == xp_mod.col_index(width).dtype
    for row in range(free.shape[0]):
        want_start, want_len = _python_holes([int(v) for v in free[row]])
        got_start = [int(v) for v in start_of[row]]
        assert [int(v) for v in hole_len[row]] == want_len, row
        assert [
            g for g, f in zip(got_start, free[row]) if f
        ] == [w for w, f in zip(want_start, free[row]) if f], row
    assert int(hole_len[0, -1]) == width


def test_clear_and_set_spans_round_trip():
    """Occupying spans clears exactly their bits; releasing them restores
    the pristine map, and span_free agrees at every step."""
    from repro.vector.placement_vec import clear_spans, set_spans, span_free

    width, n_words = 100, 2
    pristine = np.zeros((4, n_words), dtype=np.uint64)
    pristine[:, 0] = ~np.uint64(0)
    pristine[:, 1] = np.uint64((1 << 36) - 1)
    words = pristine.copy()
    rows = np.array([0, 1, 3])
    starts = np.array([0, 60, 90], dtype=np.int64)
    widths = np.array([10, 8, 10], dtype=np.int64)
    clear_spans(words, rows, starts, widths, n_words)
    unpacked = xp_mod.unpack_bitmap(words, width)
    for r, s, w in zip(rows, starts, widths):
        occupied = set(range(int(s), int(s + w)))
        assert [c for c in range(width) if not unpacked[r, c]] == sorted(occupied)
    assert unpacked[2].all()
    assert not span_free(words[rows], starts, widths, width, n_words).any()
    set_spans(words, rows, starts, widths, n_words)
    assert (words == pristine).all()
    assert span_free(words[rows], starts, widths, width, n_words).all()


# -- no layer threads a backend choice any more --------------------------

KNOB_LAYERS = KERNEL_MODULES + [
    "repro.vector.xp",
    "repro.experiments.acceptance",
    "repro.experiments.ablations",
    "repro.experiments.figures",
    "repro.experiments.registry",
    "repro.search.drivers",
    "repro.incremental.reverdict",
]


def _public_callables(mod):
    import inspect

    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if callable(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


@pytest.mark.parametrize("name", KNOB_LAYERS)
def test_no_public_callable_takes_a_backend_parameter(name):
    """numpy is the only array library: no public function or method in
    the layers that used to thread a backend choice still accepts one."""
    import importlib
    import inspect

    mod = importlib.import_module(name)
    offenders = []
    seen = 0
    for qual, fn in _public_callables(mod):
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):
            continue
        seen += 1
        offenders += [f"{qual}({p})" for p in params if "backend" in p]
    assert seen > 0
    assert offenders == []
