"""Property tests for the shared interval representation.

The scalar :class:`repro.fpga.freelist.FreeList` (sorted interval lists)
and the batched :class:`repro.vector.placement_vec.BatchFreeList`
(per-row uint64 column bitmaps) must describe the *same* free-space
state — same holes, same policy choices, same allocations — under any
sequence of places and frees, on any device geometry (including
static-region pre-fragmentation).  Hypothesis drives random op
sequences against both and compares them step by step.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.fpga import intervals as iv
from repro.fpga.device import Fpga, StaticRegion
from repro.fpga.freelist import FreeList
from repro.fpga.placement import PlacementPolicy, choose_interval
from repro.vector import xp
from repro.vector.placement_vec import BatchFreeList


@st.composite
def devices(draw, max_width=96):
    """A device with random width and random disjoint static regions."""
    width = draw(st.integers(1, max_width))
    regions = []
    cursor = 0
    while cursor < width and draw(st.booleans()):
        start = draw(st.integers(cursor, width - 1))
        block = draw(st.integers(1, width - start))
        regions.append(StaticRegion(start, block))
        cursor = start + block
    return Fpga(width=width, static_regions=tuple(regions))


def _arr(x):
    return np.array([x])


class TestEncodingRoundTrip:
    @given(devices())
    @settings(max_examples=80, deadline=None)
    def test_spans_words_round_trip(self, fpga):
        spans = list(fpga.free_spans())
        words = xp.spans_to_words(spans, fpga.width)
        assert xp.words_to_spans(words, fpga.width) == spans

    @given(devices())
    @settings(max_examples=80, deadline=None)
    def test_complement_partitions_device(self, fpga):
        spans = list(fpga.free_spans())
        occupied = iv.complement(spans, fpga.width)
        assert iv.total_width(spans) + iv.total_width(occupied) == fpga.width
        merged = []  # adjacent static regions coalesce in the complement
        for r in fpga.static_regions:
            if merged and merged[-1][1] == r.start:
                merged[-1] = (merged[-1][0], r.end)
            else:
                merged.append((r.start, r.end))
        assert occupied == merged


class TestFreeListVsBitmap:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_place_free_sequences_agree(self, data):
        """FreeList and BatchFreeList report identical holes, totals,
        largest holes, span-freeness and policy choices under a random
        place/free sequence."""
        fpga = data.draw(devices())
        fl = FreeList(fpga)
        bfl = BatchFreeList(fpga, 1)
        assert bfl.free_spans_of(0) == fl.free_intervals
        live = {}
        key = 0
        for _ in range(data.draw(st.integers(0, 30))):
            if live and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(sorted(live)))
                start, width = live.pop(victim)
                fl.release(victim)
                bfl.vacate(_arr(0), _arr(start), _arr(width))
            else:
                width = data.draw(st.integers(1, fpga.width + 1))
                policy = data.draw(st.sampled_from(list(PlacementPolicy)))
                ref = choose_interval(fl.free_intervals, width, policy)
                got = int(bfl.choose(_arr(width), policy)[0])
                assert (ref if ref is not None else -1) == got
                if ref is not None:
                    fl.allocate(key, width, policy)
                    bfl.occupy(_arr(0), _arr(ref), _arr(width))
                    live[key] = (ref, width)
                    key += 1
            # The two representations must agree on every query surface.
            assert bfl.free_spans_of(0) == fl.free_intervals
            assert int(bfl.total_free()[0]) == fl.total_free
            assert int(bfl.largest_hole()[0]) == fl.largest_hole
            probe = data.draw(st.integers(0, fpga.width - 1))
            probe_w = data.draw(st.integers(1, fpga.width - probe))
            assert bool(bfl.is_free(_arr(probe), _arr(probe_w))[0]) == fl.is_free(
                probe, probe_w
            )
            fl.check_invariants()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_choose_matches_reference_on_random_holes(self, data):
        """The batched chooser equals ``choose_interval`` on arbitrary
        (not just reachable-by-allocation) hole configurations."""
        width = data.draw(st.integers(1, 120))
        spans = []
        cursor = 0
        while cursor < width:
            start = data.draw(st.integers(cursor, width - 1))
            end = data.draw(st.integers(start + 1, width))
            spans.append((start, end))
            cursor = end + 1
            if not data.draw(st.booleans()):
                break
        words = xp.spans_to_words(spans, width)[None, :]
        need = data.draw(st.integers(1, width + 1))
        from repro.vector.placement_vec import choose_batch

        for policy in PlacementPolicy:
            ref = choose_interval(spans, need, policy)
            got = int(choose_batch(words, np.array([need]), width, policy)[0])
            assert (ref if ref is not None else -1) == got

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_rows_are_independent(self, data):
        """Mutating one row of a BatchFreeList never leaks into others."""
        fpga = data.draw(devices(max_width=40))
        bfl = BatchFreeList(fpga, 3)
        baseline = bfl.free_spans_of(1)
        width = data.draw(st.integers(1, fpga.width))
        start = int(bfl.choose(np.array([width] * 3), PlacementPolicy.FIRST_FIT)[0])
        if start >= 0:
            bfl.occupy(_arr(0), _arr(start), _arr(width))
            assert bfl.free_spans_of(1) == baseline
            assert bfl.free_spans_of(2) == baseline
            bfl.vacate(_arr(0), _arr(start), _arr(width))
            assert bfl.free_spans_of(0) == baseline


class TestIntervalPrimitives:
    def test_carve_requires_containment(self):
        with pytest.raises(ValueError):
            iv.carve([(0, 4), (6, 10)], 3, 3)

    def test_insert_rejects_overlap(self):
        with pytest.raises(ValueError):
            iv.insert_coalesced([(0, 4)], 2, 6)
        with pytest.raises(ValueError):
            iv.insert_coalesced([(0, 4)], 2, 2)

    def test_insert_coalesces_both_sides(self):
        assert iv.insert_coalesced([(0, 2), (4, 6)], 2, 4) == [(0, 6)]

    def test_spans_to_words_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            xp.spans_to_words([(0, 11)], 10)

    @pytest.mark.parametrize(
        "spans, largest",
        [([], 0), ([(3, 4)], 1), ([(0, 2), (5, 12), (20, 24)], 7)],
        ids=["empty", "single", "middle-widest"],
    )
    def test_largest_width(self, spans, largest):
        assert iv.largest_width(spans) == largest

    @pytest.mark.parametrize(
        "start, width, inside",
        [(0, 4, True), (6, 4, True), (1, 2, True), (3, 2, False), (4, 1, False), (6, 5, False)],
        ids=["fills-first", "fills-second", "interior", "straddles-gap",
             "in-gap", "past-end"],
    )
    def test_contains_span(self, start, width, inside):
        assert iv.contains_span([(0, 4), (6, 10)], start, width) is inside

    @pytest.mark.parametrize(
        "spans, message",
        [
            ([(2, 2)], "empty interval"),
            ([(4, 6), (0, 2)], "not sorted"),
            ([(0, 3), (3, 5)], "not sorted/maximal"),
            ([(8, 11)], "outside"),
        ],
        ids=["empty", "unsorted", "touching", "out-of-device"],
    )
    def test_check_sorted_maximal_flags(self, spans, message):
        with pytest.raises(AssertionError, match=message):
            iv.check_sorted_maximal(spans, 10)

    def test_check_sorted_maximal_accepts_valid(self):
        iv.check_sorted_maximal([], 10)
        iv.check_sorted_maximal([(0, 3), (4, 10)], 10)

    @pytest.mark.parametrize(
        "width, words", [(1, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_word_count(self, width, words):
        assert iv.word_count(width) == words
        assert len(xp.spans_to_words([(0, width)], width)) == words

    def test_word_count_rejects_empty_device(self):
        with pytest.raises(ValueError):
            iv.word_count(0)

    def test_spans_straddling_word_boundary(self):
        words = xp.spans_to_words([(60, 70)], 128)
        assert int(words[0]) == 0xF << 60
        assert int(words[1]) == 0x3F
        assert xp.words_to_spans(words, 128) == [(60, 70)]
