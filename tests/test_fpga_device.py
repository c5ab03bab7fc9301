"""Tests for the FPGA device model and static regions."""

import pytest

from repro.fpga.device import Fpga, StaticRegion


class TestFpga:
    def test_basic_properties(self):
        f = Fpga(width=100)
        assert f.area == 100
        assert f.capacity == 100
        assert f.reserved_area == 0
        assert list(f.free_spans()) == [(0, 100)]

    def test_fits(self):
        f = Fpga(width=10)
        assert f.fits(10)
        assert not f.fits(11)

    @pytest.mark.parametrize("width", [0, -3])
    def test_rejects_nonpositive_width(self, width):
        with pytest.raises(ValueError):
            Fpga(width=width)

    def test_rejects_non_integer_width(self):
        with pytest.raises(TypeError):
            Fpga(width=10.5)  # type: ignore[arg-type]

    def test_rejects_width_beyond_exact_float64(self):
        """The kernels compute in float64; 2**53 is the widest device
        whose width (and every capacity below it) converts exactly."""
        assert Fpga(width=2**53).capacity == 2**53
        with pytest.raises(ValueError, match="2\\*\\*53"):
            Fpga(width=2**53 + 1)


class TestStaticRegions:
    def test_capacity_excludes_static(self):
        f = Fpga(width=10, static_regions=(StaticRegion(2, 3),))
        assert f.capacity == 7
        assert f.reserved_area == 3

    def test_free_spans_fragmented(self):
        f = Fpga(width=10, static_regions=(StaticRegion(2, 3), StaticRegion(8, 1)))
        assert list(f.free_spans()) == [(0, 2), (5, 8), (9, 10)]

    def test_region_at_edges(self):
        f = Fpga(width=10, static_regions=(StaticRegion(0, 2), StaticRegion(8, 2)))
        assert list(f.free_spans()) == [(2, 8)]

    def test_regions_sorted_automatically(self):
        f = Fpga(width=10, static_regions=(StaticRegion(6, 2), StaticRegion(1, 2)))
        assert [r.start for r in f.static_regions] == [1, 6]

    def test_rejects_overlapping_regions(self):
        with pytest.raises(ValueError):
            Fpga(width=10, static_regions=(StaticRegion(0, 5), StaticRegion(4, 2)))

    def test_rejects_out_of_range_region(self):
        with pytest.raises(ValueError):
            Fpga(width=10, static_regions=(StaticRegion(8, 5),))

    def test_rejects_bad_region_params(self):
        with pytest.raises(ValueError):
            StaticRegion(-1, 2)
        with pytest.raises(ValueError):
            StaticRegion(0, 0)

    def test_whole_device_reserved(self):
        f = Fpga(width=4, static_regions=(StaticRegion(0, 4),))
        assert f.capacity == 0
        assert list(f.free_spans()) == []
