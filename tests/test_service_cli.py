"""Command-line parsing of ``repro-service``."""

import argparse

import pytest

from repro.service.cli import _parse_device, build_parser


class TestDeviceSpec:
    @pytest.mark.parametrize(
        "spec, expected",
        [("fpga0=96", ("fpga0", 96)), ("a=1", ("a", 1)), ("x=y=8", None)],
        ids=["plain", "unit-width", "equals-in-width"],
    )
    def test_parse(self, spec, expected):
        if expected is None:
            # Only the first "=" splits; "y=8" is not an integer width.
            with pytest.raises(argparse.ArgumentTypeError, match="integer"):
                _parse_device(spec)
        else:
            assert _parse_device(spec) == expected

    @pytest.mark.parametrize("spec", ["fpga0", "=96", ""], ids=["no-sep", "no-name", "empty"])
    def test_rejects_missing_part(self, spec):
        with pytest.raises(argparse.ArgumentTypeError, match="NAME=WIDTH"):
            _parse_device(spec)

    @pytest.mark.parametrize("width", ["wide", "9.5", ""], ids=["word", "float", "empty"])
    def test_rejects_non_integer_width(self, width):
        with pytest.raises(argparse.ArgumentTypeError, match="integer"):
            _parse_device(f"fpga0={width}")


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert (args.host, args.port, args.device) == ("127.0.0.1", 8080, [])
        assert (args.max_batch, args.max_wait_ms) == (256, 2.0)

    def test_devices_accumulate_in_order(self):
        args = build_parser().parse_args(
            ["--device", "fpga0=96", "--device", "fpga1=64", "--max-wait-ms", "0.5"]
        )
        assert args.device == [("fpga0", 96), ("fpga1", 64)]
        assert args.max_wait_ms == 0.5

    def test_bad_device_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--device", "fpga0"])
        assert exc.value.code == 2
        assert "NAME=WIDTH" in capsys.readouterr().err
