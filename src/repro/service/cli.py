"""``repro-service``: run the admission service from the command line.

Example::

    repro-service --port 8080 --device fpga0=96 --device fpga1=64 \\
        --max-batch 256 --max-wait-ms 2

The process serves until interrupted.  Every request goes through the
micro-batching window, then the device's delta certifier, then, when
the certifier cannot decide, one exact DP → GN1 → GN2 check through the
device's ``AdmissionState``.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import List, Optional, Tuple

from repro.service.app import AdmissionService
from repro.service.batcher import BatchConfig
from repro.service.http import HttpServer


def _parse_device(spec: str) -> Tuple[str, int]:
    name, sep, width_text = spec.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"device spec must be NAME=WIDTH, got {spec!r}"
        )
    try:
        width = int(width_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"device width must be an integer, got {width_text!r}"
        ) from None
    return name, width


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Online admission-control service (EDF on reconfigurable devices).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--device",
        metavar="NAME=WIDTH",
        type=_parse_device,
        action="append",
        default=[],
        help="pre-register a device (repeatable); more can be added via POST /v1/devices",
    )
    parser.add_argument(
        "--max-batch", type=int, default=256, help="batching window size bound"
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="batching window latency bound, in milliseconds",
    )
    return parser


async def _serve(args: argparse.Namespace) -> None:
    service = AdmissionService(
        config=BatchConfig(max_batch=args.max_batch, max_wait=args.max_wait_ms / 1000.0)
    )
    for name, width in args.device:
        service.create_device(name, width)
    server = HttpServer(service, args.host, args.port)
    await service.start()
    try:
        host, port = await server.start()
        print(f"repro-service listening on http://{host}:{port}", flush=True)
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
        await service.close()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
