#!/usr/bin/env python
"""Online admission control for a reconfigurable accelerator card.

Scenario (the use case motivating the paper's bounds): a server offloads
streaming kernels — video scalers, packet filters, crypto engines — onto
a PRTR FPGA at runtime.  Each arriving service asks for a periodic
hardware task ``(C, D, T, A)``.  The admission controller must answer
*now*, without simulating: it accepts a task iff the already-admitted set
plus the newcomer still passes a schedulability bound.

This demo is a thin client of the **admission service pipeline**
(:mod:`repro.service`): concurrent requests coalesce in a micro-batching
window, the :class:`~repro.core.sensitivity.DeltaCertifier` answers the
provably-easy deltas in O(1), and each remaining request takes one exact
DP → GN1 → GN2 check through the device's
:class:`repro.incremental.AdmissionState` — the same pipeline
``repro-service`` exposes over HTTP, driven here in-process through
:class:`repro.service.AdmissionService`.  Decisions are bit-identical to
deciding every request alone through that state — pass ``--from-scratch`` to
replay the recorded request sequence through the per-request serial
baseline *and* the from-scratch scalar portfolio, and assert all three
decision sequences are identical.

Run: ``python examples/admission_control.py [--from-scratch]``
"""

import argparse
import asyncio
from typing import List

from repro import Fpga, Task, TaskSet
from repro.core import SchedulerKind, paper_portfolio
from repro.fpga.device import Fpga as ServiceFpga
from repro.gen.profiles import GenerationProfile
from repro.gen.random_tasksets import generate_taskset
from repro.service import AdmissionService, BatchConfig, BatchEngine, Request
from repro.util.rngutil import rng_from_seed

DEVICE = "card0"
WIDTH = 100
BATCH = 16  #: arrivals submitted concurrently per wave
DEPARTURE_EVERY = 4  #: one teardown per this many arrivals


async def drive_service(
    arrivals: List[Task], config: BatchConfig
) -> tuple:
    """Submit arrival waves concurrently (they coalesce into batches),
    tearing down the oldest admitted service every few arrivals.

    Returns ``(recorded_requests, decisions, snapshot)`` — the request
    sequence in its decided per-device order, ready for serial replay.
    """
    service = AdmissionService(config=config)
    await service.start()
    service.create_device(DEVICE, WIDTH)
    recorded: List[Request] = []
    decisions = []
    admitted: List[str] = []
    try:
        for wave_start in range(0, len(arrivals), BATCH):
            wave = arrivals[wave_start : wave_start + BATCH]
            requests = [Request(op="add", device=DEVICE, task=t) for t in wave]
            recorded.extend(requests)
            # gather() fans the wave into the micro-batching window; the
            # batcher coalesces it into (at most) one engine batch.
            wave_decisions = await asyncio.gather(
                *[service.submit(r) for r in requests]
            )
            decisions.extend(wave_decisions)
            admitted.extend(d.name for d in wave_decisions if d.ok)
            departures = [
                Request(op="remove", device=DEVICE, name=admitted.pop(0))
                for _ in range(len(wave) // DEPARTURE_EVERY)
                if admitted
            ]
            if departures:
                recorded.extend(departures)
                decisions.extend(
                    await asyncio.gather(*[service.submit(r) for r in departures])
                )
        return recorded, decisions, service.snapshot()
    finally:
        await service.close()


def replay_serial(recorded: List[Request]) -> List:
    """The per-request baseline: the same sequence, one request at a
    time through ``AdmissionState.admit`` — no batching, no certifier."""
    engine = BatchEngine()
    engine.add_device(DEVICE, ServiceFpga(width=WIDTH))
    return engine.process_serial(recorded)


def replay_from_scratch(recorded: List[Request]) -> List[bool]:
    """Reference replay: every decision runs the scalar §6 portfolio
    from scratch on a freshly built TaskSet."""
    fpga = Fpga(width=WIDTH)
    portfolio = paper_portfolio(SchedulerKind.EDF_NF)
    admitted: List[Task] = []
    decisions: List[bool] = []
    for request in recorded:
        if request.op == "remove":
            admitted = [t for t in admitted if t.name != request.name]
            decisions.append(True)
            continue
        assert request.task is not None
        candidate = TaskSet(admitted + [request.task])
        ok = bool(portfolio(candidate, fpga).accepted)
        if ok:
            admitted.append(request.task)
        decisions.append(ok)
    return decisions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--from-scratch",
        action="store_true",
        help="also replay the recorded request sequence through the "
        "per-request serial baseline and the from-scratch scalar "
        "portfolio, and assert all decision sequences are identical",
    )
    parser.add_argument("--arrivals", type=int, default=120)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    profile = GenerationProfile(
        n_tasks=1, area_min=5, area_max=45,
        period_min=5, period_max=20, util_min=0.05, util_max=0.5,
        name="service-requests",
    )
    rng = rng_from_seed(args.seed)
    arrivals = [generate_taskset(profile, rng, name_prefix=f"svc{i}_")[0]
                for i in range(args.arrivals)]

    print(f"{len(arrivals)} service requests against a {WIDTH}-column "
          f"device (micro-batched admission service, waves of {BATCH})\n")
    recorded, decisions, snapshot = asyncio.run(
        drive_service(arrivals, BatchConfig(max_batch=BATCH, max_wait=0.002))
    )

    adds = [d for d in decisions if d.op == "add"]
    accepted = sum(1 for d in adds if d.ok)
    by_via = snapshot["by_via"]
    print(f"{'accepted':>9} {'rejected':>9} {'batches':>8} "
          f"{'mean size':>10} {'O(1) certs':>11} {'state':>7}")
    print(f"{accepted:>9} {len(adds) - accepted:>9} "
          f"{snapshot['batches_total']:>8} "
          f"{snapshot['mean_batch_size']:>10.1f} "
          f"{snapshot['certifier']['hit_rate']:>10.0%} "
          f"{by_via.get('state', 0):>7}")
    histogram = ", ".join(
        f"{size}x{count}" for size, count in snapshot["batch_size_histogram"].items()
    )
    print(f"\nbatch-size histogram (size x batches): {histogram}")

    if args.from_scratch:
        verdicts = [(d.op, d.name, d.ok) for d in decisions]
        serial = replay_serial(recorded)
        assert [(d.op, d.name, d.ok) for d in serial] == verdicts, (
            "service decisions diverged from per-request serial replay"
        )
        scratch = replay_from_scratch(recorded)
        assert [d.ok for d in decisions] == scratch, (
            "service decisions diverged from from-scratch portfolio replay"
        )
        print("\ncross-check: batched service decisions identical to the "
              "per-request serial replay\nand identical to from-scratch "
              "scalar portfolio replays of the recorded sequence")

    print(
        "\nThe portfolio admits at least as many services as any single "
        "bound\n(paper §6: 'different schedulability bounds should be "
        "applied together'),\nand the service answers them in coalesced "
        "batches without changing one verdict."
    )


if __name__ == "__main__":
    main()
