"""Exact admission request streams, built by serial replay.

Each request is decided by :meth:`BatchEngine.process_serial` as soon as
it is drawn, so the generator knows every device's true resident set:
every ``remove`` names a task that is resident, and the replay's
decisions are the expected answers the service must reproduce.

Operation mix per request on a uniformly chosen device: 20% ``trial``;
otherwise ``remove`` with probability ``0.5 * min(1, resident/target)``,
else ``add``.  At the resident target that is 40% add / 20% trial / 40%
remove; a device that saturates below the target sees fewer removes and
more rejected adds.  A target far above saturation makes removes so rare
that the resident set drifts for thousands of requests, and with it the
cost of a decision, so a narrow device needs a target near its capacity.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.fpga.device import Fpga
from repro.model.task import Task
from repro.service.engine import BatchEngine
from repro.service.protocol import Decision, Request
from service_loadtest import draw_task

#: Fields of a decision that must equal the serial replay's.
PARITY_FIELDS = ("op", "device", "name", "ok", "error")
DEVICES = tuple(f"d{i}" for i in range(4))


def _draw(rng: random.Random, name: str, wcet_scale: float) -> Task:
    """``service_loadtest.draw_task`` with its WCET scaled (heavier tasks
    fill a device with fewer residents)."""
    task = draw_task(rng, name)
    if wcet_scale == 1:
        return task
    return Task(wcet=task.wcet * wcet_scale, period=task.period, area=task.area, name=name)


def build_stream(
    width: int, wcet_scale: float, resident_target: int, seed: int, count: int
) -> Tuple[List[Request], List[Decision]]:
    """``count`` requests for ``width``-column devices drawn from
    ``seed``, with their serial decisions."""
    rng = random.Random(seed)
    engine = BatchEngine()
    for name in DEVICES:
        engine.add_device(name, Fpga(width=width))
    resident: Dict[str, List[str]] = {name: [] for name in DEVICES}
    requests: List[Request] = []
    decisions: List[Decision] = []
    for serial in range(count):
        device = rng.choice(DEVICES)
        names = resident[device]
        if rng.random() < 0.2:
            op = "trial"
        elif names and rng.random() < 0.5 * min(1.0, len(names) / resident_target):
            op = "remove"
        else:
            op = "add"
        if op == "remove":
            request = Request(op=op, device=device, name=names.pop(rng.randrange(len(names))))
        else:
            task = _draw(rng, f"t{serial}", wcet_scale)
            request = Request(op=op, device=device, task=task)
        (decision,) = engine.process_serial([request])
        if decision.error is not None:
            raise RuntimeError(f"stream generator drew an inapplicable request: {decision}")
        if op == "add" and decision.ok:
            names.append(request.target)
        requests.append(request)
        decisions.append(decision)
    return requests, decisions


def lanes(requests: Sequence[Request], connections: int) -> List[List[int]]:
    """Split stream indices over ``connections``: each connection owns a
    fixed subset of the devices, so every device's requests travel over
    one connection in stream order."""
    owner = {name: i % connections for i, name in enumerate(DEVICES)}
    out: List[List[int]] = [[] for _ in range(connections)]
    for index, request in enumerate(requests):
        out[owner[request.device]].append(index)
    return out


def parity_key(decision: Decision) -> Tuple:
    return tuple(getattr(decision, field) for field in PARITY_FIELDS)


def wire_parity_key(payload: Dict) -> Tuple:
    return tuple(payload.get(field) for field in PARITY_FIELDS)
