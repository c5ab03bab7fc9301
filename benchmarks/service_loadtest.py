"""Load-test harness for the admission service.

Two client disciplines over real loopback HTTP/1.1 sockets, plus the
deterministic steady-state request stream both the bench and the
parity replay consume:

* **closed loop** — ``concurrency`` workers, each with one keep-alive
  connection, firing its next request the moment the previous decision
  lands.  Measures sustained decisions/second at a fixed concurrency
  level (the ISSUE's ``>= 1000/s at concurrency >= 64`` criterion).
* **open loop** — requests dispatched on a fixed schedule (``rate`` per
  second) regardless of completions, the way arrivals actually behave;
  measures the latency distribution under a fixed offered load and
  exposes queueing that closed-loop clients hide.

Streams are *steady-state churn*: admits and removals balanced around a
resident-set target, the regime an online admission controller lives in
(and where decision cost stays stationary instead of growing with every
accepted task).  Everything is seeded — the exact request sequence is
reproducible and replayable through ``BatchEngine.process_serial`` (the
service's one decision routine without the certifier, so every add and
trial takes the exact ``AdmissionState`` check) for the bit-identity
check.  :func:`steady_stream` tracks residency optimistically;
:func:`capacity_stream` tracks it from the serial decisions, so it can
hold narrow devices at capacity, where most adds are rejected.
"""

import asyncio
import json
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fpga.device import Fpga
from repro.model.task import Task
from repro.service.engine import BatchEngine
from repro.service.protocol import Decision, Request

WirePayload = Tuple[str, Dict[str, Any]]  # (path, JSON body)

_PATHS = {"add": "/v1/admit", "trial": "/v1/trial", "remove": "/v1/remove"}


def draw_task(rng: random.Random, name: str) -> Task:
    """Moderate-utilization float64 task (irregular WCET keeps the
    stream off exact knife edges)."""
    period = float(rng.randint(40, 90))
    wcet = rng.randint(1, 5) + 0.05 + 0.01 * rng.random()
    return Task(wcet=wcet, period=period, area=rng.randint(1, 8), name=name)


def steady_stream(
    seed: int,
    n_requests: int,
    devices: Sequence[str],
    resident_target: int = 40,
) -> List[Request]:
    """Seeded add/remove/trial stream churning around ``resident_target``
    residents per device.  Residency is tracked optimistically (adds
    assumed admitted) — good enough to keep the stream bounded; actual
    admission decisions come from the engine under test."""
    rng = random.Random(seed)
    resident: Dict[str, List[str]] = {d: [] for d in devices}
    serial = 0
    stream: List[Request] = []
    for _ in range(n_requests):
        device = rng.choice(list(devices))
        names = resident[device]
        roll = rng.random()
        if len(names) < resident_target // 2:
            op = "add"
        elif roll < 0.40 and names:
            op = "remove"
        elif roll < 0.60 or len(names) > resident_target * 3 // 2:
            op = "trial"
        else:
            op = "add"
        if op == "remove":
            name = names.pop(len(names) // 2)
            stream.append(Request(op="remove", device=device, name=name))
        else:
            serial += 1
            task = draw_task(rng, f"t{serial}")
            stream.append(Request(op=op, device=device, task=task))
            if op == "add":
                names.append(task.name)
    return stream


def capacity_stream(
    seed: int,
    n_requests: int,
    devices: Sequence[str],
    width: int = 12,
    wcet_scale: float = 4.0,
    resident_target: int = 20,
) -> Tuple[List[Request], List[Decision]]:
    """Seeded stream that holds ``width``-column devices at capacity,
    with its serial decisions.

    Each request is decided by ``BatchEngine.process_serial`` as it is
    drawn, so residency follows the true decisions and every ``remove``
    names a resident task.  Per request, on a uniformly chosen device:
    20% ``trial``; otherwise ``remove`` with probability
    ``0.5 * min(1, resident / resident_target)``, else ``add`` of a
    :func:`draw_task` task with its WCET scaled by ``wcet_scale``.  The
    defaults (12 columns, 4x WCETs, 20 residents) saturate a device near
    a dozen residents, so the certifier rarely settles an add and most
    exact checks are rejections.
    """
    rng = random.Random(seed)
    engine = BatchEngine()
    for name in devices:
        engine.add_device(name, Fpga(width=width))
    resident: Dict[str, List[str]] = {name: [] for name in devices}
    requests: List[Request] = []
    decisions: List[Decision] = []
    for serial in range(n_requests):
        device = rng.choice(list(devices))
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
            task = draw_task(rng, f"t{serial}")
            task = Task(
                wcet=task.wcet * wcet_scale, period=task.period, area=task.area,
                name=task.name,
            )
            request = Request(op=op, device=device, task=task)
        (decision,) = engine.process_serial([request])
        if op == "add" and decision.ok:
            names.append(request.target)
        requests.append(request)
        decisions.append(decision)
    return requests, decisions


def to_wire(request: Request) -> WirePayload:
    if request.op == "remove":
        return _PATHS["remove"], {"device": request.device, "name": request.name}
    task = request.task
    assert task is not None
    return _PATHS[request.op], {
        "device": request.device,
        "task": {
            "name": task.name,
            "wcet": float(task.wcet),
            "period": float(task.period),
            "deadline": float(task.deadline),
            "area": float(task.area),
        },
    }


# -- raw HTTP client -----------------------------------------------------------


class HttpClient:
    """One keep-alive HTTP/1.1 connection speaking the service's JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def call(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        assert self._reader is not None and self._writer is not None
        payload = json.dumps(body).encode() if body is not None else b""
        self._writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode()
            + payload
        )
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            key, _, value = line.decode().partition(":")
            headers[key.lower().strip()] = value.strip()
        data = await self._reader.readexactly(int(headers.get("content-length", 0)))
        return status, json.loads(data)


# -- client disciplines --------------------------------------------------------


async def closed_loop(
    host: str,
    port: int,
    wire_ops: Sequence[WirePayload],
    concurrency: int,
) -> Tuple[float, List[Dict[str, Any]], List[float]]:
    """``concurrency`` keep-alive workers drain the shared request list.

    Returns ``(elapsed_seconds, decisions_in_request_order,
    client_side_latencies)``.
    """
    queue: List[Tuple[int, WirePayload]] = list(enumerate(wire_ops))
    queue.reverse()  # pop() serves requests in stream order
    decisions: List[Optional[Dict[str, Any]]] = [None] * len(wire_ops)
    latencies: List[float] = []

    async def worker() -> None:
        client = HttpClient(host, port)
        await client.connect()
        try:
            while queue:
                index, (path, body) = queue.pop()
                sent = time.perf_counter()
                status, decision = await client.call("POST", path, body)
                latencies.append(time.perf_counter() - sent)
                assert status == 200, (status, decision)
                decisions[index] = decision
        finally:
            await client.close()

    start = time.perf_counter()
    await asyncio.gather(*[worker() for _ in range(concurrency)])
    elapsed = time.perf_counter() - start
    return elapsed, [d for d in decisions if d is not None], latencies


async def open_loop(
    host: str,
    port: int,
    wire_ops: Sequence[WirePayload],
    rate: float,
    connections: int = 16,
) -> Tuple[float, List[float]]:
    """Fire requests on a fixed ``rate``/s schedule over a small
    connection pool; returns ``(elapsed, latencies)``.  Latency here
    includes any queueing behind the offered load — the number an SLO
    would be written against."""
    pool: List[HttpClient] = []
    locks: List[asyncio.Lock] = []
    for _ in range(connections):
        client = HttpClient(host, port)
        await client.connect()
        pool.append(client)
        locks.append(asyncio.Lock())
    latencies: List[float] = []
    start = time.perf_counter()

    async def fire(index: int, path: str, body: Dict[str, Any]) -> None:
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        slot = index % connections
        async with locks[slot]:  # HTTP/1.1: one in-flight request per conn
            status, _ = await pool[slot].call("POST", path, body)
        assert status == 200
        latencies.append(time.perf_counter() - due)

    try:
        await asyncio.gather(
            *[fire(i, path, body) for i, (path, body) in enumerate(wire_ops)]
        )
    finally:
        for client in pool:
            await client.close()
    return time.perf_counter() - start, latencies
