"""Closed- and open-loop HTTP load over a few keep-alive connections.

One coroutine per connection walks that connection's requests in
stream order (see :func:`streams.lanes`), so per-device order on the
wire equals the stream's.  Failures are counted, never raised: a non-200
status, a dropped connection or a timeout marks the request failed and
ends that connection's walk (its later requests are not attempted).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from service_loadtest import HttpClient, WirePayload

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 10.0

clock = time.perf_counter


@dataclass
class Outcome:
    """What the client saw for the requests it attempted."""

    attempted: int = 0
    failed: int = 0
    #: stream index -> decision payload (status 200 only)
    decisions: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: (send offset, latency) in seconds of each successful request; the
    #: offset is from the phase start (open loop: the due time)
    samples: List[Tuple[float, float]] = field(default_factory=list)
    #: open loop: how late the generator sent each request (seconds)
    lateness: List[float] = field(default_factory=list)
    #: summed send-to-reply time of every answered request
    round_trip_s: float = 0.0
    #: seconds from the phase start to its last send (or due) time
    span: float = 0.0

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.decisions.update(other.decisions)
        self.samples.extend(other.samples)
        self.lateness.extend(other.lateness)
        self.round_trip_s += other.round_trip_s


async def _send(client: HttpClient, wire: WirePayload) -> Optional[Dict[str, Any]]:
    """The decision payload, or ``None`` when the request failed."""
    path, body = wire
    try:
        status, payload = await asyncio.wait_for(
            client.call("POST", path, body), REQUEST_TIMEOUT
        )
    except (OSError, EOFError, ValueError, IndexError, asyncio.TimeoutError,
            asyncio.IncompleteReadError):
        return None
    return payload if status == 200 else None


async def connect(port: int, count: int) -> List[HttpClient]:
    clients = [HttpClient("127.0.0.1", port) for _ in range(count)]
    for client in clients:
        await client.connect()
    return clients


async def close(clients: Sequence[HttpClient]) -> None:
    for client in clients:
        await client.close()


async def closed_loop(
    clients: Sequence[HttpClient],
    wire: Sequence[WirePayload],
    lanes: Sequence[Sequence[int]],
    seconds: Optional[float],
) -> Outcome:
    """Each connection sends its next request as soon as the previous
    reply lands.  Without ``seconds`` every lane runs to its end; with
    it, the phase stops at that deadline or as soon as one lane runs
    out of requests, whichever comes first."""
    start = clock()
    stop_at = [float("inf") if seconds is None else start + seconds]

    async def walk(client: HttpClient, lane: Sequence[int]) -> Outcome:
        out = Outcome()
        for index in lane:
            sent = clock()
            if sent >= stop_at[0]:
                break
            out.attempted += 1
            payload = await _send(client, wire[index])
            replied = clock()
            if payload is None:
                out.failed += 1
                break
            out.decisions[index] = payload
            out.round_trip_s += replied - sent
            if "error" in payload:
                out.failed += 1
            else:
                out.samples.append((sent - start, replied - sent))
        else:
            if seconds is not None:
                stop_at[0] = min(stop_at[0], clock())
        return out

    total = Outcome()
    for part in await asyncio.gather(*(walk(c, l) for c, l in zip(clients, lanes))):
        total.merge(part)
    total.span = min(stop_at[0], clock()) - start
    return total


async def open_loop(
    clients: Sequence[HttpClient],
    wire: Sequence[WirePayload],
    lanes: Sequence[Sequence[int]],
    first: int,
    rate: float,
) -> Outcome:
    """Stream index ``first + k`` is due at ``k / rate`` seconds.  Latency
    runs from the due time; lateness is how long after
    ``max(due, previous reply on the connection)`` the request went out,
    i.e. the delay the client itself added."""
    start = clock()

    async def walk(client: HttpClient, lane: Sequence[int]) -> Outcome:
        out = Outcome()
        free_at = start
        for index in lane:
            due = start + (index - first) / rate
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = clock()
            out.lateness.append(sent - max(due, free_at))
            out.attempted += 1
            payload = await _send(client, wire[index])
            free_at = clock()
            if payload is None:
                out.failed += 1
                break
            out.decisions[index] = payload
            out.round_trip_s += free_at - sent
            if "error" in payload:
                out.failed += 1
            else:
                out.samples.append((due - start, free_at - due))
        return out

    total = Outcome()
    for part in await asyncio.gather(*(walk(c, l) for c, l in zip(clients, lanes))):
        total.merge(part)
    total.span = (max((max(l) for l in lanes if l), default=first) - first + 1) / rate
    return total
