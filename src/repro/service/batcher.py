"""Size- and latency-bounded coalescing of concurrent requests.

The :class:`MicroBatcher` is the asyncio front of the decision core:
``submit()`` parks a request on the pending list and wakes the flush
loop, which waits for the **batching window** — close as soon as
``max_batch`` requests are pending, or once ``max_wait`` seconds have
passed since the batch's first arrival, whichever comes first — then
hands the whole batch to :meth:`BatchEngine.process_batch
<repro.service.engine.BatchEngine.process_batch>` and resolves every
waiter with its decision.

The engine decides a batch's requests one at a time, so the window
amortizes only the per-batch overhead: the event-loop hop and the
engine call.  It costs each request at most ``max_wait`` of latency.
``max_wait=0`` still coalesces whatever accumulated while the previous
batch was being decided (natural batching under load).

Decisions never depend on the window: per-device order is preserved and
the engine decides each request in arrival order, so timing only moves
*when* a decision happens, never *what* it is.

The engine runs synchronously on the event loop — decisions are pure
CPU (numpy kernels release the GIL but there is no I/O to overlap), so
a worker thread would only add handoff latency.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.service import clock
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import Decision, Request


@dataclass(frozen=True)
class BatchConfig:
    """Batching-window knobs (both bounds are configurable per service).

    ``max_batch``
        Size bound: flush as soon as this many requests are pending.
    ``max_wait``
        Latency bound, in seconds: flush once the oldest pending
        request has waited this long.  ``0`` flushes on the next loop
        tick (requests arriving in the same tick still coalesce).
    """

    max_batch: int = 256
    max_wait: float = 0.002

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")


class MicroBatcher:
    """Coalesce concurrent ``submit()`` calls into engine batches."""

    def __init__(
        self,
        process: Callable[[Sequence[Request]], List[Decision]],
        config: Optional[BatchConfig] = None,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self._process = process
        self.config = config if config is not None else BatchConfig()
        self.metrics = metrics
        self._pending: List[Tuple[Request, "asyncio.Future[Decision]", float]] = []
        self._arrival: Optional[asyncio.Event] = None  # first pending request
        self._full: Optional[asyncio.Event] = None     # max_batch reached
        self._loop_task: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Start the flush loop on the running event loop."""
        if self._loop_task is not None:
            raise RuntimeError("batcher already started")
        self._arrival = asyncio.Event()
        self._full = asyncio.Event()
        self._closed = False
        self._loop_task = asyncio.create_task(self._run(), name="repro-service-batcher")

    async def close(self) -> None:
        """Flush what's pending, then stop the loop."""
        if self._loop_task is None:
            return
        self._closed = True
        assert self._arrival is not None
        self._arrival.set()  # wake the loop so it can exit
        task, self._loop_task = self._loop_task, None
        await task
        while self._pending:  # anything submitted during shutdown
            self._flush()

    # -- submission ------------------------------------------------------------

    async def submit(self, request: Request) -> Decision:
        """Enqueue ``request``; resolves with its decision after the
        batch it lands in is flushed."""
        if self._loop_task is None or self._closed:
            raise RuntimeError("batcher is not running")
        assert self._arrival is not None and self._full is not None
        future: "asyncio.Future[Decision]" = asyncio.get_running_loop().create_future()
        self._pending.append((request, future, clock.now()))
        if self.metrics is not None:
            self.metrics.requests_in_flight += 1
        self._arrival.set()
        if len(self._pending) >= self.config.max_batch:
            self._full.set()
        return await future

    # -- flush loop ------------------------------------------------------------

    async def _run(self) -> None:
        assert self._arrival is not None and self._full is not None
        while True:
            await self._arrival.wait()
            if self._closed:
                return
            # Window: wait for max_batch or the oldest request's deadline.
            deadline = self._pending[0][2] + self.config.max_wait if self._pending else 0.0
            while 0 < len(self._pending) < self.config.max_batch and not self._closed:
                remaining = deadline - clock.now()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(self._full.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            if self.config.max_wait == 0:
                # Let same-tick submitters coalesce before flushing.
                await asyncio.sleep(0)
            self._flush()
            if self._closed:
                return

    def _flush(self) -> None:
        # The size bound holds even for bursts that all arrived while a
        # previous batch was being decided: flush max_batch, requeue the rest.
        limit = self.config.max_batch
        batch, self._pending = self._pending[:limit], self._pending[limit:]
        assert self._arrival is not None and self._full is not None
        self._arrival.clear()
        self._full.clear()
        if self._pending:
            self._arrival.set()
            if len(self._pending) >= limit:
                self._full.set()
        if not batch:
            return
        if self.metrics is not None:
            self.metrics.requests_in_flight -= len(batch)
        requests = [request for request, _, _ in batch]
        try:
            decisions = self._process(requests)
        except Exception as exc:  # defensive: never strand waiters
            for _, future, _ in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        done = clock.now()
        for (request, future, enqueued), decision in zip(batch, decisions):
            if self.metrics is not None:
                self.metrics.observe_latency(done - enqueued)
            if not future.done():
                future.set_result(decision)
