"""The admission service: device registry + one decision pipeline.

:class:`AdmissionService` is the process-level object the HTTP layer
(and in-process clients like the load harness) talk to: it owns one
:class:`~repro.service.engine.BatchEngine` behind one
:class:`~repro.service.batcher.MicroBatcher`, and one
:class:`~repro.service.metrics.ServiceMetrics` they both report into.
Every request is decided the one way the engine has: the device's
certifier, then the exact check through its ``AdmissionState``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.fpga.device import Fpga
from repro.service.batcher import BatchConfig, MicroBatcher
from repro.service.engine import BatchEngine
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import Decision, Request, task_to_json


class AdmissionService:
    """Front door over the micro-batched decision pipeline."""

    def __init__(self, *, config: Optional[BatchConfig] = None) -> None:
        self.config = config if config is not None else BatchConfig()
        self.metrics = ServiceMetrics()
        self.engine = BatchEngine(metrics=self.metrics)
        self.batcher = MicroBatcher(self.engine.process_batch, self.config, self.metrics)
        self._started = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        # Claim the flag before the first await so a concurrent start()
        # fails fast instead of double-starting the batcher (RL013); roll
        # back if the batcher refuses to come up.
        self._started = True
        try:
            await self.batcher.start()
        except BaseException:
            self._started = False
            raise

    async def close(self) -> None:
        if not self._started:
            return
        # Flip the flag before suspending so a concurrent close() is a
        # no-op instead of double-closing the batcher (RL013).
        self._started = False
        await self.batcher.close()

    # -- device registry -------------------------------------------------------

    def create_device(self, name: str, width: int) -> Dict[str, Any]:
        """Register a ``width``-column device; returns its info dict."""
        self.engine.add_device(name, Fpga(width=width))
        return self.device_info(name)

    def has_device(self, name: str) -> bool:
        return name in self.engine.devices

    def device_info(self, name: str) -> Dict[str, Any]:
        """Resident tasks + metadata (the transferable device state)."""
        dev = self.engine.device(name)
        return {
            "name": name,
            "width": dev.fpga.width,
            "capacity": dev.fpga.capacity,
            "version": dev.state.version,
            "resident": len(dev.state),
            "tasks": [task_to_json(t) for t in dev.state.tasks],
        }

    def list_devices(self) -> List[Dict[str, Any]]:
        return [self.device_info(name) for name in sorted(self.engine.devices)]

    # -- decisions -------------------------------------------------------------

    async def submit(self, request: Request) -> Decision:
        """Decide one request (through the micro-batching window)."""
        if not self._started:
            raise RuntimeError("service is not started")
        return await self.batcher.submit(request)

    def snapshot(self) -> Dict[str, Any]:
        """Service-level metrics (``GET /v1/metrics``)."""
        snap = self.metrics.snapshot()
        snap["devices"] = len(self.engine.devices)
        return snap
