"""Online admission-control service over the incremental analyzers.

The service layer turns :class:`~repro.incremental.AdmissionState` into
a long-running, concurrent admission endpoint without giving up the
repo's central contract: **every decision is bit-identical to a serial
replay of the same per-device request order**.  The pieces:

- :mod:`repro.service.protocol` — wire types (``Request``/``Decision``)
  and JSON parsing.
- :mod:`repro.service.engine` — the decision core: each request in
  arrival order, first the O(1) delta certifier, then (if it cannot
  decide) one exact DP → GN1 → GN2 check through the device's
  ``AdmissionState``.  The serial reference replay is the same routine
  without the certifier.
- :mod:`repro.service.batcher` — asyncio micro-batching (size- and
  latency-bounded window).
- :mod:`repro.service.app` / :mod:`repro.service.http` — the service
  object and its stdlib HTTP/1.1 front (``repro-service`` CLI).
- :mod:`repro.service.metrics` — decisions/sec inputs, batch-size
  histogram, certifier hit rate, latency percentiles.
"""

from repro.service.app import AdmissionService
from repro.service.batcher import BatchConfig, MicroBatcher
from repro.service.engine import BatchEngine, DeviceEngine
from repro.service.http import HttpServer
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    Decision,
    ProtocolError,
    Request,
    parse_request,
    parse_task,
)

__all__ = [
    "AdmissionService",
    "BatchConfig",
    "BatchEngine",
    "Decision",
    "DeviceEngine",
    "HttpServer",
    "MicroBatcher",
    "ProtocolError",
    "Request",
    "ServiceMetrics",
    "parse_request",
    "parse_task",
]
