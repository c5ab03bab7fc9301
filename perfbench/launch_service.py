"""Run ``repro.service`` with per-layer spans recorded from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launch_service.py TRACE.json [repro-service args...]

Wraps the service's public functions, then hands the remaining
arguments to :func:`repro.service.cli.main`.  On exit (SIGINT) the span
aggregates are written to ``TRACE.json``:

* ``protocol.parse`` / ``protocol.encode`` — ``parse_request`` and
  ``decision_to_json``;
* ``engine`` — ``BatchEngine.process_batch``;
* ``certifier`` — ``DeltaCertifier.certify_*`` and ``seed``;
* ``kernel`` — ``accept_masks``;
* ``incremental`` — ``AdmissionState.admit`` and ``portfolio_result``.

Per request it also records the ``AdmissionService.submit`` span and
splits it into the batching-window wait (``MicroBatcher.submit`` to the
start of the ``process_batch`` call that decided the request) and that
call's duration.
"""

from __future__ import annotations

import importlib
import sys

from tracing import Tracer, clock, wrap_function, wrap_attr


def install(tracer: Tracer) -> None:
    from repro.core.sensitivity import DeltaCertifier
    from repro.incremental.state import AdmissionState
    from repro.service import http, protocol  # noqa: F401  (http holds imported copies)
    from repro.service.app import AdmissionService
    from repro.service.batcher import MicroBatcher
    from repro.service.engine import BatchEngine

    # The package re-exports a function named like this module.
    reverdict = importlib.import_module("repro.incremental.reverdict")
    counters = tracer.counters
    per_request = tracer.extra.setdefault(
        "requests", {"count": 0, "submit_s": 0.0, "wait_s": 0.0, "batch_s": 0.0,
                     "first_submit": None, "last_reply": None},
    )
    decided_by = {}  # id(request) -> (start, end) of the deciding process_batch

    def on_kernel(masks, start, end, tasksets, *args, **kwargs):
        counters["kernel.rows"] += len(tasksets)

    def on_certify(verdict, start, end, *args, **kwargs):
        counters["certifier.calls"] += 1
        counters["certifier.hits"] += verdict is not None

    def on_admit(ok, start, end, *args, **kwargs):
        counters["incremental.admit_calls"] += 1

    def on_batch(decisions, start, end, engine, requests):
        counters["batcher.batches"] += 1
        counters["batcher.requests"] += len(requests)
        for request in requests:
            decided_by[id(request)] = (start, end)
        for decision in decisions:
            counters[f"decisions.via_{decision.via}"] += 1
            if decision.error is not None:
                counters["decisions.errors"] += 1
            elif not decision.ok:
                counters["decisions.rejected"] += 1

    wrap_function(tracer, protocol, "parse_request", "protocol.parse")
    wrap_function(tracer, protocol, "decision_to_json", "protocol.encode")
    wrap_function(tracer, reverdict, "accept_masks", "kernel", on_kernel)
    for attr in ("certify_add", "certify_trial", "certify_remove"):
        wrap_attr(tracer, DeltaCertifier, attr, "certifier", on_certify)
    wrap_attr(tracer, DeltaCertifier, "seed", "certifier")
    wrap_attr(tracer, AdmissionState, "admit", "incremental", on_admit)
    wrap_attr(tracer, AdmissionState, "portfolio_result", "incremental")
    wrap_attr(tracer, BatchEngine, "process_batch", "engine", on_batch)

    batcher_submit = MicroBatcher.submit
    service_submit = AdmissionService.submit

    async def traced_batcher_submit(self, request):
        enqueued = clock()
        decision = await batcher_submit(self, request)
        start, end = decided_by.pop(id(request))
        per_request["wait_s"] += start - enqueued
        per_request["batch_s"] += end - start
        return decision

    async def traced_service_submit(self, request):
        start = clock()
        decision = await service_submit(self, request)
        end = clock()
        per_request["count"] += 1
        per_request["submit_s"] += end - start
        if per_request["first_submit"] is None:
            per_request["first_submit"] = start
        per_request["last_reply"] = end
        return decision

    MicroBatcher.submit = traced_batcher_submit
    AdmissionService.submit = traced_service_submit


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.service.cli import main as serve

    try:
        return serve(argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    raise SystemExit(main())
