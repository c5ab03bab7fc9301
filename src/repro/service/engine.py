"""The admission decision core: certifier, then one exact check.

One :class:`BatchEngine` owns every named device's
:class:`~repro.incremental.state.AdmissionState` and decides each
request on its own, in arrival order, through one routine:

- ``remove`` retires the task.  :meth:`BatchEngine.process_batch` keeps
  the device's :class:`~repro.core.sensitivity.DeltaCertifier` cache
  when a DP/GN1 accept provably survives the departure.
- ``add`` / ``trial``: :meth:`BatchEngine.process_batch` asks the
  certifier first; the provably-easy arrivals (inside the cached DP
  slack) resolve in O(1).  Otherwise the device's state decides
  exactly: the §6 portfolio DP → GN1 → GN2 on the incremental analyzers
  (``AdmissionState.admit`` for an add, ``AdmissionState.trial`` for a
  trial), whose verdicts are bit-identical to the scalar
  ``paper_portfolio()``.  Each rejecting member stops at its first
  failing task (the analyzers' verdict-only query); only the accepting
  member builds its full result.  An accepted ``add`` stays and re-seeds the
  certifier from the verdict the analyzers just cached
  (``DeltaCertifier.refresh``); a rejected ``add`` is rolled back and,
  like any ``trial``, leaves the state and the certifier cache as they
  were.

:meth:`BatchEngine.process_serial` is the same routine without the
certifier queries: every add and trial takes the exact check.  It is
the reference replay the service is compared against.

A request whose decision raises becomes an ``ok: false`` decision with
an ``error``; its device is left as it was and the rest of the batch is
decided normally.

**Parity contract.**  :meth:`BatchEngine.process_batch` over *any*
partition of a request stream into batches yields the verdicts of
:meth:`BatchEngine.process_serial` by construction: both share the
exact check, and a certificate answers only what monotonicity proves
(with a relative guard band on float comparisons).  The randomized
suite in ``tests/test_service_parity.py`` asserts it.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sensitivity import DeltaCertifier, portfolio_member
from repro.fpga.device import Fpga
from repro.incremental.state import AdmissionState
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import VIA_CERTIFIER, VIA_STATE, Decision, Request

_log = logging.getLogger(__name__)


class DeviceEngine:
    """One device's admission state plus its certifier."""

    def __init__(self, name: str, fpga: Fpga, *, rel_eps: float = 1e-9) -> None:
        self.name = name
        self.fpga = fpga
        self.state = AdmissionState(fpga)
        self.certifier = DeltaCertifier(rel_eps)
        self.cert_valid = False
        self._cert_seen = (0, 0)  # (certified, unknown) already drained

    def drain_certifier_stats(self) -> Tuple[int, int]:
        """The certifier's (certified, unknown) delta since last drain."""
        certified = self.certifier.stats["certified"]
        unknown = self.certifier.stats["unknown"]
        seen_c, seen_u = self._cert_seen
        self._cert_seen = (certified, unknown)
        return certified - seen_c, unknown - seen_u


class BatchEngine:
    """Per-request decision engine (and the serial reference path)."""

    def __init__(self, *, metrics: Optional[ServiceMetrics] = None) -> None:
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.devices: Dict[str, DeviceEngine] = {}

    # -- device registry -------------------------------------------------------

    def add_device(self, name: str, fpga: Fpga) -> DeviceEngine:
        if name in self.devices:
            raise KeyError(f"device already registered: {name!r}")
        dev = DeviceEngine(name, fpga)
        self.devices[name] = dev
        return dev

    def device(self, name: str) -> DeviceEngine:
        return self.devices[name]

    # -- decision pipeline -----------------------------------------------------

    def process_batch(self, requests: Sequence[Request]) -> List[Decision]:
        """Decide ``requests`` one at a time, in arrival order, asking
        each device's certifier before its exact check."""
        decisions = self._decide_all(requests, certify=True)
        self.metrics.observe_batch(len(requests))
        for dev in self.devices.values():
            certified, unknown = dev.drain_certifier_stats()
            if certified or unknown:
                self.metrics.observe_certifier(certified, unknown)
        return decisions

    def process_serial(self, requests: Sequence[Request]) -> List[Decision]:
        """The reference path: :meth:`process_batch` without the
        certifier, so every add and trial takes the exact check."""
        return self._decide_all(requests, certify=False)

    def _decide_all(self, requests: Sequence[Request], certify: bool) -> List[Decision]:
        decisions: List[Decision] = []
        for req in requests:
            try:
                decision = self._decide(req, certify)
            except Exception as exc:  # one bad request must not fail its batch
                decision = self._internal_error(req, exc)
            self.metrics.observe_decision(decision)
            decisions.append(decision)
        return decisions

    def _decide(self, req: Request, certify: bool) -> Decision:
        dev = self.devices.get(req.device)
        if dev is None:
            return self._error(req, "unknown device")
        state = dev.state
        if req.op == "remove":
            if req.name not in state:
                return self._error(req, "task not resident")
            dev.cert_valid = (
                certify and dev.cert_valid
                and dev.certifier.certify_remove(req.name) is not None
            )
            state.remove(req.name)
            return Decision(
                op=req.op, device=req.device, name=req.name, ok=True, via=VIA_STATE
            )
        task = req.task
        assert task is not None
        if task.name in state:
            return self._error(req, "task name already resident")
        if certify and dev.cert_valid:
            check = (
                dev.certifier.certify_add if req.op == "add" else dev.certifier.certify_trial
            )
            if check(task) is not None:
                if req.op == "add":
                    state.add(task)
                return Decision(
                    op=req.op, device=req.device, name=task.name, ok=True,
                    via=VIA_CERTIFIER, member="DP",
                )
        if req.op == "trial":
            member = portfolio_member(state.trial(task))
        elif state.admit(task):
            dev.cert_valid = False  # stale until the refresh below succeeds
            member = dev.certifier.refresh(state)
            dev.cert_valid = True
        else:
            member = ""
        return Decision(
            op=req.op, device=req.device, name=task.name, ok=bool(member),
            via=VIA_STATE, member=member,
        )

    # -- helpers ---------------------------------------------------------------

    @classmethod
    def _internal_error(cls, req: Request, exc: Exception) -> Decision:
        _log.exception("deciding %r failed", req)
        return cls._error(req, f"internal error: {exc!r}")

    @staticmethod
    def _error(req: Request, message: str) -> Decision:
        return Decision(
            op=req.op, device=req.device, name=req.target, ok=False,
            via=VIA_STATE, error=message,
        )
