"""The admission decision core: certifier, then one exact check.

One :class:`BatchEngine` owns every named device's
:class:`~repro.incremental.state.AdmissionState` and decides each
request of a batch on its own, in arrival order:

- ``remove`` retires the task and keeps the device's
  :class:`~repro.core.sensitivity.DeltaCertifier` cache when a DP/GN1
  accept provably survives the departure.
- ``add`` / ``trial`` ask the certifier first; the provably-easy
  arrivals (inside the cached DP slack) resolve in O(1).  Otherwise the
  candidate resident set is checked exactly, one vectorized kernel call
  per portfolio member in the paper's §6 order DP → GN1 → GN2
  (:func:`repro.incremental.reverdict.accept_masks`), stopping at the
  first accept.  An accepted ``add`` is applied and re-seeds the
  certifier from the accepting member; a rejected ``add`` or any
  ``trial`` leaves the state and the certifier cache untouched.

On both paths, a request whose decision raises becomes an ``ok: false``
decision with an ``error``; its device is left as it was and the rest of
the batch is decided normally.

**Parity contract.**  For float64-parameter tasks (the protocol
boundary coerces — JSON numbers are doubles) off exact knife edges,
:meth:`BatchEngine.process_batch` over *any* partition of a request
stream into batches yields decisions identical to
:meth:`BatchEngine.process_serial` — the per-request reference that
trial-admits through ``AdmissionState`` exactly like
``state.admit(task)``.  Certificates are sound by construction; kernel
verdicts equal the scalar portfolio because DP, GN1 and GN2 all apply to
EDF-NF and the kernels replicate the scalar float64 operations.  The
randomized suite in ``tests/test_service_parity.py`` asserts this.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.sensitivity import DeltaCertifier
from repro.fpga.device import Fpga
from repro.incremental.reverdict import accept_masks
from repro.incremental.state import AdmissionState
from repro.model.task import Task, TaskSet
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import (
    VIA_CERTIFIER,
    VIA_KERNEL,
    VIA_STATE,
    Decision,
    Request,
)

#: Portfolio member priority — must match ``CompositeTest`` order, which
#: is what :meth:`DeltaCertifier.seed` expects ``via`` to encode.
MEMBER_ORDER = ("DP", "GN1", "GN2")

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

    def __init__(
        self,
        *,
        backend: Optional[str] = None,
        use_certifier: bool = True,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        self.backend = backend
        self.use_certifier = use_certifier
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
        """Decide ``requests`` one at a time, in arrival order."""
        decisions: List[Decision] = []
        for req in requests:
            try:
                decision = self._decide(req)
            except Exception as exc:  # one bad request must not fail its batch
                decision = self._internal_error(req, exc)
            self.metrics.observe_decision(decision)
            decisions.append(decision)
        self.metrics.observe_batch(len(requests))
        for dev in self.devices.values():
            certified, unknown = dev.drain_certifier_stats()
            if certified or unknown:
                self.metrics.observe_certifier(certified, unknown)
        return decisions

    def _decide(self, req: Request) -> Decision:
        dev = self.devices.get(req.device)
        if dev is None:
            return self._error(req, "unknown device")
        state = dev.state
        if req.op == "remove":
            if req.name not in state:
                return self._error(req, "task not resident")
            if dev.cert_valid and dev.certifier.certify_remove(req.name) is None:
                dev.cert_valid = False
            state.remove(req.name)
            return Decision(
                op=req.op, device=req.device, name=req.name, ok=True, via=VIA_STATE
            )
        task = req.task
        assert task is not None
        if task.name in state:
            return self._error(req, "task name already resident")
        if self.use_certifier and dev.cert_valid:
            certify = (
                dev.certifier.certify_add if req.op == "add" else dev.certifier.certify_trial
            )
            if certify(task) is not None:
                if req.op == "add":
                    state.add(task)
                return Decision(
                    op=req.op, device=req.device, name=task.name, ok=True,
                    via=VIA_CERTIFIER, member="DP",
                )
        member = self._exact(dev, task)
        if member and req.op == "add":
            dev.cert_valid = False  # stale until the seed below succeeds
            state.add(task)
            if self.use_certifier:
                dev.certifier.seed(state, True, member)
                dev.cert_valid = True
        return Decision(
            op=req.op, device=req.device, name=task.name, ok=bool(member),
            via=VIA_KERNEL, member=member,
        )

    def _exact(self, dev: DeviceEngine, task: Task) -> str:
        """The first portfolio member accepting the residents plus
        ``task``, or ``""`` when all reject."""
        candidate = [TaskSet([*dev.state.tasks, task])]
        for member in MEMBER_ORDER:
            self.metrics.kernel_calls_total += 1
            mask = accept_masks(
                candidate, dev.fpga.capacity, tests=(member,), backend=self.backend
            )[member]
            if bool(mask[0]):
                return member
        return ""

    # -- per-request serial baseline (and parity reference) --------------------

    def process_serial(self, requests: Sequence[Request]) -> List[Decision]:
        """The reference path: each request straight through
        ``AdmissionState`` (trial-admit + rollback), no certifier, no
        kernels.  This is the decision sequence :meth:`process_batch` is
        identical to, with the same fault isolation."""
        decisions: List[Decision] = []
        for req in requests:
            try:
                decision = self._decide_serial(req)
            except Exception as exc:
                decision = self._internal_error(req, exc)
            self.metrics.observe_decision(decision)
            decisions.append(decision)
        return decisions

    def _decide_serial(self, req: Request) -> Decision:
        dev = self.devices.get(req.device)
        if dev is None:
            return self._error(req, "unknown device")
        if req.op == "remove":
            if req.name not in dev.state:
                return self._error(req, "task not resident")
            dev.state.remove(req.name)
            dev.cert_valid = False
            return Decision(
                op=req.op, device=req.device, name=req.name, ok=True,
                via=VIA_STATE,
            )
        task = req.task
        assert task is not None
        if task.name in dev.state:
            return self._error(req, "task name already resident")
        dev.cert_valid = False
        ok = dev.state.admit(task)  # trial-admit with rollback
        if ok and req.op == "trial":
            dev.state.remove(task.name)  # verdict only
        return Decision(
            op=req.op, device=req.device, name=task.name, ok=ok, via=VIA_STATE
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
