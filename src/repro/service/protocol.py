"""Wire protocol of the admission service: requests, decisions, JSON.

The service speaks a small JSON vocabulary over HTTP (see
:mod:`repro.service.http`), but the same dataclasses are also the
in-process API of the decision pipeline (:mod:`repro.service.engine`),
so a thin client — ``examples/admission_control.py`` — can drive the
exact production decision core without any HTTP in the way.

Task parameters are coerced to ``float`` at the protocol boundary: JSON
numbers are IEEE doubles, so the service's decisions (bit-identical to
a serial :class:`~repro.incremental.state.AdmissionState` replay) are
stated — and tested — over float64-parameter tasks.  Exact-rational
knife edges are a library-level concern (:mod:`repro.core`), not a wire
one: they cannot arrive through JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.model.task import Task
from repro.model.validation import ModelError

#: Operations the service understands.
OPS = ("add", "remove", "trial")

#: How a decision was reached (`Decision.via`).
VIA_CERTIFIER = "certifier"  #: O(1) DeltaCertifier certificate
VIA_STATE = "state"          #: remove, or the exact AdmissionState check


class ProtocolError(ValueError):
    """Malformed request payload (maps to HTTP 400)."""


@dataclass(frozen=True)
class Request:
    """One admission-control operation against a named device.

    * ``add`` — trial-admit ``task``: admitted iff the §6 portfolio
      still accepts the resident set plus the newcomer, rolled back
      otherwise;
    * ``remove`` — unconditionally retire the resident task ``name``;
    * ``trial`` — the ``add`` verdict without the admission.
    """

    op: str
    device: str
    task: Optional[Task] = None  # add / trial
    name: str = ""               # remove target (defaults to task.name)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ProtocolError(f"unknown op {self.op!r} (choose from {OPS})")
        if self.op in ("add", "trial") and self.task is None:
            raise ProtocolError(f"op {self.op!r} needs a task")
        if self.op == "remove" and not self.name:
            raise ProtocolError("op 'remove' needs a task name")

    @property
    def target(self) -> str:
        """The task name the operation is about."""
        return self.task.name if self.task is not None else self.name


@dataclass(frozen=True)
class Decision:
    """The service's answer to one :class:`Request`.

    ``ok`` is the admission verdict (``add``/``trial``) or operation
    success (``remove``); ``via`` records which path produced it and
    ``member`` the first accepting portfolio member (every accepted
    ``add``/``trial``).  ``error`` is set — and ``ok`` False — for
    requests that are well-formed but inapplicable (unknown device,
    duplicate task name, removing an absent task) and for requests whose
    decision raised.
    """

    op: str
    device: str
    name: str
    ok: bool
    via: str = VIA_STATE
    member: str = ""
    error: Optional[str] = None


def parse_task(obj: Mapping[str, Any]) -> Task:
    """Build a (float64-parameter) :class:`Task` from a JSON object."""
    if not isinstance(obj, Mapping):
        raise ProtocolError(f"task must be an object, got {type(obj).__name__}")
    unknown = set(obj) - {"name", "wcet", "period", "deadline", "area"}
    if unknown:
        raise ProtocolError(f"unknown task fields: {sorted(unknown)}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ProtocolError("task needs a non-empty string 'name'")
    numbers: Dict[str, float] = {}
    for field in ("wcet", "period", "deadline", "area"):
        value = obj.get(field)
        if value is None:
            if field in ("deadline", "area"):
                continue  # deadline defaults to period, area to 1
            raise ProtocolError(f"task {name!r} needs a numeric {field!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(f"task {name!r}: {field} must be a number")
        try:
            numbers[field] = float(value)
        except OverflowError as exc:
            raise ProtocolError(f"task {name!r}: {field} is out of range") from exc
    try:
        return Task(
            wcet=numbers["wcet"],
            period=numbers["period"],
            deadline=numbers.get("deadline"),  # type: ignore[arg-type]
            area=numbers.get("area", 1.0),
            name=name,
        )
    except ModelError as exc:
        raise ProtocolError(str(exc)) from exc


def task_to_json(task: Task) -> Dict[str, Any]:
    return {
        "name": task.name,
        "wcet": float(task.wcet),
        "period": float(task.period),
        "deadline": float(task.deadline),
        "area": float(task.area),
    }


def parse_request(op: str, obj: Mapping[str, Any]) -> Request:
    """Build a :class:`Request` from one endpoint's JSON body."""
    if not isinstance(obj, Mapping):
        raise ProtocolError(f"body must be an object, got {type(obj).__name__}")
    device = obj.get("device")
    if not isinstance(device, str) or not device:
        raise ProtocolError("request needs a non-empty string 'device'")
    if op == "remove":
        name = obj.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("remove needs a non-empty string 'name'")
        return Request(op=op, device=device, name=name)
    task_obj = obj.get("task")
    if task_obj is None:
        raise ProtocolError(f"{op} needs a 'task' object")
    return Request(op=op, device=device, task=parse_task(task_obj))


def decision_to_json(decision: Decision) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "op": decision.op,
        "device": decision.device,
        "name": decision.name,
        "ok": decision.ok,
        "via": decision.via,
    }
    if decision.member:
        out["member"] = decision.member
    if decision.error is not None:
        out["error"] = decision.error
    return out
