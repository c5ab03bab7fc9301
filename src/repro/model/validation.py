"""Validation for task and taskset parameters.

The model accepts any :class:`numbers.Real` (``int``, ``float``,
``fractions.Fraction``) so the schedulability tests can be evaluated in
exact rational arithmetic — the paper's Table 1 / GN2 comparison is an
exact knife-edge that floats cannot certify (see DESIGN.md §4.4).
"""

from __future__ import annotations

import math
from numbers import Rational, Real
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.model.task import Task, TaskSet


class ModelError(ValueError):
    """Base class for model-validation failures."""


class TaskParameterError(ModelError):
    """A single task has invalid parameters (e.g. C <= 0 or A < 1)."""


class TaskSetError(ModelError):
    """A taskset is structurally invalid (e.g. duplicate task names)."""


def _require_real(value: object, name: str, task_name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TaskParameterError(
            f"task {task_name!r}: {name} must be a real number, got {value!r}"
        )
    # Ints and Fractions are always finite (and may be too large to
    # convert to float); only the float-like reals can be nan or inf.
    if not isinstance(value, Rational) and not math.isfinite(value):
        raise TaskParameterError(
            f"task {task_name!r}: {name} must be finite, got {value!r}"
        )


def validate_task(task: "Task") -> None:
    """Raise :class:`TaskParameterError` unless ``task`` is well formed.

    Requirements (paper §2):

    * every parameter finite (no NaN or infinity);
    * ``wcet`` (C) > 0, ``period`` (T) > 0, ``deadline`` (D) > 0;
    * ``area`` (A) >= 1 — the number of contiguous columns occupied.
      The paper argues areas are integers (§3); we accept any real >= 1
      so the Danne-original real-valued variant remains expressible, and
      expose :attr:`Task.has_integral_area` for callers that care.

    Note ``wcet > deadline`` is *not* rejected here: such a task is
    trivially unschedulable and every test must reject it, which the test
    implementations (and :func:`repro.core.interfaces.necessary_conditions`)
    handle explicitly.
    """
    for attr in ("wcet", "deadline", "period", "area"):
        _require_real(getattr(task, attr), attr, task.name)
    if task.wcet <= 0:
        raise TaskParameterError(f"task {task.name!r}: wcet must be > 0, got {task.wcet}")
    if task.period <= 0:
        raise TaskParameterError(f"task {task.name!r}: period must be > 0, got {task.period}")
    if task.deadline <= 0:
        raise TaskParameterError(
            f"task {task.name!r}: deadline must be > 0, got {task.deadline}"
        )
    if task.area < 1:
        raise TaskParameterError(f"task {task.name!r}: area must be >= 1, got {task.area}")


def validate_taskset(taskset: "TaskSet") -> None:
    """Raise :class:`TaskSetError` unless ``taskset`` is well formed.

    Tasks are validated individually; additionally task names must be
    unique so simulator traces and per-task test reports are unambiguous.
    """
    if len(taskset) == 0:
        raise TaskSetError("taskset must contain at least one task")
    seen: set[str] = set()
    for task in taskset:
        validate_task(task)
        if task.name in seen:
            raise TaskSetError(f"duplicate task name {task.name!r}")
        seen.add(task.name)
