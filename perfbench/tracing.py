"""In-memory span recorder installed by wrapping public functions.

The benchmark traces the program from outside: a launcher imports the
program, replaces the public functions named in the layer tables below
with timing wrappers, runs the program's own entry point and writes the
aggregates to a JSON file when it exits.  Nothing under ``src/`` changes.

Synchronous spans nest on a stack, so each span's *self* time is its
duration minus the time of the spans it caused.  Aggregates are kept per
layer name: ``[calls, total_s, self_s]``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    """Span aggregates and counters, held in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.layers: Dict[str, List[float]] = {}
        self.counters: Counter = Counter()
        self.extra: Dict[str, Any] = {}
        self._stack: List[float] = []  # child time of each open span

    def wrap(
        self,
        fn: Callable,
        layer: Any,
        on_result: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` recorded as a span of ``layer`` (a name, or a function
        of the call's arguments returning one).  ``on_result(result,
        start, end, *args, **kwargs)`` sees every return value."""
        name_of = layer if callable(layer) else (lambda *a, **k: layer)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self._stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += duration
                record = self.layers.setdefault(name_of(*args, **kwargs), [0, 0.0, 0.0])
                record[0] += 1
                record[1] += duration
                record[2] += duration - child
            if on_result is not None:
                on_result(result, start, end, *args, **kwargs)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"layers": self.layers, "counters": dict(self.counters), "extra": self.extra},
                fh,
            )


def wrap_function(tracer: Tracer, module: Any, attr: str, layer: Any,
                  on_result: Optional[Callable[..., None]] = None) -> None:
    """Trace ``module.attr`` everywhere in ``repro``: in the defining
    module and in every module that did ``from module import attr``."""
    original = getattr(module, attr)
    traced = tracer.wrap(original, layer, on_result)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, traced)


def wrap_attr(tracer: Tracer, owner: Any, attr: str, layer: Any,
              on_result: Optional[Callable[..., None]] = None) -> None:
    """Trace ``owner.attr`` (a method of a class, or a module's name)."""
    setattr(owner, attr, tracer.wrap(getattr(owner, attr), layer, on_result))
