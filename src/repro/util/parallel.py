"""Optional process-level parallelism for embarrassingly parallel work.

:func:`parallel_map` fans independent items out over a process pool when
``workers > 1`` and degrades to a plain ``map`` otherwise, so the serial
path stays primary: deterministic and easy to debug.  Its one caller is
:func:`repro.vector.grid.simulate_grid`, which maps its merged simulator
calls over one pool per grid (``sim_workers``).
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Sized, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int = 1,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally with a process pool.

    ``items`` is consumed lazily, in order: serially one item per call,
    and with a pool at most ``2 * workers`` items ahead of the results,
    so a generator of large items holds only a few at a time.  ``fn``
    and the items must be picklable when ``workers > 1``.  Result order
    always matches input order; a sized input of at most one item
    never starts a pool.
    """
    if workers <= 1 or (isinstance(items, Sized) and len(items) <= 1):
        return list(map(fn, items))
    results: List[R] = []
    pending: deque = deque()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for item in items:
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
            pending.append(pool.submit(fn, item))
        results.extend(future.result() for future in pending)
    return results
