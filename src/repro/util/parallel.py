"""Optional process-level parallelism for embarrassingly parallel work.

:func:`parallel_map` fans independent items out over a process pool when
``workers > 1`` and degrades to a plain ``map`` otherwise, so the serial
path stays primary: deterministic and easy to debug.  Its one caller is
the batched simulator's row-shard pool (``sim_workers``), which ships
exactly one shard per worker.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    workers: int = 1,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally with a process pool.

    ``fn`` and the items must be picklable when ``workers > 1``.  Result
    order always matches input order.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
