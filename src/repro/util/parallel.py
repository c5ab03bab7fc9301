"""Optional process-level parallelism for embarrassingly parallel work.

:func:`parallel_map` fans independent items out over a process pool when
``workers > 1`` and degrades to a plain ``map`` otherwise, so the serial
path stays primary: deterministic and easy to debug.  Its callers are
the batched simulator's row shards (``sim_workers``) and the linter's
per-file jobs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_chunksize(n_items: int, workers: int) -> int:
    """Items per pickled work unit: ~4 chunks per worker.

    ``chunksize=1`` pays one pickle round-trip per item — ruinous for
    thousands of cheap items — so four chunks per worker amortizes that
    overhead while still load-balancing uneven item costs.  With no more
    items than workers (one simulator shard per worker) it is 1.
    """
    if n_items < 1 or workers < 1:
        return 1
    return max(1, n_items // (workers * 4))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    workers: int = 1,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally with a process pool.

    ``fn`` and the items must be picklable when ``workers > 1``.  Result
    order always matches input order; chunks are sized by
    :func:`default_chunksize`.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    chunksize = default_chunksize(len(items), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
