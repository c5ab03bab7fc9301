#!/usr/bin/env python
"""Check the results regeneration against its pinned digest.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/check_regen_digest.py [--sim-workers W]

Runs ``scripts/regenerate_results.py`` at the setting pinned in
``perfbench/regen_digest.json`` into a temporary directory through the
benchmark's own launcher (``perfbench/run.py``: ``regen_reference`` and
``regen``), which owns the output list and the digest format, and
compares the digest with the pinned one.  ``--sim-workers W`` is
appended to the pinned arguments: the figures' simulator calls then run
over ``W`` processes and must hash to the same digest.  Prints the wall
time and the child's ``ru_maxrss``: the larger of the regeneration's
peak resident set and this process's resident set when it started it
(pool workers are separate processes, not counted).  Exits 1 on a
mismatch or a failed run; the reference file is only read.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402  (perfbench/run.py)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sim-workers", type=int, default=None, metavar="W",
                        help="append --sim-workers W to the pinned arguments")
    workers = parser.parse_args().sim_workers
    args, pinned = bench.regen_reference()
    if workers is not None:
        args += ["--sim-workers", str(workers)]
    bench.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            result = bench.regen(args, Path(tmp) / "results", "check-regen-digest")
        except bench.BenchError as exc:
            print(f"regeneration failed: {exc}")
            return 1
    print(f"wall {result.wall_s:.1f} s, ru_maxrss {result.rss_kib / 1024:.1f} MB")
    if result.digest != pinned:
        print(f"digest {result.digest} != pinned {pinned}")
        return 1
    print(f"digest {result.digest} matches perfbench/regen_digest.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
