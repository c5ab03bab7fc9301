"""The 1D reconfigurable device ``H`` (paper §2).

The analysis model is minimal: the device is a row of ``A(H)`` homogeneous
columns.  The paper additionally *assumes* no pre-configured cells; real
devices have static regions (BRAM columns, soft-core CPUs), so the model
supports optional :class:`StaticRegion` blocks.  Analysis uses
:attr:`Fpga.capacity` (usable columns); the placement-aware simulator also
respects *where* the static regions sit, since they fragment the free
space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Tuple


@dataclass(frozen=True)
class StaticRegion:
    """A pre-configured block of columns unavailable for task placement."""

    start: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"static region width must be > 0, got {self.width}")
        if self.start < 0:
            raise ValueError(f"static region start must be >= 0, got {self.start}")

    @property
    def end(self) -> int:
        """One past the last column (half-open interval)."""
        return self.start + self.width


#: Widest device the model accepts: every width up to ``2**53`` converts
#: to float64 exactly, and the vectorized kernels compute in float64.
MAX_WIDTH = 2**53


@dataclass(frozen=True)
class Fpga:
    """A 1D reconfigurable FPGA with ``width`` columns.

    Parameters
    ----------
    width:
        Total number of columns, the paper's ``A(H)``; at most
        :data:`MAX_WIDTH`.
    static_regions:
        Optional pre-configured blocks (must be disjoint and in-range).
        The paper assumes none; they are provided for the §7 extension
        experiments.
    """

    width: int
    static_regions: Tuple[StaticRegion, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.width, int) or isinstance(self.width, bool):
            raise TypeError(f"width must be an int, got {self.width!r}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        if self.width > MAX_WIDTH:
            # No repr of the value: it may have hundreds of digits.
            raise ValueError("width must be <= 2**53")
        regions = tuple(sorted(self.static_regions, key=lambda r: r.start))
        object.__setattr__(self, "static_regions", regions)
        last_end = 0
        for r in regions:
            if r.start < last_end:
                raise ValueError(f"static regions overlap at column {r.start}")
            if r.end > self.width:
                raise ValueError(f"static region {r} exceeds device width {self.width}")
            last_end = r.end

    @property
    def area(self) -> int:
        """``A(H)`` — total column count (paper notation)."""
        return self.width

    @property
    def reserved_area(self) -> int:
        """Columns consumed by static regions."""
        return sum(r.width for r in self.static_regions)

    @property
    def capacity(self) -> int:
        """Columns available for dynamic task placement."""
        return self.width - self.reserved_area

    def free_spans(self) -> Iterable[tuple[int, int]]:
        """Maximal contiguous column spans not covered by static regions.

        Yields half-open ``(start, end)`` pairs; this seeds the simulator's
        :class:`~repro.fpga.freelist.FreeList`.
        """
        cursor = 0
        for r in self.static_regions:
            if r.start > cursor:
                yield (cursor, r.start)
            cursor = r.end
        if cursor < self.width:
            yield (cursor, self.width)

    def fits(self, area) -> bool:
        """Capacity check under unrestricted migration (paper assumption):
        a job fits iff its area is at most the usable capacity."""
        return area <= self.capacity
