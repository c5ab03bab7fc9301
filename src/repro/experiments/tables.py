"""Tables 1-3: the pairwise-incomparability examples (paper §6).

Each table is one two-task taskset on a 10-column device, accepted by
exactly one of DP / GN1 / GN2 and rejected by the other two.  The module
re-evaluates all nine verdicts and the §6 worked numbers, producing a
plain-text report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from typing import Dict, Tuple

from repro.core.dp import dp_test
from repro.core.gn1 import gn1_test
from repro.core.gn2 import gn2_test
from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet

#: The paper's three example tasksets, in exact rational arithmetic.
TABLE_TASKSETS: Dict[str, TaskSet] = {
    "table1": TaskSet(
        [
            Task(wcet=F("1.26"), period=7, deadline=7, area=9, name="tau1"),
            Task(wcet=F("0.95"), period=5, deadline=5, area=6, name="tau2"),
        ]
    ),
    "table2": TaskSet(
        [
            Task(wcet=F("4.50"), period=8, deadline=8, area=3, name="tau1"),
            Task(wcet=F("8.00"), period=9, deadline=9, area=5, name="tau2"),
        ]
    ),
    "table3": TaskSet(
        [
            Task(wcet=F("2.10"), period=5, deadline=5, area=7, name="tau1"),
            Task(wcet=F("2.00"), period=7, deadline=7, area=7, name="tau2"),
        ]
    ),
}

#: The paper's claimed accept/reject matrix: (DP, GN1, GN2) per table.
PAPER_VERDICTS: Dict[str, Tuple[bool, bool, bool]] = {
    "table1": (True, False, False),
    "table2": (False, True, False),
    "table3": (False, False, True),
}


@dataclass(frozen=True)
class TableOutcome:
    """Measured verdicts for one table, with the paper's expectation."""

    table: str
    dp: bool
    gn1: bool
    gn2: bool
    expected: Tuple[bool, bool, bool]

    @property
    def verdicts(self) -> Tuple[bool, bool, bool]:
        return (self.dp, self.gn1, self.gn2)

    @property
    def matches_paper(self) -> bool:
        return self.verdicts == self.expected


def run_tables(device_width: int = 10) -> Dict[str, TableOutcome]:
    """Evaluate DP/GN1/GN2 on all three tables; compare with the paper."""
    fpga = Fpga(width=device_width)
    out = {}
    for name, ts in TABLE_TASKSETS.items():
        out[name] = TableOutcome(
            table=name,
            dp=dp_test(ts, fpga).accepted,
            gn1=gn1_test(ts, fpga).accepted,
            gn2=gn2_test(ts, fpga).accepted,
            expected=PAPER_VERDICTS[name],
        )
    return out


def render_tables(outcomes: Dict[str, TableOutcome]) -> str:
    """Markdown rendering of the accept/reject matrix."""
    lines = [
        "| taskset | DP | GN1 | GN2 | matches paper |",
        "|---------|----|-----|-----|---------------|",
    ]
    fmt = lambda b: "accept" if b else "reject"
    for name, o in sorted(outcomes.items()):
        lines.append(
            f"| {name} | {fmt(o.dp)} | {fmt(o.gn1)} | {fmt(o.gn2)} | "
            f"{'yes' if o.matches_paper else 'NO'} |"
        )
    return "\n".join(lines)
