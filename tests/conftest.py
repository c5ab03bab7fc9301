"""Shared fixtures: the paper's example tasksets and devices.

Tables 1-3 (paper §6) are given in exact rational arithmetic so the
knife-edge comparisons they exercise are decided mathematically, not by
float luck.
"""

from fractions import Fraction as F

import pytest

from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet


@pytest.fixture
def fpga10() -> Fpga:
    """The 10-column device of the paper's Tables 1-3."""
    return Fpga(width=10)


@pytest.fixture
def fpga100() -> Fpga:
    """The 100-column device of the paper's Figures 3-4."""
    return Fpga(width=100)


@pytest.fixture
def table1() -> TaskSet:
    """Paper Table 1: accepted by DP, rejected by GN1 and GN2."""
    return TaskSet(
        [
            Task(wcet=F("1.26"), period=7, deadline=7, area=9, name="tau1"),
            Task(wcet=F("0.95"), period=5, deadline=5, area=6, name="tau2"),
        ]
    )


@pytest.fixture
def table2() -> TaskSet:
    """Paper Table 2: accepted by GN1, rejected by DP and GN2."""
    return TaskSet(
        [
            Task(wcet=F("4.50"), period=8, deadline=8, area=3, name="tau1"),
            Task(wcet=F("8.00"), period=9, deadline=9, area=5, name="tau2"),
        ]
    )


@pytest.fixture
def table3() -> TaskSet:
    """Paper Table 3: accepted by GN2, rejected by DP and GN1."""
    return TaskSet(
        [
            Task(wcet=F("2.10"), period=5, deadline=5, area=7, name="tau1"),
            Task(wcet=F("2.00"), period=7, deadline=7, area=7, name="tau2"),
        ]
    )
