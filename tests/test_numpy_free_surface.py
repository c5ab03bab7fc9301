"""The scalar analysis and the admission service never load numpy.

The paper's DP/GN1/GN2 tests are scalar closed-form checks and the
service decides every request on the scalar incremental analyzers, so
``repro``, ``repro.core``, ``repro.model``, ``repro.incremental`` and the
whole service stack stay numpy-free; only :mod:`repro.vector` (and what
builds on it) names the array library.  Each check runs in a fresh
interpreter, because this test session has long since imported numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SERVICE_SURFACE = """
import sys
import repro, repro.core, repro.model, repro.incremental, repro.service.cli
import benchmarks.service_loadtest
from repro.fpga.device import Fpga
from repro.model.task import Task
from repro.service.engine import BatchEngine
from repro.service.protocol import Request

engine = BatchEngine()
engine.add_device("d0", Fpga(width=12))
task = lambda name, wcet: Task(wcet=wcet, period=10, area=8, name=name)
decisions = engine.process_serial([
    Request("add", "d0", task("a", 4)),
    Request("trial", "d0", task("b", 3)),
    Request("add", "d0", task("c", 9)),
    Request("remove", "d0", name="a"),
    Request("add", "d0", task("c", 9)),
])
print(" ".join(str(d.ok) for d in decisions))
print("numpy" in sys.modules)
"""


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split("\n")


def test_service_and_scalar_analysis_load_no_numpy():
    verdicts, numpy_loaded = _run(SERVICE_SURFACE)[:2]
    assert verdicts == "True True False True True"
    assert numpy_loaded == "False"


def test_vector_layer_does_load_numpy():
    """Positive control: the probe sees numpy once something imports it."""
    (numpy_loaded,) = _run(
        "import sys, repro, repro.vector; print('numpy' in sys.modules)"
    )[:1]
    assert numpy_loaded == "True"
