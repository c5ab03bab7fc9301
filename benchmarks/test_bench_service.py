"""Admission-service throughput: the decision pipeline vs serial replay.

The acceptance criteria:

* the asyncio HTTP service sustains **>= 1000 decisions/second** in one
  process under closed-loop load at concurrency >= 64;
* ``BatchEngine.process_batch`` with its certifier decides **>= 3x**
  faster than the per-request serial reference
  (``BatchEngine.process_serial``: the same routine without the
  certifier) with **bit-identical decisions**.

The workload is steady-state churn around ~60 resident tasks per device
at moderate utilization — the stationary regime an online admission
controller operates in, where the delta-certifier absorbs most arrivals
and one exact check through the device's ``AdmissionState`` per
request the residue.  Decisions/sec, the
batch-size histogram, the certifier hit rate and latency percentiles
land in ``extra_info`` -> ``BENCH_<sha>.json`` so the trajectory is
tracked per PR.

A third leg holds narrow devices at capacity instead
(:func:`~benchmarks.service_loadtest.capacity_stream`): there the
certifier rarely answers and the exact check, mostly a rejection,
is the engine's cost per decision.

A fourth leg cold-starts ``python -m repro.service`` as its own process
and records the time to its "listening" line and the server's own
memory high-water mark and thread count after a short replay.
"""

import asyncio
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from benchmarks.helpers import bench_scale
from benchmarks.service_loadtest import (
    capacity_stream,
    closed_loop,
    open_loop,
    steady_stream,
    to_wire,
)
from repro.fpga.device import Fpga
from repro.service import AdmissionService, BatchConfig, BatchEngine, HttpServer
from repro.service.metrics import percentile

DEVICES = ("fpga0", "fpga1", "fpga2", "fpga4")
SEED = 29
CONCURRENCY = 64
HTTP_REQUESTS = 3000
ENGINE_REQUESTS = 2000
RESIDENT = 60
WIDTH = 100
OPEN_LOOP_RATE = 1500.0  # offered load for the latency-under-load probe
REQUIRED_DECISIONS_PER_S = 1000.0
REQUIRED_SPEEDUP = 3.0
SPEEDUP_ROUNDS = 3  # interleaved rounds per side; the fastest of each is compared
CAPACITY_REQUESTS = 3000
CAPACITY_WIDTH = 12
COLD_STARTS = 5
COLD_REPLAY_REQUESTS = 300
SRC = Path(__file__).resolve().parent.parent / "src"


def _decision_key(decision):
    return (decision.op, decision.device, decision.name, decision.ok, decision.error)


@pytest.mark.bench_smoke
def test_bench_service_http_sustained(benchmark):
    """Closed-loop HTTP load at concurrency 64: >= 1000 decisions/s."""
    benchmark.group = "service-admission"
    n_requests = HTTP_REQUESTS * bench_scale()
    stream = steady_stream(SEED, n_requests, DEVICES, RESIDENT)
    wire_ops = [to_wire(r) for r in stream]
    measured = {}

    async def scenario():
        service = AdmissionService(config=BatchConfig(max_batch=128, max_wait=0.002))
        server = HttpServer(service)
        await service.start()
        host, port = await server.start()
        try:
            for name in DEVICES:
                service.create_device(name, WIDTH)
            elapsed, decisions, latencies = await closed_loop(
                host, port, wire_ops, CONCURRENCY
            )
            measured["elapsed"] = elapsed
            measured["decisions"] = decisions
            measured["closed_latencies"] = sorted(latencies)
            # Open loop on the same (already-churned) service: latency
            # under a fixed offered load, the SLO-facing distribution.
            probe = steady_stream(SEED + 1, n_requests // 3, DEVICES, RESIDENT)
            _, open_latencies = await open_loop(
                host, port, [to_wire(r) for r in probe], rate=OPEN_LOOP_RATE
            )
            measured["open_latencies"] = sorted(open_latencies)
            measured["snapshot"] = service.snapshot()
        finally:
            await server.close()
            await service.close()

    benchmark.pedantic(lambda: asyncio.run(scenario()), rounds=1, iterations=1)

    decisions_per_s = len(measured["decisions"]) / measured["elapsed"]
    snap = measured["snapshot"]
    closed = measured["closed_latencies"]
    open_lat = measured["open_latencies"]
    benchmark.extra_info["decisions_per_s"] = decisions_per_s
    benchmark.extra_info["concurrency"] = CONCURRENCY
    benchmark.extra_info["requests"] = len(wire_ops)
    benchmark.extra_info["mean_batch_size"] = snap["mean_batch_size"]
    benchmark.extra_info["batch_size_histogram"] = snap["batch_size_histogram"]
    benchmark.extra_info["certifier_hit_rate"] = snap["certifier"]["hit_rate"]
    benchmark.extra_info["closed_loop_p50_ms"] = percentile(closed, 0.50) * 1e3
    benchmark.extra_info["closed_loop_p99_ms"] = percentile(closed, 0.99) * 1e3
    benchmark.extra_info["open_loop_rate_per_s"] = OPEN_LOOP_RATE
    benchmark.extra_info["open_loop_p50_ms"] = percentile(open_lat, 0.50) * 1e3
    benchmark.extra_info["open_loop_p99_ms"] = percentile(open_lat, 0.99) * 1e3

    ok = sum(1 for d in measured["decisions"] if "error" not in d)
    print(
        f"\nservice HTTP: {len(wire_ops)} decisions in {measured['elapsed']:.2f} s "
        f"at C={CONCURRENCY} -> {decisions_per_s:.0f}/s ({ok} clean), "
        f"mean batch {snap['mean_batch_size']:.1f}, "
        f"certifier hit {snap['certifier']['hit_rate']:.3f}, "
        f"closed p50/p99 {percentile(closed, 0.5)*1e3:.1f}/"
        f"{percentile(closed, 0.99)*1e3:.1f} ms, "
        f"open@{OPEN_LOOP_RATE:.0f}/s p50/p99 {percentile(open_lat, 0.5)*1e3:.1f}/"
        f"{percentile(open_lat, 0.99)*1e3:.1f} ms"
    )
    assert len(measured["decisions"]) == len(wire_ops)
    assert decisions_per_s >= REQUIRED_DECISIONS_PER_S


@pytest.mark.bench_smoke
def test_bench_service_batched_vs_serial(benchmark):
    """Pipeline with certifier >= 3x the serial reference, decisions identical.

    Every ``process_batch`` call carries 64 requests.  The same stream is
    decided two ways — ``process_batch`` (certifier first) and
    ``process_serial`` (every add and trial through the exact check) —
    and the decision sequences and final resident sets are compared
    bit-for-bit.  The two sides alternate for ``SPEEDUP_ROUNDS`` rounds
    each and the fastest round of each side is compared, so load from
    other processes that lands on one side's only round cannot skew the
    ratio."""
    benchmark.group = "service-admission"
    n_requests = ENGINE_REQUESTS * bench_scale()
    stream = steady_stream(SEED, n_requests, DEVICES, RESIDENT)

    def make_engine():
        engine = BatchEngine()
        for name in DEVICES:
            engine.add_device(name, Fpga(width=WIDTH))
        return engine

    def run_batched():
        engine = make_engine()
        decisions = []
        for k in range(0, len(stream), CONCURRENCY):
            decisions.extend(engine.process_batch(stream[k : k + CONCURRENCY]))
        return engine, decisions

    serial_runs = []  # (seconds, engine, decisions) per round

    def run_serial():
        # pedantic's untimed setup: one serial round before each batched one
        engine = make_engine()
        t0 = time.perf_counter()
        decisions = engine.process_serial(stream)
        serial_runs.append((time.perf_counter() - t0, engine, decisions))

    (batched_engine, batched_decisions) = benchmark.pedantic(
        run_batched, setup=run_serial, rounds=SPEEDUP_ROUNDS, iterations=1
    )
    batched_time = benchmark.stats.stats.min
    serial_time = min(seconds for seconds, _, _ in serial_runs)
    _, serial_engine, serial_decisions = serial_runs[-1]

    # Bit-identical decisions and final resident sets.
    expected = list(map(_decision_key, serial_decisions))
    assert list(map(_decision_key, batched_decisions)) == expected
    for name in DEVICES:
        residents = sorted(t.name for t in serial_engine.device(name).state.tasks)
        assert sorted(t.name for t in batched_engine.device(name).state.tasks) == residents

    batched_rate = len(stream) / batched_time
    serial_rate = len(stream) / serial_time
    speedup = batched_rate / serial_rate
    snap = batched_engine.metrics.snapshot()
    by_via = Counter(d.via for d in batched_decisions)
    benchmark.extra_info["requests"] = len(stream)
    benchmark.extra_info["batch_size"] = CONCURRENCY
    benchmark.extra_info["batched_decisions_per_s"] = batched_rate
    benchmark.extra_info["serial_decisions_per_s"] = serial_rate
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["by_via"] = dict(by_via)
    benchmark.extra_info["certifier_hit_rate"] = snap["certifier"]["hit_rate"]

    print(
        f"\nservice engine: batched {batched_rate:.0f}/s, "
        f"serial {serial_rate:.0f}/s "
        f"({len(stream)} reqs) -> {speedup:.1f}x, "
        f"via {dict(by_via)}, certifier hit {snap['certifier']['hit_rate']:.3f}"
    )
    assert speedup >= REQUIRED_SPEEDUP


@pytest.mark.bench_smoke
def test_bench_service_capacity_held(benchmark):
    """Engine cost per decision on devices held at capacity.

    ``process_batch`` decides the stream one request per call, as the
    service does when no batch forms.  The decisions must equal the
    serial replay's; the per-decision time, the decision routes and the
    reject count land in ``extra_info``."""
    benchmark.group = "service-admission"
    n_requests = CAPACITY_REQUESTS * bench_scale()
    stream, serial_decisions = capacity_stream(
        SEED, n_requests, DEVICES, width=CAPACITY_WIDTH
    )

    def run():
        engine = BatchEngine()
        for name in DEVICES:
            engine.add_device(name, Fpga(width=CAPACITY_WIDTH))
        decisions = []
        for request in stream:
            decisions.extend(engine.process_batch([request]))
        return decisions

    decisions = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.mean
    assert list(map(_decision_key, decisions)) == list(
        map(_decision_key, serial_decisions)
    )

    by_via = Counter(d.via for d in decisions)
    rejected = sum(1 for d in decisions if not d.ok and d.error is None)
    us_per_decision = elapsed / len(stream) * 1e6
    benchmark.extra_info["requests"] = len(stream)
    benchmark.extra_info["width"] = CAPACITY_WIDTH
    benchmark.extra_info["us_per_decision"] = us_per_decision
    benchmark.extra_info["by_via"] = dict(by_via)
    benchmark.extra_info["rejected"] = rejected
    print(
        f"\nservice engine at capacity: {us_per_decision:.1f} us/decision "
        f"({len(stream)} reqs), via {dict(by_via)}, {rejected} rejected"
    )
    assert rejected > 0 and by_via["state"] > by_via["certifier"]


def _proc_status(pid):
    """``/proc/<pid>/status`` as a ``{field: value}`` dict."""
    with open(f"/proc/{pid}/status") as fh:
        return dict(line.rstrip("\n").split(":\t", 1) for line in fh if ":\t" in line)


@pytest.mark.bench_smoke
def test_bench_service_cold_start(benchmark):
    """Cold start of ``python -m repro.service`` and the server's own footprint.

    Each of ``COLD_STARTS`` launches times the interval from spawning the
    process to its "listening" line, replays a short at-capacity stream
    over HTTP (decisions must equal the serial replay's), then reads the
    server's ``VmHWM`` and ``Threads`` from ``/proc/<pid>/status`` before
    stopping it.  The memory is read from the live process rather than
    from ``wait4``'s ``ru_maxrss``, which on Linux also carries the
    spawner's own high-water mark into the child's figure."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/<pid>/status")
    benchmark.group = "service-admission"
    stream, serial_decisions = capacity_stream(
        SEED, COLD_REPLAY_REQUESTS, DEVICES, width=CAPACITY_WIDTH
    )
    wire_ops = [to_wire(r) for r in stream]
    expected = [d.ok for d in serial_decisions]
    argv = [sys.executable, "-m", "repro.service", "--port", "0"]
    argv += [f"--device={name}={CAPACITY_WIDTH}" for name in DEVICES]
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch():
        start = time.perf_counter()
        server = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            assert ready, "server printed nothing within 60 s"
            line = server.stdout.readline()
            startup_s = time.perf_counter() - start
            assert "listening" in line, line
            host, port = line.rsplit("//", 1)[1].strip().rsplit(":", 1)
            _, decisions, _ = asyncio.run(closed_loop(host, int(port), wire_ops, 1))
            status = _proc_status(server.pid)
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        assert [d["ok"] for d in decisions] == expected
        vmhwm_mb = int(status["VmHWM"].split()[0]) / 1024
        return startup_s, vmhwm_mb, int(status["Threads"])

    runs = benchmark.pedantic(
        lambda: [launch() for _ in range(COLD_STARTS)], rounds=1, iterations=1
    )
    startup = [r[0] for r in runs]
    vmhwm = [r[1] for r in runs]
    threads = [r[2] for r in runs]
    benchmark.extra_info["starts"] = COLD_STARTS
    benchmark.extra_info["replay_requests"] = len(wire_ops)
    benchmark.extra_info["startup_s_median"] = statistics.median(startup)
    benchmark.extra_info["startup_s"] = startup
    benchmark.extra_info["server_vmhwm_mb_median"] = statistics.median(vmhwm)
    benchmark.extra_info["server_vmhwm_mb"] = vmhwm
    benchmark.extra_info["server_threads"] = max(threads)
    benchmark.extra_info["nproc"] = len(os.sched_getaffinity(0))
    print(
        f"\nservice cold start: median {statistics.median(startup) * 1e3:.0f} ms "
        f"to listening over {COLD_STARTS} starts, server VmHWM median "
        f"{statistics.median(vmhwm):.1f} MB after {len(wire_ops)} requests, "
        f"{max(threads)} thread(s)"
    )
