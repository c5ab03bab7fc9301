"""End-to-end benchmark: the admission service over HTTP plus results
regeneration.

Usage, from the repository root::

    python3 perfbench/run.py --workload admit-wide --seed 1 --seconds 20 --trace 0

Each run of either workload does two jobs, so that every end-to-end
metric is measured on every workload (the regeneration job runs first):

1. **Admission service.**  ``python -m repro.service`` runs in its own
   process at its default batching settings, with four devices of the
   workload's width.  One client process drives it over loopback with at
   most ``nproc`` keep-alive connections; each connection owns a fixed
   subset of the devices.  The request stream comes from ``--seed`` by
   serial replay (:mod:`streams`), so every HTTP decision is checked
   against ``BatchEngine.process_serial``.  A closed-loop phase and an
   open-loop phase at a fixed rate each run for half of ``--seconds``,
   each on a fresh server, after an untimed warm-up prefix.  Throughput
   and median latencies are taken over one-second windows, from the
   fastest quarter of them, so a slow spell of a shared host that covers
   a few windows does not decide the run.
2. **Results regeneration.**  ``scripts/regenerate_results.py`` at a
   fixed reduced ``--samples`` and a fixed figure seed, whatever the
   workload seed: the work it does varies by up to a fifth between figure
   seeds, which would swamp the run-to-run comparison.  The SHA-256 of
   its outputs must equal the reference digest in ``regen_digest.json``.
   Its peak memory and set-up time are end-to-end metrics.  Its wall
   time is reported with the per-layer metrics, unbounded: it is CPU- and
   cache-bound, and slow spells of a shared host that last up to minutes
   move it by more than a quarter between runs of the same code.

``--trace 1`` runs the same jobs untraced, then again under the
launchers in this directory that wrap the program's public functions,
and reports the per-layer metrics, the tracing overhead and the share of
time no layer accounts for.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A parity or digest mismatch
prints it with ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import http.client
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
REQUIRED = ("src/repro/service/cli.py", "scripts/regenerate_results.py",
            "benchmarks/service_loadtest.py")

#: Requests sent closed-loop, untimed, before each timed phase.
WARMUP = 400
#: Timed windows per second of a phase; latency and throughput metrics
#: are the fast-side quartile over them.
WINDOWS_PER_S = 1
#: Launches of the server, and of the regeneration script, that set-up
#: time is the median of.
SETUP_LAUNCHES = 5
#: Seconds a child process gets to come up or to exit.
CHILD_TIMEOUT = 60.0

REGEN_OUTPUTS = ("experiments_data.txt",) + tuple(
    f"{fig}.{ext}" for fig in ("fig3a", "fig3b", "fig4a", "fig4b") for ext in ("csv", "svg")
)
REFERENCE = BENCH / "regen_digest.json"

clock = time.perf_counter


#: Open-loop latency limit.
SLO_MS = 10.0


@dataclass(frozen=True)
class Workload:
    width: int
    wcet_scale: float
    #: Residents per device the stream's removes pull toward.
    resident_target: int
    #: Open-loop requests per second, about a third of the closed-loop
    #: capacity: low enough that a short slowdown of a shared host does
    #: not build a queue that dominates the tail.
    open_rate: float
    #: Stream length per closed-loop second, about 1.5x the capacity; a
    #: phase whose connection runs out of requests ends there.
    stream_rate: float


WORKLOADS = {
    "admit-wide": Workload(width=100, wcet_scale=1.0, resident_target=60, open_rate=250.0,
                           stream_rate=1100.0),
    "admit-tight": Workload(width=12, wcet_scale=4.0, resident_target=20, open_rate=160.0,
                            stream_rate=800.0),
}


class BenchError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


# -- child processes -----------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _first_line(proc: subprocess.Popen, what: str) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
    line = proc.stdout.readline() if ready else ""
    if not line:
        _reap(proc, signal.SIGKILL)
        raise BenchError(f"{what} did not come up (see {OUT})")
    return line


def _reap(proc: subprocess.Popen, sig: Optional[int] = None) -> Tuple[int, int]:
    """Signal ``proc`` (if ``sig``), wait for it, killing it after
    ``CHILD_TIMEOUT``; returns (exit code, peak RSS in KiB)."""
    if proc.returncode is not None:
        return proc.returncode, 0
    if sig is not None:
        proc.send_signal(sig)
    deadline = time.monotonic() + CHILD_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss


class Server:
    """One service process; ``setup_s`` runs from launch until it lists
    every registered device over HTTP."""

    def __init__(self, argv: Sequence[str], tag: str, trace: Optional[Path] = None) -> None:
        from streams import DEVICES

        if trace is None:
            cmd = [sys.executable, "-m", "repro.service", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "launch_service.py"), str(trace), *argv]
        self.log = OUT / f"{tag}.log"
        start = clock()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                                         stdout=subprocess.PIPE, stderr=log)
        try:
            line = _first_line(self.proc, "service")
            self.port = int(line.rsplit(":", 1)[1])
            listed = self._get("/v1/devices")["devices"]
            if sorted(d["name"] for d in listed) != sorted(DEVICES):
                raise BenchError(f"service lists devices {listed!r}")
        except BaseException:
            _reap(self.proc, signal.SIGKILL)
            raise
        self.setup_s = clock() - start

    def _get(self, path: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=CHILD_TIMEOUT)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> int:
        """Interrupt the server and wait; returns its peak RSS in KiB."""
        code, rss_kib = _reap(self.proc, signal.SIGINT)
        if code != 0:
            raise BenchError(f"service exited with {code} (see {self.log})")
        return rss_kib


@dataclass
class RegenRun:
    setup_s: float
    wall_s: float = 0.0
    rss_kib: int = 0
    digest: str = ""


def regen(args: Sequence[str], out_dir: Path, tag: str, *, full: bool = True,
          trace: Optional[Path] = None) -> RegenRun:
    """Launch the regeneration script; set-up ends at its first output
    line (imports done).  ``full=False`` stops it there."""
    script_args = [*args, "--out", str(out_dir)]
    if trace is None:
        cmd = [sys.executable, "scripts/regenerate_results.py", *script_args]
    else:
        cmd = [sys.executable, str(BENCH / "launch_regen.py"), str(trace), *script_args]
    shutil.rmtree(out_dir, ignore_errors=True)
    start = clock()
    with open(OUT / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                                stdout=subprocess.PIPE, stderr=log)
    try:
        _first_line(proc, "regeneration")
        run = RegenRun(setup_s=clock() - start)
        if not full:
            _reap(proc, signal.SIGKILL)
            return run
        proc.stdout.read()
        code, run.rss_kib = _reap(proc)
        run.wall_s = clock() - start
    except BaseException:
        _reap(proc, signal.SIGKILL)
        raise
    if code != 0:
        raise BenchError(f"regeneration exited with {code} (see {OUT / (tag + '.log')})")
    digest = hashlib.sha256()
    for name in REGEN_OUTPUTS:
        digest.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    run.digest = digest.hexdigest()
    return run


def regen_reference() -> Tuple[List[str], str]:
    """The script arguments and the digest their outputs must have."""
    ref = json.loads(REFERENCE.read_text())
    return ["--samples", str(ref["samples"]), "--seed", str(ref["seed"])], ref["sha256"]


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) < 2:
        raise BenchError(f"too few samples ({len(values)}) for a percentile")
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def windows(outcome: Any) -> List[List[float]]:
    """The phase's latencies split into equal time windows by send (open
    loop: due) time."""
    count = max(4, round(outcome.span * WINDOWS_PER_S))
    out: List[List[float]] = [[] for _ in range(count)]
    for offset, latency in outcome.samples:
        out[min(count - 1, int(offset / outcome.span * count))].append(latency)
    return out


def fast_quartile(values: Sequence[float], *, higher_is_better: bool) -> float:
    """The quartile of ``values`` on the fast side.  A host slowdown only
    ever makes a window worse, so this tracks the program's own speed
    while up to three quarters of the windows are slowed."""
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high if higher_is_better else low


def windowed_p50_ms(outcome: Any) -> float:
    p50s = [percentile(window, 50) for window in windows(outcome)]
    return fast_quartile(p50s, higher_is_better=False) * 1e3


# -- the admission-service job ---------------------------------------------------


@dataclass
class AdmitJob:
    workload: Workload
    requests: list
    expected: list
    wire: list
    lanes: List[List[int]]
    argv: List[str]
    phase_s: float


def make_admit_job(workload: Workload, seed: int, seconds: float) -> AdmitJob:
    import streams
    from service_loadtest import to_wire

    phase_s = seconds / 2
    count = WARMUP + int(max(workload.stream_rate, workload.open_rate) * phase_s) + 1
    requests, expected = streams.build_stream(workload.width, workload.wcet_scale,
                                         workload.resident_target, seed, count)
    connections = max(1, min(os.cpu_count() or 1, len(streams.DEVICES)))
    argv = ["--port", "0"] + [f"--device={name}={workload.width}" for name in streams.DEVICES]
    return AdmitJob(workload, requests, expected, [to_wire(r) for r in requests],
                    streams.lanes(requests, connections), argv, phase_s)


def _split(lanes: Sequence[Sequence[int]], first: int) -> Tuple[List[List[int]], List[List[int]]]:
    head = [[i for i in lane if i < first] for lane in lanes]
    tail = [[i for i in lane if i >= first] for lane in lanes]
    return head, tail


@dataclass
class AdmitResult:
    setups: List[float]
    rss_kib: List[int]
    closed: Any
    open: Any
    warmups: List[Any]
    traces: List[Path]
    mismatches: int = 0


def run_admit(job: AdmitJob, tag: str, *, traced: bool, extra_setups: int) -> AdmitResult:
    import client
    import streams

    head, tail = _split(job.lanes, WARMUP)
    open_end = WARMUP + int(job.workload.open_rate * job.phase_s)
    open_tail = [[i for i in lane if i < open_end] for lane in tail]
    setups: List[float] = []
    rss: List[int] = []
    traces: List[Path] = []
    phases: Dict[str, Any] = {}
    warmups: List[Any] = []

    async def drive(server: Server, phase: str) -> None:
        clients = await client.connect(server.port, len(job.lanes))
        try:
            warmups.append(await client.closed_loop(clients, job.wire, head, None))
            if phase == "closed":
                phases[phase] = await client.closed_loop(clients, job.wire, tail, job.phase_s)
            else:
                phases[phase] = await client.open_loop(clients, job.wire, open_tail,
                                                       WARMUP, job.workload.open_rate)
        finally:
            await client.close(clients)

    for i, phase in enumerate(["closed", "open"] + [None] * extra_setups):
        trace = OUT / f"{tag}-server{i}.trace.json" if traced and phase else None
        server = Server(job.argv, f"{tag}-server{i}", trace)
        try:
            setups.append(server.setup_s)
            if phase:
                asyncio.run(drive(server, phase))
        finally:
            rss.append(server.stop())
        if trace is not None:
            traces.append(trace)

    result = AdmitResult(setups, rss, phases["closed"], phases["open"], warmups, traces)
    for outcome in [*warmups, result.closed, result.open]:
        for index, payload in outcome.decisions.items():
            if streams.wire_parity_key(payload) != streams.parity_key(job.expected[index]):
                result.mismatches += 1
    return result


def admit_metrics(res: AdmitResult) -> Dict[str, float]:
    closed, opened = res.closed, res.open
    closed_windows = windows(closed)
    within = sum(1 for _, lat in opened.samples if lat * 1e3 <= SLO_MS)
    return {
        "decisions_per_s": fast_quartile([len(w) for w in closed_windows],
                                         higher_is_better=True)
        * len(closed_windows) / closed.span,
        "closed_p50_ms": windowed_p50_ms(closed),
        "open_p50_ms": windowed_p50_ms(opened),
        # Pooled: a failed request is attempted and misses the limit.
        "open_slo_frac": within / max(1, opened.attempted),
        "peak_rss_mb": max(res.rss_kib) / 1024,
    }


def tail_metrics(res: AdmitResult) -> Dict[str, float]:
    """Tail latencies and client lateness, pooled over each phase."""
    return {
        "closed_p99_ms": percentile([lat for _, lat in res.closed.samples], 99) * 1e3,
        "open_p99_ms": percentile([lat for _, lat in res.open.samples], 99) * 1e3,
        "client.lateness_p99_ms": percentile(res.open.lateness, 99) * 1e3,
    }


# -- per-layer metrics from the traces ---------------------------------------------


def _load(paths: Sequence[Path]) -> Dict[str, Any]:
    """Sum several trace dumps."""
    layers: Dict[str, List[float]] = {}
    counters: Counter = Counter()
    extras: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(path.read_text())
        for name, rec in data["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        counters.update(data["counters"])
        extras.append(data["extra"])
    return {"layers": layers, "counters": counters, "extras": extras}


def _layer(trace: Dict[str, Any], name: str, field: int = 2) -> float:
    return trace["layers"].get(name, [0, 0.0, 0.0])[field]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def service_layers(res: AdmitResult) -> Dict[str, float]:
    trace = _load(res.traces)
    c = trace["counters"]
    per = [e["requests"] for e in trace["extras"]]
    n = sum(p["count"] for p in per)
    submit_s = sum(p["submit_s"] for p in per)
    wait_s = sum(p["wait_s"] for p in per)
    batch_s = sum(p["batch_s"] for p in per)
    window_s = sum(p["last_reply"] - p["first_submit"] for p in per if p["count"])
    outcomes = [*res.warmups, res.closed, res.open]
    round_trip_s = sum(o.round_trip_s for o in outcomes)
    answered = sum(len(o.decisions) for o in outcomes)
    if answered != n:
        raise BenchError(f"client saw {answered} replies, server {n} submits")
    engine_s = _layer(trace, "engine", 1)
    return {
        "http.overhead_ms": (round_trip_s - submit_s) / n * 1e3,
        "protocol.parse_us": _ratio(_layer(trace, "protocol.parse", 1),
                                    _layer(trace, "protocol.parse", 0)) * 1e6,
        "protocol.encode_us": _ratio(_layer(trace, "protocol.encode", 1),
                                     _layer(trace, "protocol.encode", 0)) * 1e6,
        "batcher.wait_ms": wait_s / n * 1e3,
        "batcher.batch_size_mean": _ratio(c["batcher.requests"], c["batcher.batches"]),
        "engine.busy_s": engine_s,
        "engine.busy_share": _ratio(engine_s, window_s),
        "certifier.calls": c["certifier.calls"],
        "certifier.hit_rate": _ratio(c["certifier.hits"], c["certifier.calls"]),
        "certifier.busy_ms": _layer(trace, "certifier") * 1e3,
        "kernel.calls": _layer(trace, "kernel", 0),
        "kernel.rows": c["kernel.rows"],
        "kernel.busy_s": _layer(trace, "kernel"),
        "kernel.rows_per_decision": _ratio(c["kernel.rows"], c["decisions.via_kernel"]),
        "incremental.admit_calls": c["incremental.admit_calls"],
        "incremental.admit_s": _layer(trace, "incremental"),
        "decisions.via_certifier": c["decisions.via_certifier"],
        "decisions.via_kernel": c["decisions.via_kernel"],
        "decisions.via_state": c["decisions.via_state"],
        "decisions.rejected": c["decisions.rejected"],
        "decisions.errors": c["decisions.errors"],
        # Client latency = http self + protocol + batcher wait + engine +
        # the rest of the submit span, which no layer covers.
        "unaccounted_share": _ratio(submit_s - wait_s - batch_s, round_trip_s),
    }


PHASES = ("fig3a", "fig3b", "fig4a", "fig4b", "alpha", "nf_vs_fkf", "placement",
          "offset", "sporadic")


def regen_layers(trace_path: Path) -> Dict[str, float]:
    trace = _load([trace_path])
    c = trace["counters"]
    main_s = trace["extras"][0]["main_s"]
    sim_s = _layer(trace, "sim.free") + _layer(trace, "sim.placed")
    out = {f"phase.{p}_s": _layer(trace, f"phase.{p}", 1) for p in PHASES}
    out.update({
        "experiments.self_s": sum(_layer(trace, f"phase.{p}") for p in PHASES),
        "gen.generate_s": _layer(trace, "gen"),
        "analytic.dp_s": _layer(trace, "analytic.dp"),
        "analytic.gn1_s": _layer(trace, "analytic.gn1"),
        "analytic.gn2_s": _layer(trace, "analytic.gn2"),
        "analytic.rows": c["analytic.rows"],
        "sim_vec.free_s": _layer(trace, "sim.free"),
        "sim_vec.placed_s": _layer(trace, "sim.placed"),
        "sim_vec.rows": c["sim_vec.rows"],
        "sim_vec.events": c["sim_vec.events"],
        "sim_vec.events_per_s": _ratio(c["sim_vec.events"], sim_s),
        "sim_vec.kernel_passes": c["sim_vec.kernel_passes"],
        "sim_vec.fusion_factor": _ratio(c["sim_vec.event_steps"],
                                        c["sim_vec.kernel_passes"]),
        "sim_vec.budget_exceeded": c["sim_vec.budget_exceeded"],
        "search.self_s": _layer(trace, "search"),
        "report.write_s": _layer(trace, "report"),
    })
    covered = sum(rec[2] for rec in trace["layers"].values())
    out["regen.unaccounted_share"] = _ratio(main_s - covered, main_s)
    return out


# -- one pass over both jobs ------------------------------------------------------


def one_pass(job: AdmitJob, tag: str, *, traced: bool, setups: int) -> Dict[str, Any]:
    """Both jobs once; with ``setups``, each program is launched that
    many times in all for the set-up time.

    ``metrics`` are the bounded end-to-end metrics.  ``unbounded`` holds
    the tail latencies, client lateness and the regeneration wall time:
    a shared host's slow spells move those by more than the largest
    bound an end-to-end metric may have, so they are reported with the
    per-layer metrics instead."""
    regen_args, reference = regen_reference()
    out_dir = OUT / f"{tag}-results"
    trace = OUT / f"{tag}-regen.trace.json" if traced else None
    full = regen(regen_args, out_dir, f"{tag}-regen", trace=trace)
    admit = run_admit(job, tag, traced=traced, extra_setups=max(0, setups - 2))
    regen_setups = [full.setup_s] + [
        regen(regen_args, out_dir, f"{tag}-regen-setup{i}", full=False).setup_s
        for i in range(setups - 1)
    ]
    metrics = admit_metrics(admit)
    metrics.update({
        "setup_s": statistics.median(admit.setups) + statistics.median(regen_setups),
        "regen_peak_rss_mb": full.rss_kib / 1024,
    })
    outcomes = [*admit.warmups, admit.closed, admit.open]
    return {
        "metrics": metrics,
        "unbounded": {**tail_metrics(admit), "regen_wall_s": full.wall_s},
        "admit": admit,
        "regen_trace": trace,
        "mismatches": admit.mismatches,
        "digest_ok": full.digest == reference,
        "attempted": sum(o.attempted for o in outcomes) + 1,
        "failed": sum(o.failed for o in outcomes),
        "regen_args": regen_args,
    }


#: Metrics whose traced value is compared with the untraced one.
OVERHEAD_OF = ("decisions_per_s", "closed_p50_ms", "open_p50_ms", "regen_wall_s")


def metadata(args: argparse.Namespace, job: AdmitJob, regen_args: List[str]) -> Dict[str, Any]:
    import numpy
    from repro.service.cli import build_parser

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.read_bytes())
    ops = {op: sum(1 for r in job.requests if r.op == op) for op in ("add", "trial", "remove")}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": source.hexdigest(),
        "connections": len(job.lanes),
        "open_rate_per_s": job.workload.open_rate,
        "slo_ms": SLO_MS,
        "phase_s": job.phase_s,
        "stream": {"requests": len(job.requests), "warmup": WARMUP, "ops": ops,
                   "width": job.workload.width},
        "server_settings": vars(build_parser().parse_args(job.argv)),
        "regen_args": regen_args,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a repository checkout (missing {missing})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()

    job = make_admit_job(WORKLOADS[args.workload], args.seed, args.seconds)
    plain = one_pass(job, "plain", traced=False, setups=0 if args.trace else SETUP_LAUNCHES)
    passes = [plain]
    if args.trace:
        traced = one_pass(job, "traced", traced=True, setups=0)
        passes.append(traced)
        metrics = service_layers(traced["admit"])
        metrics.update(regen_layers(traced["regen_trace"]))
        metrics.update(plain["unbounded"])
        before = {**plain["metrics"], **plain["unbounded"]}
        after = {**traced["metrics"], **traced["unbounded"]}
        for name in OVERHEAD_OF:
            metrics[f"trace_overhead.{name}"] = after[name] / before[name] - 1
    else:
        metrics = plain["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise BenchError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    correct = all(p["mismatches"] == 0 and p["digest_ok"] for p in passes)
    info = metadata(args, job, plain["regen_args"])
    info.update({"closed_span_s": plain["admit"].closed.span,
                 "mismatches": sum(p["mismatches"] for p in passes),
                 "digest_ok": all(p["digest_ok"] for p in passes), **plain["unbounded"]})
    print(json.dumps({"metadata": info}))
    for name in sorted(metrics):
        print(f"  {name:32s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        raise SystemExit(2)
