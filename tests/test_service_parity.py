"""Decision parity: the micro-batched service == serial replay, bit-for-bit.

The service's central contract: for float64-parameter tasks (everything
that can arrive through the JSON protocol), the decisions of
:meth:`BatchEngine.process_batch` over *any* partition of a request
stream into batches are identical to :meth:`BatchEngine.process_serial`
— one request at a time, straight through ``AdmissionState.admit`` with
rollback — and the final resident sets agree.  Randomized interleaved
admit/remove/trial streams exercise the certifier fast path and the
exact DP → GN1 → GN2 check, on roomy devices and on near-capacity ones
where many candidates reach GN2; dedicated tests pin the exact check
against the from-scratch portfolio, rollback-on-reject, trial
non-mutation, error semantics, per-request fault isolation and the
certifier-vs-exact agreement.
"""

import asyncio
import random

import pytest

from repro.core import SchedulerKind, paper_portfolio
from repro.fpga.device import Fpga
from repro.model.task import Task, TaskSet
from repro.model.validation import TaskParameterError
from repro.service import (
    AdmissionService,
    BatchConfig,
    BatchEngine,
    MicroBatcher,
    ProtocolError,
    Request,
    parse_request,
    parse_task,
)
from repro.service.protocol import VIA_CERTIFIER, VIA_KERNEL, VIA_STATE

DEVICES = ("fpga0", "fpga1", "fpga2")


def draw_task(rng: random.Random, i: int) -> Task:
    """Irregular float parameters, off exact knife edges (churn-bench
    pattern): the float64 domain the protocol boundary admits."""
    wcet = rng.uniform(0.3, 4.0)
    period = wcet * rng.uniform(1.3, 9.0)
    deadline = period * rng.uniform(0.65, 1.0)
    return Task(
        wcet=wcet,
        period=period,
        deadline=deadline,
        area=rng.randint(1, 14),
        name=f"t{i}",
    )


def draw_tight_task(rng: random.Random, i: int) -> Task:
    """The near-capacity shape: moderate tasks with WCETs x4 on a
    width-12 device, where many candidates are rejected only after GN2."""
    period = float(rng.randint(40, 90))
    wcet = 4 * (rng.randint(1, 5) + 0.05 + 0.01 * rng.random())
    return Task(wcet=wcet, period=period, area=rng.randint(1, 8), name=f"t{i}")


#: Stream shapes: (device width, task drawer).
SHAPES = {"wide": (64, draw_task), "tight": (12, draw_tight_task)}


def gen_stream(rng: random.Random, n: int, devices=DEVICES, draw=draw_task):
    """Interleaved add/remove/trial requests with plausible targets."""
    resident = {d: [] for d in devices}
    requests = []
    for i in range(n):
        device = rng.choice(devices)
        roll = rng.random()
        if roll < 0.22 and resident[device]:
            name = rng.choice(resident[device])
            requests.append(Request(op="remove", device=device, name=name))
            resident[device].remove(name)
        elif roll < 0.27 and resident[device]:
            # duplicate-name add: must error identically in both paths
            name = rng.choice(resident[device])
            dup = draw(rng, i)
            requests.append(
                Request(op="add", device=device, task=Task(
                    wcet=dup.wcet, period=dup.period, deadline=dup.deadline,
                    area=dup.area, name=name,
                ))
            )
        elif roll < 0.32:
            # remove of an absent task: must error identically
            requests.append(Request(op="remove", device=device, name=f"ghost{i}"))
        elif roll < 0.52:
            requests.append(Request(op="trial", device=device, task=draw(rng, i)))
        else:
            task = draw(rng, i)
            requests.append(Request(op="add", device=device, task=task))
            resident[device].append(task.name)  # optimistic bookkeeping
    return requests


def make_engine(width=64, use_certifier=True, devices=DEVICES) -> BatchEngine:
    engine = BatchEngine(use_certifier=use_certifier)
    for name in devices:
        engine.add_device(name, Fpga(width=width))
    return engine


def decision_key(decision):
    """The parity-relevant projection: everything except ``via``/``member``
    (the batched pipeline may decide via certifier or kernel where the
    serial reference says ``state`` — the *verdict* must not differ)."""
    return (decision.op, decision.device, decision.name, decision.ok, decision.error)


def random_partition(rng: random.Random, stream, max_chunk=96):
    chunks = []
    k = 0
    while k < len(stream):
        size = rng.randint(1, max_chunk)
        chunks.append(stream[k : k + size])
        k += size
    return chunks


def assert_states_agree(a: BatchEngine, b: BatchEngine, devices=DEVICES):
    for name in devices:
        left = sorted(t.name for t in a.device(name).state.tasks)
        right = sorted(t.name for t in b.device(name).state.tasks)
        assert left == right, (name, left, right)


# -- randomized stream parity --------------------------------------------------


def partition(rng: random.Random, stream, batching):
    """``"random"`` chunks, one ``"giant"`` batch, or fixed-size batches."""
    if batching == "random":
        return random_partition(rng, stream)
    size = len(stream) if batching == "giant" else batching
    return [stream[k : k + size] for k in range(0, len(stream), size)]


#: (seed, use_certifier, shape, batching).
REPLAY_CASES = [
    (seed, cert, "wide", "random") for cert in (True, False) for seed in range(6)
] + [
    (seed, cert, "tight", batching)
    for batching in (1, 2, "giant")
    for cert in (True, False)
    for seed in range(3)
]


def _replay_id(case):
    seed, cert, shape, batching = case
    return f"{cert}-{seed}" if shape == "wide" else f"tight-{batching}-{cert}-{seed}"


@pytest.mark.parametrize(
    "seed,use_certifier,shape,batching", REPLAY_CASES, ids=map(_replay_id, REPLAY_CASES)
)
def test_batched_decisions_match_serial_replay(seed, use_certifier, shape, batching):
    rng = random.Random(seed)
    width, draw = SHAPES[shape]
    stream = gen_stream(rng, 300, draw=draw)
    serial = make_engine(width=width)
    reference = serial.process_serial(stream)

    batched = make_engine(width=width, use_certifier=use_certifier)
    got = []
    for chunk in partition(rng, stream, batching):
        got.extend(batched.process_batch(chunk))

    assert len(got) == len(reference)
    for ref, dec in zip(reference, got):
        assert decision_key(dec) == decision_key(ref)
    assert_states_agree(serial, batched)
    if shape == "tight":
        # GN2-heavy: every rejection ran all three members, GN2 last.
        assert sum(not d.ok and d.error is None for d in got) >= len(got) // 5


@pytest.mark.parametrize("seed", [11, 12])
def test_every_partition_yields_identical_decisions(seed):
    """Batch-split invariance: singletons, mixed chunks and one giant
    batch all produce the same decision sequence."""
    rng = random.Random(seed)
    stream = gen_stream(rng, 160)
    outcomes = []
    for chunks in (
        [stream[i : i + 1] for i in range(len(stream))],
        random_partition(random.Random(seed + 1), stream, max_chunk=17),
        [stream],
    ):
        engine = make_engine()
        got = []
        for chunk in chunks:
            got.extend(engine.process_batch(chunk))
        outcomes.append([decision_key(d) for d in got])
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_high_contention_single_device_parity():
    """Everything lands on one device, in one giant batch."""
    rng = random.Random(99)
    stream = gen_stream(rng, 250, devices=("solo",))
    serial = make_engine(width=32, devices=("solo",))
    reference = serial.process_serial(stream)
    batched = make_engine(width=32, devices=("solo",))
    got = batched.process_batch(stream)  # one giant batch
    assert [decision_key(d) for d in got] == [decision_key(d) for d in reference]
    assert_states_agree(serial, batched, devices=("solo",))


# -- pinned semantics ----------------------------------------------------------


def test_rejected_add_rolls_back():
    engine = make_engine(width=8, devices=("d",))
    ok = engine.process_batch(
        [Request(op="add", device="d", task=Task(wcet=1.0, period=4.0, area=4, name="big"))]
    )[0]
    assert ok.ok
    before = engine.device("d").state.version
    crowd = [
        Request(op="add", device="d", task=Task(wcet=3.0, period=3.5, area=7, name=f"x{i}"))
        for i in range(4)
    ]
    decisions = engine.process_batch(crowd)
    assert all(not d.ok and d.error is None for d in decisions)
    state = engine.device("d").state
    assert sorted(t.name for t in state.tasks) == ["big"]
    assert state.version == before  # rejected adds never touched the state


def test_trial_never_mutates():
    engine = make_engine(devices=("d",))
    task = Task(wcet=1.0, period=10.0, area=2, name="probe")
    for _ in range(3):
        decision = engine.process_batch([Request(op="trial", device="d", task=task)])[0]
        assert decision.ok
    assert len(engine.device("d").state) == 0
    # an accepted trial does not reserve the name
    admitted = engine.process_batch([Request(op="add", device="d", task=task)])[0]
    assert admitted.ok


def test_error_semantics():
    engine = make_engine(devices=("d",))
    task = Task(wcet=1.0, period=10.0, area=2, name="a")
    engine.process_batch([Request(op="add", device="d", task=task)])
    dup, ghost, lost = engine.process_batch(
        [
            Request(op="add", device="d", task=task),
            Request(op="remove", device="d", name="ghost"),
            Request(op="add", device="missing", task=task),
        ]
    )
    assert (dup.ok, dup.error) == (False, "task name already resident")
    assert (ghost.ok, ghost.error) == (False, "task not resident")
    assert (lost.ok, lost.error) == (False, "unknown device")


def test_certifier_and_exact_paths_agree():
    """Certified decisions must match what the exact kernels (and the
    serial reference) would have said."""
    rng = random.Random(5)
    stream = []
    for i in range(220):
        stream.append(
            Request(
                op=rng.choice(("add", "trial")),
                device="d",
                task=Task(
                    wcet=rng.uniform(0.05, 0.4),
                    period=rng.uniform(40.0, 90.0),
                    area=1,
                    name=f"t{i}",
                ),
            )
        )
    with_cert = make_engine(width=128, devices=("d",))
    without = make_engine(width=128, use_certifier=False, devices=("d",))
    serial = make_engine(width=128, devices=("d",))
    reference = serial.process_serial(stream)
    got_cert, got_exact = [], []
    for k in range(0, len(stream), 16):
        got_cert.extend(with_cert.process_batch(stream[k : k + 16]))
        got_exact.extend(without.process_batch(stream[k : k + 16]))
    assert [decision_key(d) for d in got_cert] == [decision_key(d) for d in reference]
    assert [decision_key(d) for d in got_exact] == [decision_key(d) for d in reference]
    # the fast path actually engaged, and only ever on the accept side
    vias = {d.via for d in got_cert}
    assert VIA_CERTIFIER in vias
    assert all(d.ok for d in got_cert if d.via == VIA_CERTIFIER)
    snap = with_cert.metrics.snapshot()
    assert snap["certifier"]["certified"] > 0
    assert 0.0 < snap["certifier"]["hit_rate"] <= 1.0


def test_via_taxonomy():
    engine = make_engine(devices=("d",))
    add = engine.process_batch(
        [Request(op="add", device="d", task=Task(wcet=1.0, period=10.0, area=2, name="a"))]
    )[0]
    assert add.via == VIA_KERNEL and add.member in ("DP", "GN1", "GN2")
    rem = engine.process_batch([Request(op="remove", device="d", name="a")])[0]
    assert rem.via == VIA_STATE


def portfolio_member(result) -> str:
    """The first accepting member named by a portfolio ``TestResult``."""
    if not result.accepted:
        return ""
    via = result.reason.removeprefix("accepted by member ")
    return next((m for m in ("GN1", "GN2") if via.startswith(m)), "DP")


@pytest.mark.parametrize("seed", range(4))
def test_exact_check_matches_from_scratch_portfolio(seed):
    """With the certifier off every add/trial takes the exact check; its
    ``ok`` and ``member`` equal the scalar portfolio run from scratch on
    the candidate resident set."""
    rng = random.Random(seed)
    fpga = Fpga(width=12)
    portfolio = paper_portfolio(SchedulerKind.EDF_NF)
    engine = make_engine(width=12, use_certifier=False, devices=("d",))
    state = engine.device("d").state
    members = set()
    for i in range(80):
        if len(state) > 6 and rng.random() < 0.3:
            victim = rng.choice(state.tasks).name
            engine.process_batch([Request(op="remove", device="d", name=victim)])
            continue
        task = draw_tight_task(rng, i)
        expected = portfolio(TaskSet([*state.tasks, task]), fpga)
        op = rng.choice(("add", "trial"))
        (decision,) = engine.process_batch([Request(op=op, device="d", task=task)])
        assert decision.via == VIA_KERNEL
        assert (decision.ok, decision.member) == (
            expected.accepted,
            portfolio_member(expected),
        )
        members.add(decision.member)
    assert {"DP", ""} <= members  # both accepts and rejects were checked


def test_raising_request_is_isolated(monkeypatch):
    """A request whose exact check raises becomes an error decision; its
    device's state and certifier stay as they were, and every other
    request in the batch is decided as if it had never been sent."""
    import repro.service.engine as engine_module

    real = engine_module.accept_masks

    def flaky(tasksets, *args, **kwargs):
        if any(t.name == "boom" for ts in tasksets for t in ts):
            raise RuntimeError("kernel fault")
        return real(tasksets, *args, **kwargs)

    stream = gen_stream(random.Random(8), 120)
    # Too heavy to certify, so the request reaches the exact check.
    boom = Request(
        op="add", device="fpga1", task=Task(wcet=9.0, period=10.0, area=30, name="boom")
    )
    reference = make_engine()
    expected = reference.process_batch(stream)

    monkeypatch.setattr(engine_module, "accept_masks", flaky)
    engine = make_engine()
    got = engine.process_batch(stream[:60] + [boom] + stream[60:])

    failed = got.pop(60)
    assert (failed.ok, failed.name) == (False, "boom")
    assert failed.error is not None and "kernel fault" in failed.error
    assert got == expected
    for name in DEVICES:
        left, right = engine.device(name), reference.device(name)
        assert left.state.tasks == right.state.tasks
        assert left.state.version == right.state.version
        assert left.cert_valid == right.cert_valid
        cached = {k: v for k, v in vars(left.certifier).items() if k != "stats"}
        assert cached == {k: v for k, v in vars(right.certifier).items() if k != "stats"}
    assert engine.metrics.errors_total == reference.metrics.errors_total + 1


def test_non_finite_task_cannot_reach_either_path():
    """A NaN wcet once split the paths: ``process_batch`` rejected it in
    the kernels while ``process_serial`` admitted it.  Now neither path
    can see one, because the task cannot be built at all."""
    for kwargs in (
        dict(wcet=float("nan"), period=10.0),
        dict(wcet=1.0, period=float("inf")),
        dict(wcet=1.0, period=10.0, deadline=float("nan")),
        dict(wcet=1.0, period=10.0, area=float("inf")),
    ):
        with pytest.raises(TaskParameterError):
            Task(name="bad", **kwargs)


# -- protocol boundary ---------------------------------------------------------


def test_parse_task_coerces_to_float_and_validates():
    task = parse_task({"name": "a", "wcet": 1, "period": 10})
    assert isinstance(task.wcet, float) and isinstance(task.period, float)
    assert task.deadline == 10.0 and task.area == 1.0
    with pytest.raises(ProtocolError):
        parse_task({"name": "a", "wcet": 1})  # missing period
    with pytest.raises(ProtocolError):
        parse_task({"name": "", "wcet": 1, "period": 10})
    with pytest.raises(ProtocolError):
        parse_task({"name": "a", "wcet": True, "period": 10})
    with pytest.raises(ProtocolError):
        parse_task({"name": "a", "wcet": 1, "period": 10, "color": "red"})
    with pytest.raises(ProtocolError):
        parse_task({"name": "a", "wcet": -1, "period": 10})  # ModelError wrapped


@pytest.mark.parametrize("field,value", [
    ("wcet", float("nan")),
    ("wcet", float("inf")),
    ("period", float("inf")),
    ("deadline", float("-inf")),
    ("area", float("nan")),
    pytest.param("wcet", 10**400, id="wcet-huge-int"),  # float() overflows
    pytest.param("period", -(10**400), id="period-huge-negative-int"),
])
def test_parse_task_rejects_unrepresentable_numbers(field, value):
    obj = {"name": "a", "wcet": 1, "period": 10}
    obj[field] = value
    with pytest.raises(ProtocolError):
        parse_task(obj)


def test_parse_request_shapes():
    req = parse_request("remove", {"device": "d", "name": "a"})
    assert req.target == "a"
    req = parse_request("trial", {"device": "d", "task": {"name": "a", "wcet": 1, "period": 9}})
    assert req.task is not None and req.target == "a"
    with pytest.raises(ProtocolError):
        parse_request("add", {"task": {"name": "a", "wcet": 1, "period": 9}})
    with pytest.raises(ProtocolError):
        parse_request("remove", {"device": "d"})
    with pytest.raises(ProtocolError):
        Request(op="resize", device="d")


# -- asyncio micro-batcher -----------------------------------------------------


def test_microbatcher_coalesces_and_preserves_order():
    engine = make_engine(devices=("d",))
    batcher = MicroBatcher(
        engine.process_batch, BatchConfig(max_batch=64, max_wait=0.005), engine.metrics
    )
    rng = random.Random(21)
    stream = gen_stream(rng, 120, devices=("d",))

    async def run():
        await batcher.start()
        try:
            return await asyncio.gather(*[batcher.submit(r) for r in stream])
        finally:
            await batcher.close()

    got = asyncio.run(run())
    serial = make_engine(devices=("d",))
    reference = serial.process_serial(stream)
    assert [decision_key(d) for d in got] == [decision_key(d) for d in reference]
    snap = engine.metrics.snapshot()
    assert snap["batches_total"] < len(stream)  # actually coalesced
    assert max(int(s) for s in snap["batch_size_histogram"]) <= 64
    assert snap["latency_seconds"]["p50"] >= 0.0
    assert snap["requests_in_flight"] == 0


def test_microbatcher_respects_max_batch():
    engine = make_engine(devices=("d",))
    batcher = MicroBatcher(
        engine.process_batch, BatchConfig(max_batch=8, max_wait=60.0), engine.metrics
    )
    stream = gen_stream(random.Random(4), 32, devices=("d",))

    async def run():
        await batcher.start()
        try:
            # max_wait is a minute: only the size bound can flush these.
            return await asyncio.wait_for(
                asyncio.gather(*[batcher.submit(r) for r in stream]), timeout=10
            )
        finally:
            await batcher.close()

    got = asyncio.run(run())
    assert len(got) == len(stream)
    sizes = engine.metrics.batch_sizes
    assert all(size <= 8 for size in sizes)
    assert sizes[8] >= 4  # the gathered burst flushes as full batches


def test_microbatcher_rejects_use_when_not_running():
    engine = make_engine(devices=("d",))
    batcher = MicroBatcher(engine.process_batch)

    async def run():
        with pytest.raises(RuntimeError):
            await batcher.submit(Request(op="remove", device="d", name="x"))

    asyncio.run(run())


def test_batch_config_validation():
    with pytest.raises(ValueError):
        BatchConfig(max_batch=0)
    with pytest.raises(ValueError):
        BatchConfig(max_wait=-1.0)


# -- service front door --------------------------------------------------------


def test_service_parity_with_serial_replay():
    rng = random.Random(31)
    stream = gen_stream(rng, 200)
    service = AdmissionService(config=BatchConfig(max_batch=64, max_wait=0.002))

    async def run():
        await service.start()
        try:
            for name in DEVICES:
                service.create_device(name, 64)
            return await asyncio.gather(*[service.submit(r) for r in stream])
        finally:
            await service.close()

    got = asyncio.run(run())
    reference = make_engine().process_serial(stream)
    assert [decision_key(d) for d in got] == [decision_key(d) for d in reference]
    snap = service.snapshot()
    assert snap["devices"] == 3
    assert snap["decisions_total"] == len(stream)
    assert snap["batches_total"] < len(stream)  # requests actually coalesced
