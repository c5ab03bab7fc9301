"""Allowlist and layering tables the rules consult.

Everything scoped or exempted lives here, in one reviewable place — a
rule module never hard-codes a module name.  Scopes and allowlists are
dotted-module *prefixes* (``"repro.gen"`` covers ``repro.gen.uunifast``);
an entry matches a module when it equals the module or is a proper
dotted prefix of it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

#: The project's own namespace.  Rules that police *our* determinism
#: contracts (RL003/RL006 and their transitive closures RL010/RL012)
#: apply only to modules under this prefix — files outside any package
#: (``benchmarks/``, ``examples/``, ``scripts/`` get bare-stem module
#: names) are the sanctioned home for timing and ad-hoc RNG, exactly as
#: the RL006 docstring prescribes.
SRC_NAMESPACE: Tuple[str, ...] = ("repro",)

#: Modules (prefixes) that form the array-kernel surface: inside these,
#: importing numpy directly would bypass the one numpy seam,
#: ``repro.vector.xp`` (RL001).
KERNEL_PACKAGES: Tuple[str, ...] = ("repro.vector",)

#: The sanctioned numpy touchpoints inside/beside the kernel surface:
#: ``repro.vector.xp`` is *the* resolver (its job is importing numpy);
#: ``repro.search.patterns`` is the documented numpy-only unit-cube ->
#: legal-pattern mapping shared with the scalar twins (kept off the
#: backend namespace deliberately, see its module docstring).
NUMPY_ALLOWED_MODULES: Tuple[str, ...] = (
    "repro.vector.xp",
    "repro.search.patterns",
)

#: Modules (prefixes) allowed to construct RNGs or draw from global RNG
#: state (RL003): the seeded-sampler/generation layer.  Everything else
#: — vector kernels above all — must be deterministic in its inputs.
RNG_ALLOWED_MODULES: Tuple[str, ...] = (
    "repro.util.rngutil",     # the canonical seed -> Generator helpers
    "repro.gen",              # taskset generation (uunifast, randfixedsum, sweeps)
    "repro.sim.offsets",      # release-offset pattern sampling
    "repro.sim.sporadic",     # sporadic inter-arrival sampling
    "repro.search",           # adaptive proposal machinery (host-side, seeded)
    "repro.vector.batch",     # host-side batch generation (draw order pinned)
)

#: Method names that read as RNG draws when called inside the strict
#: kernel modules (RL003's second tier — catches a generator object
#: smuggled into a kernel even without a construction site).
RNG_DRAW_METHODS: Tuple[str, ...] = (
    "random", "uniform", "normal", "standard_normal", "integers",
    "choice", "shuffle", "permutation", "exponential", "poisson",
)

#: Constructors that mint RNG state (RL003 and the effect seeder).
#: Matching is by trailing attribute so any numpy alias is caught
#: (``np.random.default_rng``, ``numpy.random.default_rng``, a bare
#: ``default_rng`` from-import).
RNG_CONSTRUCTORS: Tuple[str, ...] = ("default_rng", "RandomState", "SeedSequence")

#: Fully-qualified functions whose RNG draws are *sanctioned* — the
#: documented host-side seeded samplers living inside an otherwise
#: strict kernel module (draw order pinned to the scalar reference,
#: ROADMAP "Array backends").  The effect seeder does not mark them
#: ``RNG``, so RL010 does not flag their kernel-side callers; their
#: in-body draws carry per-line RL003 pragmas already.
RNG_SANCTIONED_FUNCTIONS: Tuple[str, ...] = (
    "repro.vector.sim_vec.sample_offsets_batch",
    "repro.vector.sim_vec.sample_release_times_batch",
)

#: Kernel modules held to the strict determinism tier of RL003: the
#: batched simulator, the placement kernels and the vectorized
#: DP/GN1/GN2 tests.
KERNEL_STRICT_MODULES: Tuple[str, ...] = (
    "repro.vector.sim_vec",
    "repro.vector.placement_vec",
    "repro.vector.dp_vec",
    "repro.vector.gn1_vec",
    "repro.vector.gn2_vec",
)

#: ``module -> attribute`` pairs that read wall clocks (RL006).  The
#: repro tree must stay deterministic and profiler-friendly; timing
#: belongs in ``benchmarks/`` (outside ``src``).
WALL_CLOCK_CALLS: Tuple[Tuple[str, str], ...] = (
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("timeit", "default_timer"),
)

#: Modules (prefixes) exempt from RL006.  Exactly one: the admission
#: service's clock shim.  The micro-batching window (a *latency* bound)
#: and request-latency percentiles are inherently wall-clock concerns —
#: a long-running server cannot be clock-free the way the analysis tree
#: is.  All service timing funnels through ``repro.service.clock.now``
#: so the exemption stays one module wide; timestamps never influence
#: *decisions* (the batch-parity contract and its randomized test suite
#: pin that), only when a batch flushes.
WALL_CLOCK_ALLOWED_MODULES: Tuple[str, ...] = ("repro.service.clock",)

#: Modules (prefixes) whose ``async def`` bodies are held to RL013's
#: await-atomicity discipline: the admission service, where shared
#: per-device engine state lives on the event loop and every await is a
#: point other coroutines may mutate it.
ASYNC_STATE_MODULES: Tuple[str, ...] = ("repro.service",)

#: Method names that count as *mutations* of the receiver for RL013
#: (and the ``STATE_MUTATION`` effect): the container/state mutators the
#: service's AdmissionState, pending lists, and registries go through.
#: Calling one of these on ``self``-rooted state does NOT count as a
#: re-validating read of that state.
ASYNC_MUTATOR_METHODS: Tuple[str, ...] = (
    "add", "admit", "append", "appendleft", "apply", "clear", "discard",
    "extend", "insert", "pop", "popleft", "remove", "setdefault", "update",
)

#: RL007 import layering.  A module may import only modules whose layer
#: is <= its own.  Matching is longest-dotted-prefix, with exact module
#: names taking precedence over package prefixes — that is how
#: ``repro.sim.offsets``/``repro.sim.sporadic`` (the scalar twins built
#: *on top of* ``repro.search``) and the ``repro.sim`` package
#: ``__init__`` that re-exports them sit above the rest of their
#: package.  Function-body imports are exempt (the sanctioned
#: cycle-breaker).
LAYERS: Dict[str, int] = {
    "repro.util": 0,
    "repro.lint": 0,          # imports nothing from the rest of the tree
    "repro.model": 1,
    "repro.fpga": 2,
    "repro.gen": 2,
    "repro.core": 3,
    "repro.sched": 4,
    "repro.mp": 4,
    "repro.sim": 5,
    "repro.vector": 6,
    "repro.search": 7,
    "repro.sim.offsets": 7,   # scalar twin of repro.search.drivers
    "repro.sim.sporadic": 7,  # scalar twin of repro.search.drivers
    "repro.sim.__init__": 7,  # re-exports the twins
    "repro.incremental": 8,
    "repro.experiments": 9,
    "repro.service": 9,       # admission service atop incremental
    "repro.__init__": 9,      # the public facade re-exports from everywhere
}


def module_matches(modname: str, entries: Iterable[str]) -> bool:
    """True when ``modname`` equals or lives under any dotted prefix."""
    for entry in entries:
        if modname == entry or modname.startswith(entry + "."):
            return True
    return False


def layer_of(modname: str) -> Optional[int]:
    """RL007 layer for ``modname`` (longest dotted-prefix match).

    A package's ``__init__`` can be pinned separately from the package
    prefix via an explicit ``"pkg.__init__"`` entry.  Returns ``None``
    for modules outside the table (they are not layered).
    """
    if modname + ".__init__" in LAYERS:
        # Exact __init__ pin: only when modname names the package itself.
        return LAYERS[modname + ".__init__"]
    parts = modname.split(".")
    for i in range(len(parts), 0, -1):
        prefix = ".".join(parts[:i])
        if prefix in LAYERS:
            return LAYERS[prefix]
    return None
