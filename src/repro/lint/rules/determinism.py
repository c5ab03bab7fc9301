"""Determinism rules: RL003 (seeded-sampling discipline) and RL006
(no wall clocks in the analysis tree)."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import config
from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleContext,
    Rule,
    dotted_name,
    import_aliases,
    register,
    resolve_call_target,
)

@register
class RngOutsideSamplers(Rule):
    """RL003 — RNG construction/draws only in the sampler/generation layer.

    All randomness flows from seeds through
    ``repro.util.rngutil``-minted generators held by the samplers and
    generation modules (host-side, draw order pinned to the scalar
    reference).  Anywhere else — the vector kernels above all — code
    must be a deterministic function of its inputs: no ``default_rng``/
    ``RandomState``/``SeedSequence`` construction, no ``np.random.*``
    module-state draws, no stdlib ``random``.  Inside the strict kernel
    modules, draw-shaped method calls (``.uniform(...)``,
    ``.integers(...)`` …) are flagged too, so a generator object passed
    *into* a kernel cannot smuggle draws past the construction check.
    """

    id = "RL003"
    name = "rng-outside-samplers"
    summary = (
        "no RNG construction or global-state draws outside the "
        "allowlisted sampler/generation modules; strict kernels also "
        "reject draw-method calls"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SRC_NAMESPACE):
            return  # benchmarks/examples/scripts may draw ad hoc
        if config.module_matches(ctx.modname, config.RNG_ALLOWED_MODULES):
            return
        aliases = import_aliases(ctx.tree)
        strict = config.module_matches(ctx.modname, config.KERNEL_STRICT_MODULES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "random" or a.name.startswith("random."):
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib 'random' import outside the sampler "
                            "modules; use a seeded numpy Generator from "
                            "repro.util.rngutil in an allowlisted module",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module:
                    root = node.module.split(".")[0]
                    if root == "random":
                        yield self.finding(
                            ctx,
                            node,
                            "stdlib 'random' import outside the sampler "
                            "modules; use a seeded numpy Generator from "
                            "repro.util.rngutil in an allowlisted module",
                        )
            elif isinstance(node, ast.Call):
                target = resolve_call_target(node.func, aliases)
                if target is None:
                    continue
                tail = target.split(".")[-1]
                if tail in config.RNG_CONSTRUCTORS:
                    yield self.finding(
                        ctx,
                        node,
                        f"RNG construction ({tail}) outside the sampler "
                        f"modules; seed handling belongs in "
                        f"repro.util.rngutil / the generation layer",
                    )
                elif ".random." in f".{target}" and target.startswith(
                    ("numpy.random.", "random.")
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"global-RNG-state draw ({target}) outside the "
                        f"sampler modules; draws must come from an "
                        f"explicitly passed seeded Generator",
                    )
                elif strict and tail in config.RNG_DRAW_METHODS:
                    yield self.finding(
                        ctx,
                        node,
                        f"draw-shaped call (.{tail}(...)) inside strict "
                        f"kernel module {ctx.modname}; kernels must be "
                        f"deterministic — sample host-side before the "
                        f"batch boundary",
                    )


@register
class WallClockCall(Rule):
    """RL006 — nothing under ``src/repro`` reads a wall clock.

    Analysis results must be a function of inputs and seeds alone.
    Timing lives in ``benchmarks/`` (pytest-benchmark, outside ``src``);
    a clock read inside the library would smuggle nondeterminism into
    results.
    """

    id = "RL006"
    name = "wall-clock-call"
    summary = (
        "no wall-clock reads (time.time/perf_counter/monotonic, "
        "timeit.default_timer) under src/repro; timing belongs in "
        "benchmarks/"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SRC_NAMESPACE):
            return  # timing belongs in benchmarks/ — outside repro.*
        if config.module_matches(ctx.modname, config.WALL_CLOCK_ALLOWED_MODULES):
            return
        banned = {f"{mod}.{attr}" for mod, attr in config.WALL_CLOCK_CALLS}
        aliases = import_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node.func, aliases)
            if target in banned:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read ({target}) in the analysis tree; "
                    f"results must depend only on inputs and seeds — time "
                    f"things in benchmarks/ instead",
                )
