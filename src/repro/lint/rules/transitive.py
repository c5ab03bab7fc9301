"""Transitive (whole-program) rules: RL010 and RL012.

These consume the pass-1 :class:`~repro.lint.effects.ProjectSummary` on
``ctx.project``: each rule re-resolves the current module's call sites
against the project's declaration tables (via
:class:`~repro.lint.callgraph.ModuleResolver`, cached per module on the
context) and flags the *call site* whose callee carries a banned effect
— with a deterministic witness chain down to the seeding function, so
the finding explains the path the per-module rules cannot see.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.lint import config
from repro.lint.callgraph import ModuleResolver
from repro.lint.effects import ProjectSummary, render_chain
from repro.lint.findings import Finding
from repro.lint.rules import ModuleContext, Rule, register


def get_resolver(ctx: ModuleContext) -> Optional[ModuleResolver]:
    """The module's resolved call sites, built once and cached on the
    context (RL010 and RL012 share it)."""
    if ctx.project is None:
        return None
    if ctx.resolver is None:
        ctx.resolver = ModuleResolver(
            ctx.tree,
            ctx.modname,
            ctx.is_package,
            ctx.project.functions,
            ctx.project.classes,
        )
    return ctx.resolver


@register
class TransitiveRngIntoKernel(Rule):
    """RL010 — RNG must not *reach* kernel code through any call chain.

    RL003 flags the draw site itself; a draw buried two helpers deep
    was invisible to it.  This rule flags every call, in kernel modules
    outside the sampler allowlist, whose callee's fixpoint effect set
    contains ``RNG`` — the helper chain is named in the message.  The
    documented host-side samplers (``config.RNG_SANCTIONED_FUNCTIONS``)
    neither seed the effect nor are their own call sites checked.
    """

    id = "RL010"
    name = "transitive-rng-into-kernel"
    summary = (
        "no call chain from repro.vector kernel code reaches an RNG "
        "draw (whole-program closure of RL003)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SRC_NAMESPACE):
            return
        if not config.module_matches(ctx.modname, config.KERNEL_PACKAGES):
            return
        if config.module_matches(ctx.modname, config.RNG_ALLOWED_MODULES):
            return
        resolver = get_resolver(ctx)
        if resolver is None:
            return
        project: ProjectSummary = ctx.project  # type: ignore[assignment]
        for call, caller, callee in resolver.call_sites():
            if caller in config.RNG_SANCTIONED_FUNCTIONS:
                continue
            if "RNG" in project.effects_of(callee):
                yield self.finding(
                    ctx,
                    call,
                    f"call from kernel code reaches an RNG draw via "
                    f"{render_chain(project, callee, 'RNG')}; sample "
                    f"host-side before the batch boundary (RL003's "
                    f"transitive closure)",
                )


@register
class TransitiveWallClock(Rule):
    """RL012 — wall-clock influence must not spread past the clock shim.

    RL006 flags a direct ``time.*`` read; a pragma-excused (or merely
    unscoped) timing helper would still leak nondeterminism into every
    caller.  This rule flags any call, anywhere under ``repro.*``
    except ``repro.service.clock``, whose callee's effect set contains
    ``WALL_CLOCK`` — so a clock read can be excused locally but never
    inherited silently.
    """

    id = "RL012"
    name = "transitive-wall-clock"
    summary = (
        "no call chain under repro.* (repro.service.clock excepted) "
        "reaches a wall-clock read (closure of RL006)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SRC_NAMESPACE):
            return
        if config.module_matches(
            ctx.modname, config.WALL_CLOCK_ALLOWED_MODULES
        ):
            return
        resolver = get_resolver(ctx)
        if resolver is None:
            return
        project: ProjectSummary = ctx.project  # type: ignore[assignment]
        for call, _caller, callee in resolver.call_sites():
            if "WALL_CLOCK" in project.effects_of(callee):
                yield self.finding(
                    ctx,
                    call,
                    f"call reaches a wall-clock read via "
                    f"{render_chain(project, callee, 'WALL_CLOCK')}; "
                    f"results must depend only on inputs and seeds — "
                    f"route timing through repro.service.clock or move "
                    f"it to benchmarks/",
                )
