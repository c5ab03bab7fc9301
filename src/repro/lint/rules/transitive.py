"""Transitive (whole-program) rules: RL010, RL011, RL012.

These consume the pass-1 :class:`~repro.lint.effects.ProjectSummary` on
``ctx.project``: each rule re-resolves the current module's call sites
against the project's declaration tables (via
:class:`~repro.lint.callgraph.ModuleResolver`, cached per module on the
context) and flags the *call site* whose callee carries a banned effect
— with a deterministic witness chain down to the seeding function, so
the finding explains the path the per-module rules cannot see.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint import config
from repro.lint.callgraph import ModuleResolver
from repro.lint.effects import ProjectSummary, render_chain
from repro.lint.findings import Finding
from repro.lint.rules import ModuleContext, Rule, register

_LOOP_NODES = (
    ast.For,
    ast.While,
    ast.AsyncFor,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def get_resolver(ctx: ModuleContext) -> Optional[ModuleResolver]:
    """The module's resolved call sites, built once and cached on the
    context (RL010/011/012 share it)."""
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
class TransitiveHostSyncInLoop(Rule):
    """RL011 — no call chain from a fused pass loop reaches host sync.

    RL005 bans ``.item()``/``.cpu()``/``.tolist()``/zero-arg ``.get()``
    written *directly* inside ``sim_vec``/``placement_vec`` loops; the
    same stall hidden in a helper one frame away passed it.  This rule
    flags calls inside those loops whose callee's effect set contains
    ``HOST_SYNC``.
    """

    id = "RL011"
    name = "transitive-host-sync-in-loop"
    summary = (
        "no call chain from a sim_vec/placement_vec pass loop reaches "
        ".item()/.cpu()/.tolist()/zero-arg .get() (closure of RL005)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SYNC_SCOPED_MODULES):
            return
        resolver = get_resolver(ctx)
        if resolver is None:
            return
        project: ProjectSummary = ctx.project  # type: ignore[assignment]
        yield from self._walk(ctx, ctx.tree, 0, resolver, project)

    def _walk(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        loop_depth: int,
        resolver: ModuleResolver,
        project: ProjectSummary,
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            depth = loop_depth + (1 if isinstance(child, _LOOP_NODES) else 0)
            if depth > 0 and isinstance(child, ast.Call):
                callee = resolver.callee_of(child)
                if callee is not None and "HOST_SYNC" in project.effects_of(
                    callee
                ):
                    yield self.finding(
                        ctx,
                        child,
                        f"call inside a kernel pass loop reaches a "
                        f"host-device sync via "
                        f"{render_chain(project, callee, 'HOST_SYNC')}; "
                        f"hoist it to the batch boundary (xp.asnumpy)",
                    )
            yield from self._walk(ctx, child, depth, resolver, project)


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
