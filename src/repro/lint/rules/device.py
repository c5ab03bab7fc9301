"""RL005 — no implicit host-device sync inside kernel pass loops."""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.lint import config
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


@register
class HostSyncInKernelLoop(Rule):
    """RL005 — sync only at batch boundaries, never per event step.

    ``.item()``, ``.cpu()``, ``.tolist()`` and zero-arg ``.get()``
    (an array readback; ``d.get(key)`` dict lookups keep their argument
    and stay legal) each force a per-call readback.
    Inside the fused pass loops of ``sim_vec``/``placement_vec`` that
    turns one readback per pass into one stall per event — the exact
    overhead the fused-stepping refactor removed.  Backend values cross
    to numpy once per batch, via ``xp.asnumpy`` at the boundary.
    """

    id = "RL005"
    name = "host-sync-in-kernel-loop"
    summary = (
        "no .item()/.cpu()/.tolist()/zero-arg .get() inside "
        "sim_vec/placement_vec loops; host↔device sync only at batch "
        "boundaries via xp.asnumpy"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.SYNC_SCOPED_MODULES):
            return
        yield from self._walk(ctx, ctx.tree, loop_depth=0)

    def _walk(
        self, ctx: ModuleContext, node: ast.AST, loop_depth: int
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            depth = loop_depth + (1 if isinstance(child, _LOOP_NODES) else 0)
            if (
                depth > 0
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in config.HOST_SYNC_METHODS
            ):
                is_get = child.func.attr == "get"
                if not (is_get and (child.args or child.keywords)):
                    yield self.finding(
                        ctx,
                        child,
                        f".{child.func.attr}() inside a kernel pass loop "
                        f"forces a host-device sync per iteration; hoist it "
                        f"to the batch boundary (xp.asnumpy)",
                    )
            yield from self._walk(ctx, child, depth)
