"""Import-shape rules: RL001 (kernel numpy purity), RL002 (lazy-only
optional array libraries), RL007 (package layering)."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import config
from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleContext,
    Rule,
    imported_module_targets,
    module_scope_imports,
    register,
)


@register
class KernelNumpyImport(Rule):
    """RL001 — the backend-pluggable kernels must not import numpy.

    Every kernel in ``repro.vector`` computes through the
    ``repro.vector.xp`` namespace; a direct numpy import (top-level *or*
    function-body — there is no lazy escape hatch here) forks the array
    namespace and breaks torch parity.  ``repro.vector.xp`` itself
    is the one sanctioned resolver; host-side numpy access goes through
    ``repro.vector.xp.host``.
    """

    id = "RL001"
    name = "kernel-numpy-import"
    summary = (
        "no direct numpy import inside repro.vector kernels "
        "(use the repro.vector.xp namespace; xp.host for host-side numpy)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not config.module_matches(ctx.modname, config.KERNEL_PACKAGES):
            return
        if config.module_matches(ctx.modname, config.NUMPY_ALLOWED_MODULES):
            return
        for node in ast.walk(ctx.tree):
            targets = []
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                targets = [node.module]
            for t in targets:
                if t == "numpy" or t.startswith("numpy."):
                    yield self.finding(
                        ctx,
                        node,
                        f"direct numpy import ({t!r}) in kernel module "
                        f"{ctx.modname}; kernels compute through "
                        f"repro.vector.xp (host-side numpy via xp.host)",
                    )


@register
class EagerAcceleratorImport(Rule):
    """RL002 — optional array libraries must import lazily.

    A module-top-level import of a library in
    ``config.LAZY_ONLY_LIBRARIES`` (e.g. ``import torch``) anywhere under
    ``src`` makes the tree unimportable without it installed.  Only
    ``repro.vector.xp`` resolves torch, inside the backend factory;
    ``if TYPE_CHECKING:`` blocks are exempt (they never execute).
    """

    id = "RL002"
    name = "eager-accelerator-import"
    summary = (
        "no module-top-level optional array-library import anywhere "
        "under src (lazy function-body imports only)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node, guarded in module_scope_imports(ctx.tree):
            if guarded:
                continue
            targets = []
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                targets = [node.module]
            for t in targets:
                root = t.split(".")[0]
                if root in config.LAZY_ONLY_LIBRARIES:
                    yield self.finding(
                        ctx,
                        node,
                        f"module-top-level import of optional accelerator "
                        f"{root!r}; it must resolve lazily inside a function "
                        f"body (see repro.vector.xp)",
                    )


@register
class ImportLayering(Rule):
    """RL007 — the ``repro.*`` packages import downward only.

    The layer table lives in :mod:`repro.lint.config` (``LAYERS``);
    a module may import modules at its own layer or below.  In
    particular ``repro.vector``/``repro.core`` must never import
    ``repro.experiments``, and ``repro.model`` imports nothing above
    it.  Only import-time (module/class scope) imports are layered —
    a function-body import is the sanctioned cycle-breaker.
    """

    id = "RL007"
    name = "import-layering"
    summary = (
        "repro.* packages import downward only (layer table in "
        "repro.lint.config.LAYERS); function-body imports exempt"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        my_layer = config.layer_of(ctx.modname)
        if my_layer is None:
            return
        for node, guarded in module_scope_imports(ctx.tree):
            if guarded:
                continue
            for target in imported_module_targets(node, ctx):
                if not (target == "repro" or target.startswith("repro.")):
                    continue
                t_layer = config.layer_of(target)
                if t_layer is not None and t_layer > my_layer:
                    yield self.finding(
                        ctx,
                        node,
                        f"{ctx.modname} (layer {my_layer}) imports {target} "
                        f"(layer {t_layer}) at module scope; higher-layer "
                        f"imports must move into a function body or the "
                        f"dependency must be inverted",
                    )
                    break  # one finding per import statement
