"""Rule framework and registry.

A rule is a class with an ``id`` (``RLxxx``), a short ``name``, a
``summary`` (one line, shown by ``--list-rules``), and a
``check(ctx)`` generator yielding :class:`~repro.lint.findings.Finding`
objects.  Rules register themselves with :func:`register`; the engine
instantiates each registered rule once per linted module.

Shared AST helpers live here so rule modules stay small: dotted-name
extraction, import-alias resolution, and the module-scope walker that
distinguishes import-time code from function bodies (the lazy-import
escape hatch RL007 honours).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.callgraph import ModuleResolver
    from repro.lint.effects import ProjectSummary


@dataclass
class ModuleContext:
    """Everything a rule may look at for one module."""

    path: str
    modname: str
    tree: ast.Module
    source_lines: Sequence[str] = field(default_factory=list)
    #: True when the file is a package ``__init__.py`` (relative-import
    #: resolution differs: level 1 names the package itself).
    is_package: bool = False
    #: pass-1 whole-program summary (effect fixpoint + declaration
    #: tables) the transitive rules resolve this module against; the
    #: engine always supplies one (a single-module summary when linting
    #: an isolated source blob).
    project: Optional["ProjectSummary"] = None
    #: per-module resolved-call-site cache shared by the transitive
    #: rules (built lazily by the first one that needs it).
    resolver: Optional["ModuleResolver"] = field(
        default=None, repr=False, compare=False
    )


class Rule:
    """Base class; subclasses override :meth:`check`."""

    id: str = "RL000"
    name: str = "abstract"
    summary: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def all_rule_ids() -> List[str]:
    """Every reportable rule ID, including the engine/meta pseudo-rules."""
    from repro.lint.engine import PARSE_ERROR_ID
    from repro.lint.suppress import UNUSED_SUPPRESSION_ID

    return sorted(set(RULES) | {UNUSED_SUPPRESSION_ID, PARSE_ERROR_ID})


# -- shared AST helpers -----------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc": "time.perf_counter"}``.
    Only absolute imports are recorded (relative ones never alias the
    stdlib/third-party modules the determinism rules resolve).
    """
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for a in node.names:
                if a.name == "*":
                    continue
                out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def resolve_call_target(func: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted call target with the leading alias expanded.

    ``pc()`` -> ``time.perf_counter`` under
    ``from time import perf_counter as pc``; ``t.monotonic()`` ->
    ``time.monotonic`` under ``import time as t``.
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return f"{expanded}.{rest}" if rest else expanded


def _is_type_checking_guard(node: ast.If) -> bool:
    test = node.test
    name = dotted_name(test)
    return name in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def module_scope_imports(
    tree: ast.Module,
) -> Iterator[Tuple[ast.stmt, bool]]:
    """Imports that execute at module import time.

    Yields ``(import_node, type_checking_guarded)``.  Recurses through
    top-level ``if``/``try``/``with`` and class bodies (all run at
    import), but never into function bodies — a function-body import is
    the sanctioned lazy escape hatch.
    """

    def walk(body: Sequence[ast.stmt], guarded: bool) -> Iterator[Tuple[ast.stmt, bool]]:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, guarded
            elif isinstance(node, ast.If):
                g = guarded or _is_type_checking_guard(node)
                yield from walk(node.body, g)
                yield from walk(node.orelse, guarded)
            elif isinstance(node, ast.Try):
                yield from walk(node.body, guarded)
                for handler in node.handlers:
                    yield from walk(handler.body, guarded)
                yield from walk(node.orelse, guarded)
                yield from walk(node.finalbody, guarded)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, guarded)
            elif isinstance(node, (ast.With,)):
                yield from walk(node.body, guarded)
    yield from walk(tree.body, False)


def imported_module_targets(
    node: ast.stmt, ctx: ModuleContext
) -> List[str]:
    """Absolute dotted module targets of one import statement.

    Relative imports are resolved against ``ctx.modname`` (a package
    ``__init__`` resolves level 1 to itself).  For ``from pkg import
    name`` both ``pkg`` and ``pkg.name`` are returned — statically,
    ``name`` may be a submodule.
    """
    targets: List[str] = []
    if isinstance(node, ast.Import):
        targets.extend(a.name for a in node.names)
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module or ""
        else:
            parts = ctx.modname.split(".")
            # level 1 inside a package __init__ is the package itself;
            # inside a plain module it is the containing package.
            drop = node.level - 1 if ctx.is_package else node.level
            if drop >= len(parts):
                parts = []
            elif drop:
                parts = parts[:-drop]
            base = ".".join(parts + ([node.module] if node.module else []))
        if base:
            targets.append(base)
            for a in node.names:
                if a.name != "*":
                    targets.append(f"{base}.{a.name}")
    return targets


# Populate the registry (import order fixes --list-rules grouping).
from repro.lint.rules import imports as _imports  # noqa: E402,F401
from repro.lint.rules import determinism as _determinism  # noqa: E402,F401
from repro.lint.rules import dtype as _dtype  # noqa: E402,F401
from repro.lint.rules import transitive as _transitive  # noqa: E402,F401
from repro.lint.rules import asyncatomic as _asyncatomic  # noqa: E402,F401

__all__ = [
    "ModuleContext",
    "RULES",
    "Rule",
    "all_rule_ids",
    "dotted_name",
    "import_aliases",
    "imported_module_targets",
    "module_scope_imports",
    "register",
    "resolve_call_target",
]
