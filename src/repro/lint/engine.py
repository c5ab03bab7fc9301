"""Lint engine: file discovery, module naming, two-pass rule dispatch.

Module names are derived from the filesystem (walking up the
``__init__.py`` chain), so ``python -m repro.lint src`` scopes every
rule correctly no matter the working directory.  Tests that lint
fixture snippets *as if* they lived at a given dotted path use
:func:`lint_source` with an explicit ``modname``.

Since the transitive rules landed the engine runs two passes over a
tree: pass 1 parses every file once and builds the whole-program
:class:`~repro.lint.effects.ProjectSummary` (declarations, call edges,
effect fixpoint — see :mod:`repro.lint.callgraph` /
:mod:`repro.lint.effects`); pass 2 lints each file against that
summary, one file after another, and the findings are sorted at the
end.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint import effects
from repro.lint.effects import ProjectSummary
from repro.lint.findings import Finding
from repro.lint.rules import RULES, ModuleContext, all_rule_ids
from repro.lint.suppress import (
    UNUSED_SUPPRESSION_ID,
    apply_suppressions,
    collect_suppressions,
)

#: Pseudo-rule for files the parser rejects: an unparsable file cannot
#: be checked, which is itself a finding (and never suppressible —
#: pragmas live in source we could not read structurally).
PARSE_ERROR_ID = "RL009"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict:
        out: dict = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.files_checked += other.files_checked


def module_name_for(path: str) -> str:
    """Dotted module name by walking up the ``__init__.py`` chain.

    ``src/repro/vector/xp.py`` -> ``repro.vector.xp``;
    ``src/repro/sim/__init__.py`` -> ``repro.sim``.  A file outside any
    package keeps its bare stem (scoped rules then simply never match).
    """
    path = os.path.abspath(path)
    stem = os.path.splitext(os.path.basename(path))[0]
    parts = [] if stem == "__init__" else [stem]
    d = os.path.dirname(path)
    while os.path.isfile(os.path.join(d, "__init__.py")):
        parts.insert(0, os.path.basename(d))
        parent = os.path.dirname(d)
        if parent == d:
            break
        d = parent
    return ".".join(parts) or stem


def _selected_rules(
    select: Optional[Iterable[str]], ignore: Optional[Iterable[str]]
) -> Tuple[List[str], Set[str]]:
    """Validate and resolve a selection.

    Both ``select`` and ``ignore`` must name known rule IDs (including
    the RL008/RL009 meta-rules) — an unknown ID in either is a
    :class:`ValueError`, not a silent no-op.  Returns ``(run_ids,
    active)``: the registered rules to execute, and the full active ID
    set (meta-rules included) the engine gates its own reporting on.
    """
    known = set(all_rule_ids())
    active: Set[str] = set(select) if select else set(known)
    unknown = active - known
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    if ignore:
        ignored = set(ignore)
        unknown = ignored - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}"
            )
        active -= ignored
    return sorted(active & set(RULES)), active


def _single_module_project(
    tree: ast.Module, modname: str, is_package: bool
) -> ProjectSummary:
    return effects.build_project([(modname, tree, is_package)])


def lint_source(
    source: str,
    modname: str,
    path: str = "<string>",
    *,
    is_package: bool = False,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: Optional[ProjectSummary] = None,
) -> LintResult:
    """Lint one source blob under an explicit module identity.

    Without an explicit ``project`` the blob is its own whole program
    (a single-module summary is built from it), so fixture snippets
    exercise the transitive rules self-contained.
    """
    run_ids, active = _selected_rules(select, ignore)
    result = LintResult(files_checked=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        if PARSE_ERROR_ID in active:
            result.findings.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule=PARSE_ERROR_ID,
                    message=f"syntax error: {exc.msg}",
                )
            )
        return result
    if project is None:
        project = _single_module_project(tree, modname, is_package)
    lines = source.splitlines()
    ctx = ModuleContext(
        path=path,
        modname=modname,
        tree=tree,
        source_lines=lines,
        is_package=is_package,
        project=project,
    )
    raw: List[Finding] = []
    for rule_id in run_ids:
        raw.extend(RULES[rule_id]().check(ctx))
    result.findings = apply_suppressions(
        raw,
        collect_suppressions(source),
        path,
        checked_rules=set(run_ids),
        report_unused=UNUSED_SUPPRESSION_ID in active,
    )
    return result


def lint_file(
    path: str,
    modname: Optional[str] = None,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    project: Optional[ProjectSummary] = None,
) -> LintResult:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    if modname is None:
        modname = module_name_for(path)
    return lint_source(
        source,
        modname,
        path=path,
        is_package=os.path.basename(path) == "__init__.py",
        select=select,
        ignore=ignore,
        project=project,
    )


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, files in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs if d not in ("__pycache__", ".git")
                )
                out.extend(
                    os.path.join(root, f)
                    for f in sorted(files)
                    if f.endswith(".py")
                )
        elif p.endswith(".py"):
            out.append(p)
        else:
            raise FileNotFoundError(f"not a .py file or directory: {p}")
    return out


def build_project_for(paths: Sequence[str]) -> Tuple[ProjectSummary, int]:
    """Pass 1 over ``paths``: parse every discovered file and build the
    whole-program summary.  Unparsable files are skipped here (pass 2
    reports them as RL009).  Returns ``(summary, files_discovered)``.
    """
    modules: List[Tuple[str, ast.Module, bool]] = []
    files = discover_files(paths)
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        modules.append(
            (
                module_name_for(path),
                tree,
                os.path.basename(path) == "__init__.py",
            )
        )
    return effects.build_project(modules), len(files)


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint every ``.py`` file under ``paths``; findings sorted."""
    _, active = _selected_rules(select, ignore)  # validate up front
    project, _ = build_project_for(paths)
    result = LintResult()
    for path in discover_files(paths):
        result.extend(lint_file(path, select=active, project=project))
    result.findings.sort()
    return result
