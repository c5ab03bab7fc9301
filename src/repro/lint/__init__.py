"""AST-based invariant linter for the reproduction's contracts.

Every parity guarantee this repo rests on — bit-identical verdicts vs.
the scalar reference, the :mod:`repro.vector.xp` rule that no kernel
imports numpy directly, lazy-only torch imports, float64 pinning
at batch boundaries, host-side seeded sampling — is a *structural*
property of the source.  This package turns those prose contracts
(ROADMAP.md "Array backends", the module docstrings of
:mod:`repro.core` and :mod:`repro.vector`) into machine-checked rules
over the Python AST, gated in CI.

The per-module rules (RL001–RL007) read one file at a time; the
transitive rules (RL010–RL013) consume a whole-program pass that builds
the project call graph (:mod:`repro.lint.callgraph`), seeds per-function
effect sets over {RNG, WALL_CLOCK, HOST_SYNC, DEVICE_TRANSFER,
STATE_MUTATION}, and propagates them to a deterministic fixpoint
(:mod:`repro.lint.effects`) — so a draw or a stall buried behind any
chain of helpers is still caught, with the witness chain in the message.

Usage::

    PYTHONPATH=src python -m repro.lint src            # lint the tree
    PYTHONPATH=src python -m repro.lint src --jobs 4   # parallel pass 2
    PYTHONPATH=src python -m repro.lint --effects src  # effect summary
    PYTHONPATH=src python -m repro.lint --list-rules   # rule catalogue

Rules (see :mod:`repro.lint.rules` and the README "Invariants & lint"
section for the contract each one enforces):

====== =====================================================================
RL001  no direct numpy import inside ``repro.vector`` (only ``xp.py``)
RL002  no module-top-level optional array-library import (lazy-only)
RL003  no RNG construction/draws outside the sampler/generation modules
RL004  no ``float32`` outside pragma-annotated pin sites in ``repro.vector``
RL005  no implicit host-device sync inside kernel pass loops
RL006  no wall-clock calls under ``src/repro`` (benchmarks live outside)
RL007  import layering between the ``repro.*`` packages
RL008  unused ``# repro-lint: disable=`` suppression (meta-rule)
RL009  parse error (meta-rule; an unreadable file cannot be checked)
RL010  no call chain from kernel code reaches an RNG draw (closes RL003)
RL011  no call chain from a fused pass loop reaches host sync (closes RL005)
RL012  no call chain under ``repro.*`` reaches a wall clock (closes RL006)
RL013  no await-straddling state mutation in ``repro.service`` coroutines
====== =====================================================================

Deliberate exceptions are annotated in-source::

    x = backend.float32  # repro-lint: disable=RL004 -- reason

A pragma that stops matching any finding is itself reported (RL008), so
exemptions cannot silently outlive the code they excuse.

This package imports only :mod:`repro.util` from the rest of ``repro``
(it sits at the bottom of the RL007 layering, next to ``repro.util``,
whose ``parallel_map`` drives ``--jobs``) and has no third-party
dependencies, so it is importable in any environment the test suite
runs in.
"""

from repro.lint.effects import ProjectSummary, effects_report
from repro.lint.engine import (
    LintResult,
    build_project_for,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.findings import Finding
from repro.lint.rules import RULES, Rule, all_rule_ids

__all__ = [
    "Finding",
    "LintResult",
    "ProjectSummary",
    "RULES",
    "Rule",
    "all_rule_ids",
    "build_project_for",
    "effects_report",
    "lint_file",
    "lint_paths",
    "lint_source",
]
