"""``python -m repro.lint`` / ``repro-lint`` command line.

Exit codes: 0 clean, 1 findings, 2 usage or I/O error — so CI can gate
on the process status alone while archiving the machine-readable
report (``--output lint-report.json``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.lint.effects import effects_report
from repro.lint.engine import build_project_for, lint_paths
from repro.lint.reporters import render_json, text_report
from repro.lint.rules import RULES

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _rule_catalogue() -> str:
    lines = []
    for rule_id in sorted(RULES):
        cls = RULES[rule_id]
        lines.append(f"{rule_id}  {cls.name}")
        lines.append(f"       {cls.summary}")
    lines.append("RL008  unused-suppression")
    lines.append("       a disable pragma that no finding matches (meta-rule)")
    lines.append("RL009  parse-error")
    lines.append("       a file the parser rejects cannot be checked")
    return "\n".join(lines)


def _parse_ids(value: str) -> List[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant linter for the repo's kernel-purity, "
            "backend, and determinism contracts."
        ),
        epilog=(
            "suppress a deliberate exception in-source with "
            "'# repro-lint: disable=RLxxx -- reason' (same line or the "
            "line above) or '# repro-lint: disable-file=RLxxx -- reason'; "
            "unused pragmas are themselves findings (RL008)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the JSON report to FILE (any --format)",
    )
    parser.add_argument(
        "--select",
        type=_parse_ids,
        metavar="RLxxx[,RLxxx...]",
        help="run only these rules",
    )
    parser.add_argument(
        "--ignore",
        type=_parse_ids,
        metavar="RLxxx[,RLxxx...]",
        help="skip these rules",
    )
    parser.add_argument(
        "--effects",
        action="store_true",
        help=(
            "instead of linting, print the inferred effect summary "
            "(JSON) for every public repro.* function and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _emit(text: str) -> None:
    # A closed stdout (``repro-lint ... | head``) is not a lint failure;
    # repoint stdout at devnull so the interpreter's shutdown flush does
    # not raise a second BrokenPipeError.
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _emit(_rule_catalogue() + "\n")
        return EXIT_CLEAN
    if args.effects:
        try:
            summary, _ = build_project_for(args.paths)
            report = effects_report(summary)
        except (FileNotFoundError, ValueError, OSError) as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        _emit(report)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(report)
            except OSError as exc:
                print(f"repro-lint: error: {exc}", file=sys.stderr)
                return EXIT_ERROR
        return EXIT_CLEAN
    try:
        result = lint_paths(
            args.paths,
            select=args.select,
            ignore=args.ignore,
        )
    except (FileNotFoundError, ValueError, OSError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        _emit(render_json(result))
    else:
        _emit(text_report(result) + "\n")
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(render_json(result))
        except OSError as exc:
            print(f"repro-lint: error: {exc}", file=sys.stderr)
            return EXIT_ERROR
    return EXIT_CLEAN if result.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
