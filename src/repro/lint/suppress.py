"""``# repro-lint:`` suppression pragmas.

Three forms, parsed from raw source lines (comments never reach the
AST):

* same-line — ``x = thing()  # repro-lint: disable=RL004 -- why``
  suppresses matching findings reported *on that line*;
* standalone — a comment-only line suppresses the next source line
  (for statements too long to carry a trailing comment);
* file-level — ``# repro-lint: disable-file=RL001 -- why`` anywhere in
  the file suppresses the rule for the whole file.

Several IDs may share one pragma (``disable=RL001,RL004``).  The
``-- reason`` is optional but conventional; reviews should expect one.

Every ``(pragma, rule-id)`` entry must suppress at least one finding or
it is itself reported as RL008 (unused suppression) at the pragma's
line — exemptions cannot outlive the code they excuse.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.lint.findings import Finding

PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>disable|disable-file)\s*=\s*"
    r"(?P<ids>RL\d{3}(?:\s*,\s*RL\d{3})*)"
    r"(?:\s+--\s+(?P<reason>.*\S))?\s*$"
)

#: The unused-suppression meta-rule's ID.  It cannot itself be
#: suppressed — a pragma for RL008 is just another unused pragma.
UNUSED_SUPPRESSION_ID = "RL008"


@dataclass
class Suppression:
    """One ``(pragma line, rule id)`` suppression entry."""

    rule: str
    pragma_line: int          # line the comment sits on (1-based)
    file_level: bool
    reason: Optional[str]
    #: line whose findings this entry suppresses (ignored if file_level)
    target_line: int = 0
    used: bool = field(default=False, compare=False)

    def matches(self, finding: Finding) -> bool:
        if finding.rule != self.rule:
            return False
        return self.file_level or finding.line == self.target_line


def collect_suppressions(source: str) -> List[Suppression]:
    """Parse every pragma comment in ``source``.

    Real ``COMMENT`` tokens only — pragma-shaped text inside a docstring
    or string literal (this module's own documentation, say) is not a
    pragma.
    """
    out: List[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return out  # the engine already reported a parse error
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        m = PRAGMA_RE.search(tok.string)
        if m is None:
            continue
        lineno, col = tok.start
        file_level = m.group("kind") == "disable-file"
        # A comment-only line targets the next line; a trailing comment
        # targets its own line.
        standalone = tok.line[:col].strip() == ""
        target = lineno + 1 if standalone else lineno
        reason = m.group("reason")
        for rule_id in re.split(r"\s*,\s*", m.group("ids")):
            out.append(
                Suppression(
                    rule=rule_id,
                    pragma_line=lineno,
                    file_level=file_level,
                    reason=reason,
                    target_line=target,
                )
            )
    return out


def apply_suppressions(
    findings: List[Finding],
    suppressions: List[Suppression],
    path: str,
    *,
    checked_rules: Optional[Set[str]] = None,
    report_unused: bool = True,
) -> List[Finding]:
    """Drop suppressed findings; append RL008 for unused pragma entries.

    Returns the reportable findings (sorted).  ``findings`` must all
    belong to ``path``.  A pragma whose rule was not *run* this
    invocation (not in ``checked_rules``, e.g. deselected via
    ``--select``) cannot be proven unused and is never flagged; pass
    ``report_unused=False`` to disable RL008 entirely (RL008 itself
    deselected).
    """
    kept: List[Finding] = []
    for f in findings:
        suppressed = False
        for s in suppressions:
            if s.matches(f):
                s.used = True
                suppressed = True
                # Keep scanning: duplicate pragmas for the same rule/line
                # should all count as used rather than flag each other.
        if not suppressed:
            kept.append(f)
    if not report_unused:
        return sorted(kept)
    for s in suppressions:
        if checked_rules is not None and s.rule not in checked_rules:
            continue
        if not s.used:
            scope = "file-level " if s.file_level else ""
            kept.append(
                Finding(
                    path=path,
                    line=s.pragma_line,
                    col=0,
                    rule=UNUSED_SUPPRESSION_ID,
                    message=(
                        f"unused {scope}suppression of {s.rule}: no {s.rule} "
                        f"finding matches this pragma; remove it"
                    ),
                )
            )
    return sorted(kept)
