"""Static design-rule checking and physics sanitization.

The paper's results rest on invariants the code must never silently
break: collision rules conserve mass and momentum (§2), design formulas
respect the pin/area constraint algebra (§4–6), and pebble-game moves
obey the legality rules (§7).  This package enforces them at two layers:

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
  AST-based lint engine with repo-specific design rules (``RPR001`` …),
  run as ``repro lint``;
* :mod:`repro.analysis.sanitizer` + :mod:`repro.analysis.invariants` —
  a runtime harness that exhaustively verifies collision tables,
  replays pebbling schedules through the legality-checking game, and
  cross-checks the closed-form throughput formulas against the engine
  simulators, run as ``repro sanitize``.

See ``docs/LINT_RULES.md`` for the rule catalog.
"""

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.engine import LintEngine, LintReport, lint_paths
from repro.analysis.invariants import CheckResult
from repro.analysis.sanitizer import available_checks, run_checks

__all__ = [
    "Diagnostic",
    "Severity",
    "LintEngine",
    "LintReport",
    "lint_paths",
    "CheckResult",
    "available_checks",
    "run_checks",
]
