"""Rule plumbing: the module-under-check context and the rule base class.

Each design rule is a small class with a stable id (``RPR001`` …), a
severity, and an optional *scope* — the set of package directory names
it applies to.  Scoping is by path component, so a rule scoped to
``("core",)`` fires on ``src/repro/core/wsa.py`` and on a test fixture
``fixtures/core/bad.py`` alike.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import PurePath
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["ModuleUnderCheck", "Rule"]


@dataclass(frozen=True)
class ModuleUnderCheck:
    """A parsed source file handed to each rule.

    Attributes
    ----------
    path:
        Display path (used in diagnostics and for scope matching).
    source:
        Raw file text.
    tree:
        The parsed :class:`ast.Module`.
    """

    path: str
    source: str
    tree: ast.Module

    @property
    def path_parts(self) -> tuple[str, ...]:
        """Path components, for scope matching."""
        return PurePath(self.path).parts

    @property
    def is_package_init(self) -> bool:
        """Whether this file is a package ``__init__.py``."""
        return PurePath(self.path).name == "__init__.py"


class Rule(ABC):
    """Base class for design rules.

    Class attributes
    ----------------
    id:
        Stable identifier (``RPR001`` …) used in diagnostics, ``--select``
        and ``--ignore``.
    title:
        Short human-readable name (shown by ``repro lint --list-rules``).
    severity:
        Default :class:`Severity` for this rule's findings.
    scopes:
        Directory names the rule is restricted to, or ``None`` for all
        files.
    explanation:
        Long-form rationale shown by ``repro lint --explain <id>``;
        empty means the title is all there is to say.
    """

    id: str = "RPR000"
    title: str = "unnamed rule"
    severity: Severity = Severity.ERROR
    scopes: tuple[str, ...] | None = None
    explanation: str = ""

    def applies_to(self, module: ModuleUnderCheck) -> bool:
        """Whether this rule should run on ``module`` (scope check)."""
        if self.scopes is None:
            return True
        return bool(set(self.scopes) & set(module.path_parts))

    @abstractmethod
    def check(self, module: ModuleUnderCheck) -> Iterator[Diagnostic]:
        """Yield diagnostics for every violation in ``module``."""

    def diagnostic(
        self, module: ModuleUnderCheck, node: ast.AST, message: str
    ) -> Diagnostic:
        """Build a :class:`Diagnostic` anchored at ``node``."""
        return Diagnostic(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            severity=self.severity,
            message=message,
        )
