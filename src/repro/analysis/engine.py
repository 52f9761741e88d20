"""The lint engine: file discovery, parsing, rule dispatch, reporting.

The engine is deliberately small: it finds Python files, parses each
one once, hands each AST to every applicable rule, filters inline
``# repro: noqa`` suppressions, and aggregates the findings into a
:class:`LintReport` with stable text and JSON renderings.  Unparseable
files produce an ``RPR000`` diagnostic rather than crashing the run,
so one broken fixture cannot hide findings in the rest of the tree.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import ALL_RULES, ModuleUnderCheck, Rule

__all__ = ["LintEngine", "LintReport", "iter_python_files", "lint_paths"]

#: Directories never descended into during discovery.
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".venv",
    "build",
    "dist",
    ".mypy_cache",
    ".pytest_cache",
    ".ruff_cache",
    ".hypothesis",
}

#: Directory suffixes never descended into (``<pkg>.egg-info`` trees).
_SKIP_SUFFIXES = (".egg-info",)

#: ``# repro: noqa`` or ``# repro: noqa[RPR001,RPR103]`` on the finding's line.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9,\s]*)\])?")


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises
    ------
    FileNotFoundError
        if a named path does not exist.
    """
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in _SKIP_DIRS and not d.endswith(_SKIP_SUFFIXES)
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(Path(dirpath) / name)
        elif path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(set(out))


def _noqa_rules_for_lines(source: str) -> dict[int, frozenset[str] | None]:
    """Map line number → suppressed rule ids (``None`` = all rules)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        ids = match.group(1)
        if ids is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                part.strip() for part in ids.split(",") if part.strip()
            )
    return out


def _apply_noqa(
    diagnostics: list[Diagnostic], source: str
) -> tuple[list[Diagnostic], int]:
    """Drop findings suppressed by ``# repro: noqa`` comments.

    Returns the kept findings and the number suppressed.
    """
    noqa = _noqa_rules_for_lines(source)
    if not noqa:
        return diagnostics, 0
    kept: list[Diagnostic] = []
    suppressed = 0
    for d in diagnostics:
        rules = noqa.get(d.line, frozenset())
        if rules is None or (rules and d.rule in rules):
            suppressed += 1
        else:
            kept.append(d)
    return kept, suppressed


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint run.

    Attributes
    ----------
    diagnostics:
        All findings, sorted by (path, line, col, rule).
    files_checked:
        Number of files parsed (including unparseable ones).
    suppressed:
        Findings silenced by inline ``# repro: noqa`` comments.
    """

    diagnostics: tuple[Diagnostic, ...]
    files_checked: int = 0
    suppressed: int = 0

    @property
    def error_count(self) -> int:
        """Findings at :attr:`Severity.ERROR`."""
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        """Findings at :attr:`Severity.WARNING`."""
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def exit_code(self) -> int:
        """Process exit code: 1 if any error-severity finding, else 0."""
        return 1 if self.error_count else 0

    def format_text(self) -> str:
        """The human-readable report (one line per finding + summary)."""
        lines = [d.format() for d in self.diagnostics]
        suffix = (
            f", {self.suppressed} suppressed" if self.suppressed else ""
        )
        lines.append(
            f"{self.files_checked} file(s) checked: "
            f"{self.error_count} error(s), {self.warning_count} warning(s)"
            f"{suffix}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form (schema version pinned by tests)."""
        return {
            "version": 2,
            "files_checked": self.files_checked,
            "summary": {
                "errors": self.error_count,
                "warnings": self.warning_count,
                "suppressed": self.suppressed,
                "total": len(self.diagnostics),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def format_json(self) -> str:
        """Deterministic JSON rendering (sorted keys, 2-space indent)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format_github(self) -> str:
        """GitHub Actions workflow-command annotations, one per finding."""
        lines = []
        for d in self.diagnostics:
            level = "error" if d.severity is Severity.ERROR else "warning"
            lines.append(
                f"::{level} file={d.path},line={d.line},col={d.col + 1},"
                f"title={d.rule}::{d.message}"
            )
        return "\n".join(lines)


@dataclass
class LintEngine:
    """Runs a rule set over source files.

    Parameters
    ----------
    rules:
        The rules to apply (default: every registered rule).
    """

    rules: Sequence[Rule] = field(default_factory=lambda: ALL_RULES)

    def _parse(
        self, source: str, path: str
    ) -> tuple[ast.Module | None, Diagnostic | None]:
        try:
            return ast.parse(source, filename=path), None
        except SyntaxError as exc:
            return None, Diagnostic(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="RPR000",
                severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
            )

    def _check_module(self, module: ModuleUnderCheck) -> list[Diagnostic]:
        found: list[Diagnostic] = []
        for rule in self.rules:
            if rule.applies_to(module):
                found.extend(rule.check(module))
        return found

    def lint_source(self, source: str, path: str) -> list[Diagnostic]:
        """Lint source text under a display path (used by tests/fixtures).

        Inline ``noqa`` suppressions are applied without being counted.
        """
        tree, parse_error = self._parse(source, path)
        if tree is None:
            assert parse_error is not None
            return [parse_error]
        module = ModuleUnderCheck(path=path, source=source, tree=tree)
        kept, _ = _apply_noqa(self._check_module(module), source)
        return kept

    def lint_file(self, path: str | Path) -> list[Diagnostic]:
        """Lint one file from disk."""
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        return self.lint_source(source, str(path))

    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint files and directories; returns the aggregated report."""
        files = iter_python_files(paths)
        diagnostics: list[Diagnostic] = []
        suppressed = 0
        for file_path in files:
            source = file_path.read_text(encoding="utf-8")
            tree, parse_error = self._parse(source, str(file_path))
            if tree is None:
                assert parse_error is not None
                diagnostics.append(parse_error)
                continue
            module = ModuleUnderCheck(path=str(file_path), source=source, tree=tree)
            kept, dropped = _apply_noqa(self._check_module(module), source)
            diagnostics.extend(kept)
            suppressed += dropped
        diagnostics.sort(key=Diagnostic.sort_key)
        return LintReport(
            diagnostics=tuple(diagnostics),
            files_checked=len(files),
            suppressed=suppressed,
        )


def lint_paths(
    paths: Iterable[str | Path],
    select: list[str] | None = None,
    ignore: list[str] | None = None,
) -> LintReport:
    """One-call convenience: lint ``paths`` with an optional rule subset."""
    from repro.analysis.rules import get_rules

    return LintEngine(rules=get_rules(select, ignore)).lint_paths(paths)
