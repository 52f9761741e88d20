"""Engine-level tests: discovery, parsing, aggregation, rule selection."""

from pathlib import Path

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.engine import LintEngine, iter_python_files, lint_paths
from repro.analysis.rules import ALL_RULES, get_rules

FIXTURES = Path(__file__).parent / "fixtures"


class TestDiscovery:
    def test_finds_fixture_files(self):
        files = iter_python_files([FIXTURES])
        names = {f.name for f in files}
        assert "bad_defaults.py" in names
        assert "bad_float_eq.py" in names
        assert "clean.py" in names

    def test_single_file(self):
        files = iter_python_files([FIXTURES / "bad_except.py"])
        assert len(files) == 1

    def test_deduplicates_overlapping_paths(self):
        files = iter_python_files([FIXTURES, FIXTURES / "bad_except.py"])
        assert len(files) == len(set(files))

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files([FIXTURES / "no_such_dir"])

    def test_deterministic_order(self):
        assert iter_python_files([FIXTURES]) == iter_python_files([FIXTURES])


class TestEngine:
    def test_syntax_error_becomes_rpr000(self):
        engine = LintEngine()
        found = engine.lint_source("def broken(:\n", "oops.py")
        assert len(found) == 1
        assert found[0].rule == "RPR000"
        assert found[0].severity is Severity.ERROR

    def test_clean_fixture_has_no_findings(self):
        report = lint_paths([FIXTURES / "core" / "clean.py"])
        assert report.diagnostics == ()
        assert report.exit_code == 0

    def test_fixture_tree_fails(self):
        report = lint_paths([FIXTURES])
        assert report.exit_code == 1
        assert report.error_count > 0

    def test_diagnostics_sorted(self):
        report = lint_paths([FIXTURES])
        keys = [d.sort_key() for d in report.diagnostics]
        assert keys == sorted(keys)

    def test_files_checked_counts_all(self):
        report = lint_paths([FIXTURES])
        assert report.files_checked == len(iter_python_files([FIXTURES]))


class TestRuleRegistry:
    def test_ids_unique_and_ordered(self):
        # Ids are unique and sorted but not contiguous: retired ids are
        # never reused.
        ids = [r.id for r in ALL_RULES]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert ids == ["RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR103"]

    def test_select_subset(self):
        rules = get_rules(select=["RPR001", "RPR005"])
        assert [r.id for r in rules] == ["RPR001", "RPR005"]

    def test_ignore_subset(self):
        rules = get_rules(ignore=["RPR003"])
        assert "RPR003" not in [r.id for r in rules]

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown rule id"):
            get_rules(select=["RPR999"])

    def test_select_flows_through_lint_paths(self):
        report = lint_paths([FIXTURES], select=["RPR005"])
        assert {d.rule for d in report.diagnostics} == {"RPR005"}
