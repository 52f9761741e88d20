"""Package-level contracts: version, exports, subpackage imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.lattice",
    "repro.lgca",
    "repro.engines",
    "repro.pebbling",
    "repro.util",
]


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackage_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        """Every name in __all__ actually exists — no stale exports."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_documented(self, name):
        """Every exported callable/class has a docstring."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if callable(obj):
                assert obj.__doc__, f"{name}.{symbol} lacks a docstring"

    def test_cli_importable(self):
        from repro.cli import build_parser

        assert build_parser().prog == "repro"

    def test_no_circular_imports(self):
        """core, engines, pebbling import cleanly in any order."""
        for order in (
            ["repro.pebbling", "repro.core", "repro.engines"],
            ["repro.engines", "repro.pebbling", "repro.core"],
        ):
            for name in order:
                importlib.reload(importlib.import_module(name))


def _modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after running ``code`` in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    return set(out.splitlines()[-1].split())


def _loaded(modules: set[str], *packages: str) -> list[str]:
    """The loaded modules that are, or are inside, one of ``packages``."""
    return sorted(m for m in modules for p in packages if m == p or m.startswith(p + "."))


class TestStartUpImports:
    """A verb pays at start-up only for what it runs (no SciPy anywhere)."""

    def test_simulate_leaves_scipy_out(self):
        loaded = _modules_after(
            "from repro.cli import main\n"
            "main(['simulate', '--rows', '8', '--cols', '8', '--steps', '1'])"
        )
        assert "repro.cli" in loaded
        assert _loaded(loaded, "scipy", "networkx") == []

    def test_worker_does_not_load_the_machine_registry(self):
        loaded = _modules_after("import repro.runtime.worker")
        assert "repro.runtime.worker" in loaded
        assert _loaded(
            loaded, "scipy", "repro.machines", "repro.core", "repro.resilience.campaign"
        ) == []
