"""The package needs nothing beyond the standard library."""

import subprocess
import sys
from pathlib import Path

import policylab

SRC = Path(policylab.__file__).resolve().parents[1]
ROOT = SRC.parent


def test_every_module_imports_from_the_standard_library_alone():
    modules = sorted(path.stem for path in (SRC / "policylab").glob("*.py")
                     if path.stem != "__init__")
    assert "cli" in modules and "simworld" in modules
    # -I ignores PYTHON* variables and the user site, -S skips site-packages:
    # the interpreter sees the standard library and src, nothing else
    code = ("import importlib, sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('policylab.' + name)\n"
            "assert not any('site-packages' in entry for entry in sys.path), sys.path\n")
    result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_pyproject_declares_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
