"""The package needs nothing beyond the standard library, and its source
follows the rules that keep the layers apart."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

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


def _parsed_modules(*directories):
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8"))


def test_no_library_or_test_module_imports_the_benchmark():
    """perfbench imports the library, never the other way round, so the
    library and its tests stay runnable without the benchmark."""
    bench = {"perfbench"} | {path.stem for path in (ROOT / "perfbench").glob("*.py")}
    imports = []
    for path, tree in _parsed_modules("src", "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imports += [f"{path}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] in bench]
    assert imports == []


def _dotted(node) -> list | None:
    """``["a", "b", "c"]`` for the expression ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else None


def _benchmark_references() -> set:
    """Every library name the benchmark reads, as ``module.attribute...``:
    the modules of ``from policylab import``, their attributes, ``(owner,
    "name")`` pairs such as the traced ones, and ``from policylab.x import``
    names."""
    references = set()
    for _, tree in _parsed_modules("perfbench"):
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "policylab":
                modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
                references.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("policylab."):
                module = node.module.removeprefix("policylab.")
                references.update(f"{module}.{alias.name}" for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                chain = _dotted(node)
            elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and isinstance(node.elts[1], ast.Constant)
                  and isinstance(node.elts[1].value, str)):
                chain = _dotted(node.elts[0])
                chain = chain and [*chain, node.elts[1].value]
            else:
                continue
            if chain and chain[0] in modules:
                references.add(".".join([modules[chain[0]], *chain[1:]]))
    return references


def _resolves(reference: str) -> bool:
    module, *attributes = reference.split(".")
    try:
        value = importlib.import_module(f"policylab.{module}")
    except ImportError:
        return False
    for attribute in attributes:
        if not hasattr(value, attribute):
            return False
        value = getattr(value, attribute)
    return True


def test_every_library_name_the_benchmark_reads_exists():
    """The benchmark changes less often than the library, so a library
    name it still reads must not go away; read from its source, never
    imported."""
    if not (ROOT / "perfbench").is_dir():
        pytest.skip("no benchmark in this checkout")
    references = _benchmark_references()
    assert {"simworld.serialize_scenario", "planner.backchain",
            "metrics.GedCostModel.edge_group_cost", "core.Goal"} <= references
    assert sorted(ref for ref in references if not _resolves(ref)) == []


def test_no_module_defines_or_calls_the_retired_skill_queries():
    """``skill_status`` is the one skill question of the tick protocol."""
    retired = {"skill_running", "skill_result"}
    uses = [f"{path}:{node.lineno}" for path, tree in _parsed_modules("src", "tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in retired
            or isinstance(node, ast.Attribute) and node.attr in retired
            or isinstance(node, ast.Name) and node.id in retired]
    assert uses == []
