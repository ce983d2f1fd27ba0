"""Every third-party module the code imports is declared in ``pyproject.toml``.

A clean ``pip install -e '.[test]'`` installs only what the project
declares, so an undeclared import works on a developer machine that happens
to have the package and fails on a fresh runner.  The package under
``src/`` must be covered by ``dependencies``; the test and benchmark suites
may additionally rely on the ``test`` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _declared(requirements) -> set:
    """Importable names of requirement strings (``scipy>=1.10`` -> scipy)."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower()
            .replace("-", "_") for req in requirements}


def _third_party_imports(*dirs: Path) -> dict:
    """Top-level third-party module -> first file importing it."""
    local = {"repro"} | {p.stem for d in dirs for p in d.glob("*.py")}
    found: dict = {}
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in sys.stdlib_module_names and top not in local:
                        found.setdefault(top, path.relative_to(ROOT))
    return found


def test_package_imports_are_declared_dependencies():
    declared = _declared(_project()["dependencies"])
    imports = _third_party_imports(ROOT / "src")
    assert {"numpy", "networkx", "scipy"} <= set(imports)
    missing = {m: str(f) for m, f in imports.items() if m not in declared}
    assert not missing, f"undeclared in [project].dependencies: {missing}"


def test_test_suite_imports_are_declared():
    project = _project()
    declared = (_declared(project["dependencies"])
                | _declared(project["optional-dependencies"]["test"]))
    imports = _third_party_imports(ROOT / "tests", ROOT / "benchmarks")
    assert "hypothesis" in imports
    missing = {m: str(f) for m, f in imports.items() if m not in declared}
    assert not missing, f"undeclared in the test extra: {missing}"
