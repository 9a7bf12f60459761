"""The package's import boundary: numpy is its only runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bayesqvc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "bayesqvc"}


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_module_imports_only_stdlib_numpy_and_package(path):
    outside = _imported_roots(path) - ALLOWED
    assert not outside, sorted(outside)


def test_runtime_dependencies_are_numpy_only():
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    names = [re.match(r"[\w.-]+", dep).group() for dep in re.findall(r'"([^"]+)"', block)]
    assert names == ["numpy"]
