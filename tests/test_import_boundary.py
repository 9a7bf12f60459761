"""The package's import boundary: numpy is its only runtime dependency, and its exports resolve."""

import ast
import importlib
import os
import re
import subprocess
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


@pytest.mark.parametrize("module", ["bayesqvc", "bayesqvc.samplers"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def _unused_imports(path: Path) -> list[str]:
    """Module-level imported names of one source file that nothing in it references.

    An import whose line carries ``# noqa: F401`` followed by a reason is
    exempt: it is there to be read from outside the module.
    """
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            reason = lines[alias.lineno - 1].partition("# noqa: F401")[2].strip()
            if name not in used and not reason:
                unused.append(name)
    return unused


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py"),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_every_module_level_import_is_used(path):
    assert not _unused_imports(path)


def test_cli_import_loads_no_process_pool_modules():
    """The pool modules load only when a fit or study runs on more than one worker."""
    code = ("import sys, bayesqvc.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=os.environ | {"PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# Public engine functions that nothing in the package calls, and why each is kept.  None is
# a second form of sampler arithmetic: the first runs the block stage itself, the other two
# are the generative model that the Geweke tests check the composed sweep against.
ENGINE_TEST_ENTRIES = {
    "update_alpha_block": "the block stage on one block, which the oracle tests replay",
    "draw_state_from_prior": "the forward draw of the hierarchical prior",
    "draw_response": "y drawn from the working likelihood given the parameters",
}


def _names_referenced(tree) -> set[str]:
    """Names, attribute names and imported names that the nodes under ``tree`` use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_engine_function_is_used_by_the_package():
    """A public function of ``samplers/engine.py`` that only tests call is a test-only twin of
    sampler arithmetic; the oracle tests feed the stages fixed noise instead."""
    engine = PACKAGE / "samplers" / "engine.py"
    referenced = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if path == engine and isinstance(node, ast.FunctionDef):
                # a reference to a function from its own body does not count
                referenced |= _names_referenced(node) - {node.name}
            else:
                referenced |= _names_referenced(node)
    public = [node.name for node in ast.parse(engine.read_text()).body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert set(ENGINE_TEST_ENTRIES) <= set(public)
    unused = [name for name in public if name not in referenced | set(ENGINE_TEST_ENTRIES)]
    assert not unused, unused
