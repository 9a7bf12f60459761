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
    "path",
    sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: str(p.relative_to(PACKAGE if PACKAGE in p.parents else ROOT)),
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


# Public functions that nothing in the package calls, and why each is kept.  None is a
# second form of sampler arithmetic: the first runs the block stage itself, the other two
# are the generative model that the Geweke tests check the composed sweep against.
TEST_ENTRIES = {
    "samplers.engine.update_alpha_block": "the block stage on one block, which the oracle "
                                          "tests replay",
    "samplers.engine.draw_state_from_prior": "the forward draw of the hierarchical prior",
    "samplers.engine.draw_response": "y drawn from the working likelihood given the parameters",
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


def test_every_public_function_and_method_is_used_by_the_package():
    """A public top-level function, method or property of ``src/bayesqvc`` that only tests
    reach is a test-only twin or dead code: tests keep their own helpers in ``oracles.py``.

    A name counts as used where any module of the package references it, as a name or an
    attribute, except from the body of a definition of that name itself; an import, and so
    a re-export in a package ``__init__.py``, counts.
    """
    referenced, public = set(), {}
    for path in PACKAGE.rglob("*.py"):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            members = ast.iter_child_nodes(node) if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, ast.FunctionDef):
                    # a reference to a definition from its own body does not count
                    referenced |= _names_referenced(member) - {member.name}
                    if not member.name.startswith("_"):
                        owner = f"{node.name}." if member is not node else ""
                        public[f"{module}.{owner}{member.name}"] = member.name
                else:
                    referenced |= _names_referenced(member)
    assert set(TEST_ENTRIES) <= set(public)
    unused = [qualname for qualname, name in public.items()
              if name not in referenced and qualname not in TEST_ENTRIES]
    assert not unused, unused
