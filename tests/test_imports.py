"""Every import in the library modules and the tests is used, and comes
from the module that defines it.

Parsed with the standard library's ast, so it needs no linter: a name bound
by an import must be read somewhere else in the same file, unless its line
carries flake8's `# noqa: F401`, the mark of a binding kept on purpose.  The
package's __init__.py is skipped there, since its imports are the public
interface.  A name imported from a symdist module (not the package itself)
must be defined at that module's top level, not imported into it, so that a
name that moves to another module cannot still be read at its old one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symdist"
FILES = sorted([p for p in PACKAGE.glob("*.py")
                if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and "# noqa: F401" not in lines[node.lineno - 1]):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_detects_an_unused_import():
    source = ("import json\nimport os.path\nfrom math import comb, pi\n"
              "from math import tau  # noqa: F401\nprint(os, pi)\n")
    assert unused_imports(source) == ["line 3: comb", "line 1: json"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source: str) -> set[str]:
    """The names that a module's top-level defs, classes and assignments bind."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def reexported_imports(source: str, defined) -> list[str]:
    """The names that source imports from a symdist module, `from .mod` or
    `from symdist.mod`, which defined(mod) does not hold."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 1:
            mod = node.module
        elif node.level == 0 and node.module.startswith("symdist."):
            mod = node.module.partition(".")[2]
        else:
            continue
        out += [f"line {node.lineno}: {mod}.{alias.name}" for alias in node.names
                if alias.name not in defined(mod)]
    return out


def _package_defines(mod: str) -> set[str]:
    return defined_names((PACKAGE / f"{mod}.py").read_text())


def test_detects_a_reexported_import():
    modules = {"linalg": "SUPPORT_TOL = 1e-8\n",
               "channels": "from .linalg import SUPPORT_TOL\nclass Spec: pass\n"}
    defined = lambda mod: defined_names(modules[mod])  # noqa: E731
    source = ("from symdist.channels import SUPPORT_TOL, Spec\n"
              "from symdist.linalg import SUPPORT_TOL\nfrom symdist import channels\n")
    assert reexported_imports(source, defined) == ["line 1: channels.SUPPORT_TOL"]
    assert reexported_imports(modules["channels"], defined) == []


@pytest.mark.parametrize("path", FILES + [PACKAGE / "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_each_import_comes_from_its_defining_module(path):
    assert reexported_imports(path.read_text(), _package_defines) == []
