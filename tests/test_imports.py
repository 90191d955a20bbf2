"""Every import in the library modules and the tests is used.

Parsed with the standard library's ast, so it needs no linter: a name bound
by an import must be read somewhere else in the same file, unless its line
carries flake8's `# noqa: F401`, the mark of a binding kept on purpose.  The
package's __init__.py is skipped, since its imports are the public interface.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([p for p in (ROOT / "src" / "symdist").glob("*.py")
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
