"""Source checks that need no import of the package: every name a module
imports is used in it, so a dead import cannot come back unseen, and a
measure's `kind` routes in one place only, so consumers read what a measure
carries (its curve, law, density and intrinsic dimension) instead."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quantlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the last name
                name = alias.asname or (alias.name.split(".")[0]
                                        if isinstance(node, ast.Import) else alias.name)
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_checker_sees_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []


def test_modules_are_found():
    assert len(MODULES) >= 7


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def _kind_comparisons(source: str) -> list[str]:
    """The innermost enclosing function of each comparison with a `.kind` operand."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Compare) and any(
                isinstance(x, ast.Attribute) and x.attr == "kind"
                for x in (node.left, *node.comparators)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_the_checker_sees_a_kind_comparison():
    src = ("def f(m):\n    return m.kind == 'a' or 'b' != m.kind\n"
           "def g(m):\n    def h():\n        return m.kind in ('c',)\n    return f'{m.kind}'\n")
    assert _kind_comparisons(src) == ["f", "f", "h"]


def test_kind_is_compared_only_in_the_solver_table():
    found = [(path.name, where) for path in MODULES
             for where in _kind_comparisons(path.read_text())]
    assert found == [("asymptotics.py", "solver_for")]
