"""Every name a module under `src/brts` imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "brts"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, string annotations included."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            out |= _names_in_strings(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            out |= _names_in_strings(node.returns)
    return out


def _names_in_strings(note: ast.expr) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(note):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= used_names(ast.parse(node.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
