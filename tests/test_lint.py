"""Source checks that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "primelab"


def _unused_imports(path):
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_no_unused_imports_in_src():
    # __init__.py imports only to re-export
    unused = {path.name: _unused_imports(path) for path in SRC.glob("*.py")
              if path.name != "__init__.py"}
    assert {name: u for name, u in unused.items() if u} == {}
