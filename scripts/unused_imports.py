"""Unused-import check: ``python3 scripts/unused_imports.py``.

Parses every .py file under the repository's src, tests, scripts and bench
directories with the standard library's ast module.  An imported
name is unused when its module never reads it and does not list it in
``__all__``; ``from __future__`` imports are exempt.  Prints one line per
unused name, as ``path:line: name``, and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src", "tests", "scripts", "bench")


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds in its module."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            names.append(alias.asname)
        else:
            # "import a.b" binds a
            names.append(alias.name.partition(".")[0])
    return names


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level __all__ list or tuple."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                out |= {e.value for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return out


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every name path imports and neither reads nor exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, name) for name in _bound_names(node)]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    keep = read | _exported(tree)
    return [(line, name) for line, name in imported if name not in keep]


def main() -> int:
    found = 0
    for d in DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for line, name in unused_imports(path):
                print(f"{path.relative_to(ROOT)}:{line}: {name}")
                found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
