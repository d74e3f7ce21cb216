"""Source hygiene: every name a package module imports is used there, and the export list
matches what the package imports."""

import ast
from pathlib import Path

import cqed_scope

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cqed_scope"


def unused_imports(path: Path) -> list[str]:
    """Module-level imported names that ``path`` never reads.

    ``from __future__`` imports are skipped, and so is any name whose own line
    carries ``# noqa: F401`` (kept on purpose, for callers outside the module).
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_package_modules_use_every_import():
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert unused == {}


def test_export_list_matches_the_package_imports():
    """Every name in ``__all__`` is bound, and every public name ``__init__`` imports is listed."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    public = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    assert [name for name in cqed_scope.__all__ if not hasattr(cqed_scope, name)] == []
    assert sorted(public - set(cqed_scope.__all__)) == []
