"""The package exports only what the package itself uses.

A public name (one listed in a module's `__all__`) that no code in `src/`
reads is API kept alive only by tests; such code belongs in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import dsekit

PACKAGE = Path(dsekit.__file__).parent


def parsed_modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}


def exported(tree: ast.Module) -> list[str]:
    """The string entries of a module-level `__all__`, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return [elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)]
    return []


def loaded_names(tree: ast.Module) -> set[str]:
    """Every name a module reads, bare (`name`) or as an attribute (`obj.name`)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_the_scan_sees_the_package():
    modules = parsed_modules()
    assert PACKAGE / "cli.py" in modules and PACKAGE / "explorers" / "base.py" in modules
    assert "main" in exported(modules[PACKAGE / "cli.py"])


def test_every_exported_name_is_read_somewhere_in_the_package():
    modules = parsed_modules()
    loaded = set().union(*(loaded_names(tree) for tree in modules.values()))
    unread = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path, tree in modules.items()
        for name in exported(tree)
        if name not in loaded
    ]
    assert unread == []
