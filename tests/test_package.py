"""Checks on the package as a whole: the shipped reference document, the
exported names and dead names."""

import ast
import json
from collections import Counter
from pathlib import Path

import steadycredit
from steadycredit import reference

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steadycredit"
EXEMPT = {"__all__", "__version__"}


def test_reference_document_matches_the_constants():
    doc = json.loads((ROOT / "docs" / "reference_statistics.json").read_text(encoding="utf-8"))
    assert doc == reference.REFERENCE


def test_exports_match_the_package_imports():
    exported = steadycredit.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(steadycredit, name)] == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(name for name in imported - set(exported) if not name.startswith("_")) == []


def _definitions(tree: ast.Module):
    """(name, node) for every function, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _uses(node: ast.AST) -> Counter:
    """Identifiers a subtree loads, reads as an attribute or imports."""
    uses = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            uses[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            uses[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            uses[sub.name.rpartition(".")[2]] += 1
    return uses


def test_every_module_level_name_is_used():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src", "tests", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))}
    total = Counter()
    for tree in trees.values():
        total += _uses(tree)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            if name not in EXEMPT and total[name] - _uses(node)[name] == 0:
                unused.append(f"{path.name}: {name}")
    assert unused == []
