"""Source hygiene: no module imports a name that it never uses, and no
top-level definition in the package goes unnamed by all the code."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgedistill"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
CODE = sorted(p for tree in ("src", "tests", "kgebench") for p in (ROOT / tree).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names that an import in ``source`` binds, nothing reads and ``__all__`` omits."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        f"{name} (line {line})" for name, line in imported.items() if name not in read | exported
    )


def test_the_scan_finds_unused_and_keeps_used_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import os.path as osp\n"
        "from json import dumps, loads\n"
        "from pathlib import Path\n"
        "__all__ = ['Path']\n"
        "np.zeros(dumps(1))\n"
        "loads = None\n"
    )
    assert unused_imports(source) == ["loads (line 5)", "os (line 2)", "osp (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def named_in(tree: ast.AST) -> set[str]:
    """Every name that ``tree`` mentions as code: names, attributes, import
    aliases, and identifier-shaped string constants (patched by name)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.split(".")[-1], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


def orphaned_definitions(module: str, others: list[str]) -> list[str]:
    """Top-level functions and classes of ``module`` that nothing names: not
    ``others``, and not the rest of ``module`` outside the definition itself."""
    body = ast.parse(module).body
    named = set().union(*(named_in(ast.parse(source)) for source in others))
    per_statement = [named_in(node) for node in body]
    return sorted(
        f"{node.name} (line {node.lineno})"
        for i, node in enumerate(body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in named.union(*per_statement[:i], *per_statement[i + 1 :])
    )


def test_the_orphan_scan_finds_unnamed_and_keeps_named_definitions():
    module = (
        "def helper():\n    return 1\n"
        "def called():\n    return helper()\n"
        "def patched():\n    pass\n"
        "class Imported:\n    pass\n"
        "class Orphan:\n    def method(self) -> 'Orphan':\n        return Orphan()\n"
        "def _mean_of_directions(name):\n    return name\n"
    )
    user = (
        "from pkg.mod import Imported as I\n"
        "import pkg.mod\n"
        "pkg.mod.called()\n"
        "setattr(pkg.mod, 'patched', None)\n"
        "text = 'helper is named in prose only'\n"
        "method = '_mean_of_directions(name)'\n"
    )
    assert orphaned_definitions(module, [user]) == [
        "Orphan (line 9)", "_mean_of_directions (line 12)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_definitions(path):
    others = [p.read_text(encoding="utf-8") for p in CODE if p != path]
    assert orphaned_definitions(path.read_text(encoding="utf-8"), others) == []
