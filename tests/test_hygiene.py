"""Source hygiene: no module imports a name that it never uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "kgedistill").glob("*.py"), *(ROOT / "tests").glob("*.py")])


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
