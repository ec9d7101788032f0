"""Source hygiene: no module imports a name that it never uses, the package
imports at module level only and takes no private name from a sibling
other than ``autodiff``, only ``autodiff`` holds a thread pool or touches
a tensor's gradient storage, no code names a ``grad`` attribute, no
top-level definition or method in the package goes unnamed by all the
code, and no function of ``autodiff`` goes unnamed by the package itself."""

import ast
import functools
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


def named_in(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name that ``tree`` outside ``skip`` mentions as code: names,
    attributes, import aliases, and identifier-shaped string constants
    (patched by name)."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.split(".")[-1], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
    return found


@functools.cache
def names_in_source(source: str) -> frozenset[str]:
    """:func:`named_in` over all of ``source``, parsed once per test session."""
    return frozenset(named_in(ast.parse(source)))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def orphaned_definitions(module: str, others: list[str]) -> list[str]:
    """Top-level functions and classes of ``module``, and methods and
    properties of its top-level classes other than dunders, that nothing
    names: not ``others``, and not ``module`` outside the definition itself."""
    tree = ast.parse(module)
    named = set().union(*map(names_in_source, others))
    definitions = [node for node in tree.body if isinstance(node, (*FUNCTIONS, ast.ClassDef))]
    definitions += [
        node
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, FUNCTIONS) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    return sorted(
        f"{node.name} (line {node.lineno})"
        for node in definitions
        if node.name not in named | named_in(tree, skip=node)
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


def test_the_orphan_scan_covers_methods_and_properties_but_not_dunders():
    module = (
        "class Table:\n"
        "    def __len__(self):\n        return 0\n"
        "    @property\n    def rows(self):\n        return self.count()\n"
        "    def count(self):\n        return 0\n"
        "    def unused(self):\n        return self.unused()\n"
        "    @property\n    def width(self):\n        return 1\n"
    )
    user = "from pkg.mod import Table\nTable().rows\n"
    assert orphaned_definitions(module, [user]) == ["unused (line 9)", "width (line 12)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_definitions(path):
    others = [p.read_text(encoding="utf-8") for p in CODE if p != path]
    assert orphaned_definitions(path.read_text(encoding="utf-8"), others) == []


def test_every_autodiff_function_is_named_by_the_package():
    """Each top-level function of ``autodiff`` is named by the package's own
    code outside its definition; what the tests and the benchmark name does
    not count. An op that only the tests call belongs with them (the op
    chains the model's nodes replaced are in ``tests/chains.py``)."""
    source = (PACKAGE / "autodiff.py").read_text(encoding="utf-8")
    functions = {node.name for node in ast.parse(source).body if isinstance(node, FUNCTIONS)}
    others = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")) if p.name != "autodiff.py"]
    assert [d for d in orphaned_definitions(source, others) if d.split()[0] in functions] == []


def nested_imports(source: str) -> list[str]:
    """``function: statement`` for each import inside a function, under the
    innermost function that makes it."""
    owner = {}
    for fn in ast.walk(ast.parse(source)):  # breadth first: outer functions come first
        if isinstance(fn, FUNCTIONS):
            imports = (n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom)))
            owner.update((node, fn.name) for node in imports)
    return sorted(f"{name}: {ast.unparse(node)}" for node, name in owner.items())


def test_the_nested_import_scan_names_the_innermost_function():
    source = (
        "import os\n"
        "def outer():\n    import json\n    def inner():\n        from .x import y as z\n"
        "class C:\n    def method(self):\n        import os.path\n"
    )
    assert nested_imports(source) == [
        "inner: from .x import y as z", "method: import os.path", "outer: import json",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def private_sibling_imports(source: str) -> list[str]:
    """``module.name`` for each underscore name that ``source``, a module of
    the package, imports from a sibling module other than ``autodiff``.

    ``autodiff`` is the engine the other modules are built on, and its
    underscore names (the worker pool, the BLAS thread pin, the row-slice
    size) are shared by them on purpose; any other module's underscore
    name is its own, and a sibling that imports one holds a copy that
    patching the owner does not reach.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("kgedistill."):
            module = node.module.removeprefix("kgedistill.")
        else:
            continue
        if module != "autodiff":
            found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return sorted(found)


def test_the_private_import_scan_spares_autodiff_and_public_names():
    source = (
        "from __future__ import annotations\n"
        "from os import _exit\n"
        "from .autodiff import _run_blocks, zeros\n"
        "from .models import _SLICE_ELEMENTS, EmbeddingModel\n"
        "from kgedistill.data import _read_split\n"
        "from kgedistill.autodiff import _one_blas_thread\n"
    )
    assert private_sibling_imports(source) == ["data._read_split", "models._SLICE_ELEMENTS"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_from_siblings_but_autodiff(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def pool_names(source: str) -> list[str]:
    """The names of a thread pool that ``source`` mentions as code
    (:func:`named_in`): ``ThreadPoolExecutor``, or ``autodiff``'s ``_pool``."""
    return sorted(named_in(ast.parse(source)) & {"ThreadPoolExecutor", "_pool"})


def test_the_pool_scan_finds_a_second_pool_and_a_borrowed_one():
    source = (
        "from concurrent.futures import ThreadPoolExecutor as Executor\n"
        "from . import autodiff\n"
        "autodiff._pool.submit(print)\n"
        "text = 'work on a pool of threads'\n"
    )
    assert pool_names(source) == ["ThreadPoolExecutor", "_pool"]
    assert pool_names("from .autodiff import _run_blocks\n_run_blocks(4, print)\n") == []


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "autodiff.py"), ids=lambda p: p.name
)
def test_only_autodiff_holds_a_thread_pool(path):
    """Pool work goes through ``autodiff._run_blocks``: no second pool, and no
    work submitted to its pool from beside it."""
    assert pool_names(path.read_text(encoding="utf-8")) == []


def gradient_storage_names(source: str) -> list[str]:
    """The names of a tensor's gradient storage that ``source`` mentions as
    code (:func:`named_in`): its pending terms, ``_pending``."""
    return sorted(named_in(ast.parse(source)) & {"_pending"})


def test_the_gradient_storage_scan_finds_a_write_and_a_read_by_name():
    source = (
        "from .autodiff import add_outer\n"
        "table._pending += (term,)\n"
        "getattr(table, '_pending')\n"
        "add_outer(table, x, y)\n"
        "text = 'the _pending terms'\n"
    )
    assert gradient_storage_names(source) == ["_pending"]
    assert gradient_storage_names(
        "add_outer(table, x, y)\nadd_scaled(table, b, 0.5)\nadd_rows(table, ids, g)\n"
    ) == []


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "autodiff.py"), ids=lambda p: p.name
)
def test_only_autodiff_touches_gradient_storage(path):
    """A gradient goes in through a VJP's return value or ``autodiff``'s
    pending-term recorders (``add_outer``, ``add_scaled``, ``add_rows``),
    and out only through ``autodiff.take_grad``: only ``autodiff`` reads or
    writes the pending terms."""
    assert gradient_storage_names(path.read_text(encoding="utf-8")) == []


def grad_uses(source: str) -> list[int]:
    """The lines of ``source`` that read or write a ``grad`` attribute."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "grad"
    )


def test_the_grad_scan_finds_a_read_and_a_write():
    source = (
        "norm = np.abs(table.grad).max()\n"
        "table.grad = g\n"
        "getattr(table, 'grad')\n"
        "add_scaled(table, g, 1.0)\n"
        "text = 'a grad read'\n"
        "table.grad[...] += g\n"
    )
    assert grad_uses(source) == [1, 2, 6]


@pytest.mark.parametrize(
    "path", CODE,
    ids=lambda p: p.name if p.parent == PACKAGE else str(p.relative_to(ROOT)),
)
def test_no_module_reads_or_writes_grad(path):
    """A tensor has no ``grad``: a leaf's gradient leaves it only through
    ``autodiff.take_grad``, so no step writes a gradient out at full size,
    and the tests read one through ``conftest.dense_grad``."""
    assert grad_uses(path.read_text(encoding="utf-8")) == []
