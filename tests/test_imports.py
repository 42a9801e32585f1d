"""Every name a package or test module imports is used in that module, and
every module-level private name is used somewhere in the package.

`__init__.py` re-exports by design and is skipped by the import check, as is
any import statement carrying a `# noqa` comment.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "finsler"
# package modules by file name, test modules as tests/<file name>
MODULES = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in TESTS.glob("*.py")})


def unused_imports(source):
    """Names bound by the module's import statements and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_uses_every_import(module):
    assert unused_imports(MODULES[module].read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nimport sys  # noqa\nfrom numpy import pi, e\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "e")]


def _private_definitions(tree):
    """Module-level functions, classes and assignment targets named `_x`
    (dunder names excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(tree):
    """Names read, attributes accessed and names imported in a module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def unreferenced_privates(sources):
    """(module, name) for each private module-level name that no module in
    `sources` (module name -> source) reads, accesses or imports."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    )


def test_every_private_name_is_used_in_the_package():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_unused_private_name_is_reported():
    sources = {
        "a.py": '_A = 1\n_B, _C = 2, 3\n\n\ndef _f():\n    """_D"""\n    return _B\n\n\n'
        "class _Tracker:\n    pass\n\n\n_D = 4  # _C\n",
        "b.py": "from a import _f\nimport a\nprint(a._A)\n",
    }
    assert unreferenced_privates(sources) == [("a.py", "_C"), ("a.py", "_D"), ("a.py", "_Tracker")]
