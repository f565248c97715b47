"""Source hygiene: no private module-level name in ``src/dsmfuse`` is dead,
no module imports a name it never reads, and every dataclass is frozen."""

import ast
from pathlib import Path

import dsmfuse

SRC = Path(dsmfuse.__file__).resolve().parent


def _private_definitions(tree):
    """Module-level ``_name`` definitions (dunders aside) of a parsed module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree, imports=True):
    """Every name a parsed module reads, by bare name, attribute or (with
    ``imports``) import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif imports and isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _imported_names(tree):
    """Every name an import binds in a parsed module, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_private_module_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in _references(tree)}
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not dead, f"defined but never used in src/dsmfuse: {dead}"


def test_every_imported_name_is_read_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = set(_references(tree, imports=False))
        unused += [f"{path.name}:{name}" for name in _imported_names(tree) if name not in read]
    assert not unused, f"imported but never read in src/dsmfuse: {unused}"


def _dataclass_decorators(tree):
    """(class name, decorator) of every ``@dataclass`` or ``@dataclass(...)`` class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                func = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(func, "id", getattr(func, "attr", None)) == "dataclass":
                    yield node.name, deco


def test_every_dataclass_is_frozen():
    found, mutable = [], []
    for path in sorted(SRC.glob("*.py")):
        for name, deco in _dataclass_decorators(ast.parse(path.read_text())):
            found.append(name)
            frozen = isinstance(deco, ast.Call) and any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant) and kw.value.value is True
                for kw in deco.keywords
            )
            if not frozen:
                mutable.append(f"{path.name}:{name}")
    assert found, "no dataclass found in src/dsmfuse"
    assert not mutable, f"dataclasses without frozen=True in src/dsmfuse: {mutable}"
