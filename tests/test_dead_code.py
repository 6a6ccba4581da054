"""Every module-level function and class of the package is used by the package itself.

A name counts as used when another part of ``src/griduq`` (``__init__.py``
aside) refers to it: as a bare name in its own module, through
``from .module import name``, or as ``alias.name`` where ``alias`` is bound
to that griduq module. Attribute access on any other object does not count,
so ``np.exp`` does not keep an ``exp`` alive.
"""

import ast
from pathlib import Path

import griduq

PACKAGE = Path(griduq.__file__).parent

# names kept for the tests alone, each for a reason
ALLOWED = {
    # the one-pass reference that test_batch_equals_loop_of_single_passes compares against
    ("model", "predict_gaussian"),
    # the CSV round-trip oracle for write_grid_csv
    ("export", "read_grid_csv"),
}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"}


def _definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _references(mod: str, tree: ast.Module, modules) -> set[tuple[str, str]]:
    """(module, name) pairs that ``tree``, the source of ``mod``, refers to."""
    aliases = {}  # local name -> griduq module
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None and a.name in modules:
                    aliases[a.asname or a.name] = a.name
                elif node.module in modules:
                    refs.add((node.module, a.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add((mod, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def unused_names() -> list[str]:
    modules = _modules()
    refs = set().union(*(_references(mod, tree, modules) for mod, tree in modules.items()))
    return [f"{mod}.{name}" for mod, tree in modules.items() for name in _definitions(tree)
            if (mod, name) not in refs and (mod, name) not in ALLOWED]


def test_every_definition_is_used_by_the_package():
    assert unused_names() == []


def test_allowed_names_exist_and_are_otherwise_unused():
    modules = _modules()
    refs = set().union(*(_references(mod, tree, modules) for mod, tree in modules.items()))
    for mod, name in ALLOWED:
        assert name in _definitions(modules[mod]), f"{mod}.{name}"
        assert (mod, name) not in refs, f"{mod}.{name} is used; drop it from ALLOWED"
