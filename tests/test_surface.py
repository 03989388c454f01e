"""The documented library surface: ``mcuq.__all__``, README's list of it, and
the public definitions of ``src/mcuq`` that neither belong to it nor serve
other package code."""

import ast
import types
from pathlib import Path

import mcuq

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mcuq.__file__).resolve().parent

#: Public definitions that are off the surface and that no other package code
#: uses, each with the ROADMAP item that removes it.
UNUSED = {
    ("core", "svd_deterministic"): "item 8, once item 1 drops its benchmark tracer rows",
    ("lbdemo", "separation_check"): "item 4, or its deletion",
}


def test_readme_lists_the_surface():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    listed = [line.split("|")[1].strip(" `") for line in section.splitlines()
              if line.startswith("| `")]
    assert listed == mcuq.__all__
    assert len(mcuq.__all__) <= 25


def test_package_root_holds_only_the_surface():
    # Besides the surface, the root holds its submodules and ``__version__``.
    public = {name for name, value in vars(mcuq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(mcuq.__all__)


def _names_used(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names and attributes read anywhere in ``tree`` outside ``skip``; an
    import binds a name but reads none."""
    used, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return used


def test_every_public_definition_is_on_the_surface_or_used_in_the_package():
    # A public module-level function or class serves callers (it is on the
    # surface) or the package (other code outside its own body reads its
    # name; ``__init__`` only re-exports).  Matching is by name.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.stem != "__init__"}
    unused = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in mcuq.__all__
                    and not any(node.name in _names_used(other, node)
                                for other in trees.values())):
                unused.add((module, node.name))
    assert unused == set(UNUSED)
