"""Source hygiene: no private helper is left without a caller."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "sdesym")


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _defined(tree):
    """(name, node) of each module-level private function, class or
    assignment target; dunder names are not private helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(node, skip):
    """Names read under `node`, not counting the subtree `skip`."""
    if node is skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, skip)


def test_every_private_name_has_a_use():
    modules = list(_modules())
    unused = []
    for module, tree in modules:
        for name, node in _defined(tree):
            # a recursive helper's calls to itself do not count as a use
            skip = node if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            if not any(name in set(_uses(t, skip)) for _, t in modules):
                unused.append(f"{module}: {name}")
    assert unused == []
