"""Source hygiene: no private helper or public name is left without a
caller, and no defaulted parameter is left without a call that sets it."""

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


def _exported():
    """The names listed in sdesym.__all__."""
    with open(os.path.join(SRC, "__init__.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return next(set(ast.literal_eval(node.value)) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["__all__"])


def _public(tree):
    """(name, node) of each public module-level function or class, and of
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_use_or_is_exported():
    """A public name that nothing in the package reads, and that the package
    does not export, serves tests only."""
    modules = list(_modules())
    exported = _exported()
    unused = []
    for module, tree in modules:
        for qualified, node in _public(tree):
            name = node.name
            if name in exported:
                continue
            if not any(name in set(_uses(t, node)) for _, t in modules):
                unused.append(f"{module}: {qualified}")
    assert unused == []


def _functions(tree, cls=None):
    """(function node, class) of every def in the tree, nested ones
    included; the class is the ClassDef whose body holds the def, or None."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, cls
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield from _functions(node, node if isinstance(node, ast.ClassDef) else None)
        elif not isinstance(node, ast.Lambda):
            yield from _functions(node, cls)


def _defaulted(fn, cls):
    """(position or None, name) of each parameter with a default; the
    position counts the arguments of a call, so `self` is not counted."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    if cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list):
        positional = positional[1:]
    for k in range(len(positional) - len(a.defaults), len(positional)):
        yield k, positional[k]
    for p, d in zip(a.kwonlyargs, a.kw_defaults):
        if d is not None:
            yield None, p.arg


def _sets(call, position, name) -> bool:
    """Whether the call passes the parameter; `*` or `**` passes them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or \
            any(k.arg is None for k in call.keywords):
        return True
    return (any(k.arg == name for k in call.keywords)
            or (position is not None and len(call.args) > position))


def test_every_defaulted_parameter_is_set_by_a_call():
    """A default that no call in the package overrides is a constant, not an
    option.  Calls are matched to a def by the name they call, so a call to
    any function of that name counts."""
    modules = list(_modules())
    calls = {}
    for _, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(callee, []).append(node)
    unset = []
    for module, tree in modules:
        for fn, cls in _functions(tree):
            if (module, fn.name) == ("cli.py", "main"):
                continue  # the console entry point: its caller is outside
            # a class is called by its own name to run its __init__
            callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
            for position, name in _defaulted(fn, cls):
                if not any(_sets(c, position, name) for c in calls.get(callee, ())):
                    unset.append(f"{module}: {fn.name}({name})")
    assert unset == []
