"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

import guti

SOURCE = Path(guti.__file__).parent

# (module, enclosing name, parameter) of parameters a caller's protocol
# hands over whether or not the body reads them: a click callback is called
# as (ctx, param, value), and each ``forms._KEYS`` parser as (value, where)
UNREAD_BY_PROTOCOL = {
    ("cli", "_one_theme", "param"),
    ("cli", "_loads.<lambda>", "ctx"),
    ("cli", "_loads.<lambda>", "param"),
    ("forms", "_KEYS.<lambda>", "where"),
}


def _parameters(node):
    args = node.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return [a.arg for a in named + [a for a in (args.vararg, args.kwarg) if a]]


def unread_parameters(tree, module):
    """(module, enclosing name, parameter) of each function or lambda
    parameter, but ``self`` and ``cls``, that no name in its body reads.  A
    lambda's enclosing name is that of its function, or of the module-level
    name it is assigned to, with ``.<lambda>`` added."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Lambda):
                name = f"{scope}.<lambda>"
            elif isinstance(child, ast.Assign) and not scope:
                name = child.targets[0].id if isinstance(child.targets[0], ast.Name) else ""
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                body = child.body if isinstance(child.body, list) else [child.body]
                read = {n.id for stmt in body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                found.extend((module, name, p) for p in _parameters(child)
                             if p not in read and p not in ("self", "cls"))
            visit(child, name)

    visit(tree, "")
    return found


def test_every_parameter_is_read():
    """A parameter that nothing reads is handed over for nothing: delete it,
    with every call site that passes it."""
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found.update(unread_parameters(tree, path.stem))
    assert found - UNREAD_BY_PROTOCOL == set()
    assert UNREAD_BY_PROTOCOL <= found, "an allowlisted parameter is read now: drop it"


def test_walk_finds_an_unread_parameter():
    tree = ast.parse("def f(self, a, b):\n    return b\n"
                     "class C:\n    def m(self, x):\n        return 1\n"
                     "G = {'k': lambda value, where: value}\n")
    assert unread_parameters(tree, "m") == [
        ("m", "f", "a"), ("m", "C.m", "x"), ("m", "G.<lambda>", "where")]
