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


def _scoped(node, scope=""):
    """(node, name) of each node below ``node``.  A function or class is named
    by its dotted path, a lambda by that of its function, or of the
    module-level name it is assigned to, with ``.<lambda>`` added; any other
    node by the name of the scope it is in."""
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Lambda):
            name = f"{scope}.<lambda>"
        elif isinstance(child, ast.Assign) and not scope:
            name = child.targets[0].id if isinstance(child.targets[0], ast.Name) else ""
        yield child, name
        yield from _scoped(child, name)


def unread_parameters(tree, module):
    """(module, enclosing name, parameter) of each function or lambda
    parameter, but ``self`` and ``cls``, that no name in its body reads."""
    found = []
    for node, name in _scoped(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            found.extend((module, name, p) for p in _parameters(node)
                         if p not in read and p not in ("self", "cls"))
    return found


def vocab_calls(tree, module):
    """(module, enclosing name) of each call of a name or attribute ``Vocab``."""
    return [(module, name) for node, name in _scoped(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Vocab"]


CONFIGS = {"ModelConfig", "TrainConfig", "SampleConfig"}


def config_defaults(tree):
    """(enclosing name, default) of each call of a name or attribute
    ``option`` whose ``default=`` is an attribute of a config class."""
    return [(name, f"{kw.value.value.id}.{kw.value.attr}") for node, name in _scoped(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "option"
            for kw in node.keywords
            if kw.arg == "default" and isinstance(kw.value, ast.Attribute)
            and getattr(kw.value.value, "id", None) in CONFIGS]


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


def test_only_assemble_builds_a_vocab():
    """``Vocab``'s id constants hold because ``_assemble`` lays out every
    vocabulary: a second constructor could lay the ids out another way."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += vocab_calls(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == [("vocab", "_assemble")]


def test_walk_finds_vocab_calls():
    tree = ast.parse("V = Vocab(())\ndef f():\n    return m.Vocab(), g(Vocab)\n"
                     "class C:\n    def m(self):\n        return Vocab\n")
    assert vocab_calls(tree, "m") == [("m", "V"), ("m", "f")]


def test_config_options_take_their_default_from_field_option():
    """An option that sets a config field names it once, through
    ``cli.field_option``: a default restated beside the field could name
    another field's default."""
    tree = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    assert config_defaults(tree) == []


def test_walk_finds_config_defaults():
    tree = ast.parse("@click.option('--a', 'n_layers', default=ModelConfig.n_layers)\n"
                     "@click.option('--b', default=1)\n"
                     "@field_option('--c', TrainConfig, 'max_steps', 'Steps.')\n"
                     "def f(n_layers, b, max_steps):\n    pass\n"
                     "o = option('--d', default=SampleConfig.k, show_default=True)\n"
                     "p = click.option('--e', default=other.k)\n")
    assert config_defaults(tree) == [("f", "ModelConfig.n_layers"), ("o", "SampleConfig.k")]
