"""Every input the package accepts is read where it is accepted.

Like ``tests/test_unused_imports.py`` this walks syntax trees with
``ast``.  A command line option must be read as ``args.<dest>`` by the
handler of each subcommand that accepts it, top-level options by every
handler.  A parameter of a ``def`` must be read in its body (``self``
and ``cls`` aside); lambdas are exempt, since a table of formulas may
share one signature.
"""

import argparse
import ast
from pathlib import Path

import ncmoduli
from ncmoduli import cli

PACKAGE = Path(ncmoduli.__file__).parent


def _leaf_parsers(parser, inherited=()):
    """Each parser without subcommands, with the dests of its options and its ancestors' options."""
    dests = inherited + tuple(
        a.dest for a in parser._actions if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
    )
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield parser, dests
    for action in subparsers:
        for child in action.choices.values():
            yield from _leaf_parsers(child, dests)


def _unread_options(parser, tree):
    """``prog: dest`` for each option a leaf subcommand accepts and its handler never reads."""
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for leaf, dests in _leaf_parsers(parser):
        handler = functions[leaf.get_default("handler").__name__]
        args = handler.args.args[0].arg
        read = {
            node.attr
            for node in ast.walk(handler)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == args
        }
        yield from (f"{leaf.prog}: {dest}" for dest in dests if dest not in read)


def _unread_parameters(tree):
    """``function: parameter`` for each parameter a ``def`` never reads in its body."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            yield from (f"{node.name}: {p}" for p in params if p not in read and p not in ("self", "cls"))


def test_every_option_is_read_by_its_handler():
    tree = ast.parse(Path(cli.__file__).read_text())
    assert list(_unread_options(cli.build_parser(), tree)) == []


def test_every_parameter_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        unread += [f"{path.name}: {entry}" for entry in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


SMALL_CLI = """
import argparse

def _cmd_run(args):
    return args.count

def build_parser():
    parser = argparse.ArgumentParser(prog="tool")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--count", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=_cmd_run)
    return parser
"""


def test_unread_options_are_found():
    namespace = {}
    exec(SMALL_CLI, namespace)
    assert list(_unread_options(namespace["build_parser"](), ast.parse(SMALL_CLI))) == [
        "tool run: verbose",
        "tool run: seed",
    ]


def test_unread_parameters_are_found():
    source = (
        "def f(self, a, b, *rest, c, **kw):\n"
        "    b = a\n"
        "    return [kw for _ in rest]\n"
        "\n"
        "class K:\n"
        "    @classmethod\n"
        "    def g(cls, d):\n"
        "        return lambda e: d\n"
    )
    assert list(_unread_parameters(ast.parse(source))) == ["f: b", "f: c"]
