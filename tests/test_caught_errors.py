"""Only the front ends catch ``DomainError``.

A refusal raised in a library layer reaches the caller unchanged: the
CLI turns it into exit 3, and the acceptance suite checks the refusals
a criterion expects.  No layer in between decides that a refusal does
not matter.  Handlers that turn a ``ValueError`` into ``SchemaError`` or
``DomainError`` do not name ``DomainError`` and are unaffected.  Like
``test_own_equality.py`` this walks the syntax trees with ``ast``.
"""

import ast
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent

FRONT_ENDS = {"cli.py", "acceptance.py"}


def _caught_names(handler):
    """The names an ``except`` clause lists, bare or dotted."""
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in types:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_only_the_front_ends_catch_domain_error():
    catching = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "DomainError" in _caught_names(node):
                    catching.add(f"{path.name}:{node.lineno}")
    assert catching, "the front ends catch DomainError"
    assert sorted(c for c in catching if c.split(":")[0] not in FRONT_ENDS) == []
