"""Every identifier that README.md names in backticks exists in the package.

A span counts as an identifier when it is a dotted Python name, with an
optional leading dot (an attribute such as ``.re``) and an optional call
suffix (``count_points(potential, theta, p)``).  It resolves when it is a
package module, or a function, class, method or constant reached from
one: from ``ncmoduli`` itself, from any of its modules, or from a class
defined in one.  A span whose first part is a standard library module
(``fractions.Fraction``) resolves in that module, and a span that names a
file of the repository (``pyproject.toml``) is a path, not a name.  Tool
names are the only exception.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import ncmoduli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(ncmoduli.__file__).parent
TOOL_NAMES = {"pytest"}

_FENCE = re.compile(r"^```.*?^```", re.DOTALL | re.MULTILINE)
_SPAN = re.compile(r"`([^`\n]+)`")
_IDENTIFIER = re.compile(r"\.?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\([^()]*\))?")
_MODULES = [ncmoduli] + [importlib.import_module(f"ncmoduli.{path.stem}") for path in sorted(PACKAGE.glob("*.py"))]
_CLASSES = [
    value
    for module in _MODULES
    for value in vars(module).values()
    if inspect.isclass(value) and value.__module__.startswith("ncmoduli")
]
_MISSING = object()


def _walk(root, parts):
    for part in parts:
        root = getattr(root, part, _MISSING)
        if root is _MISSING:
            break
    return root


def _resolves(name):
    parts = name.split("(")[0].lstrip(".").split(".")
    if name.startswith("."):
        roots = _CLASSES
    elif parts[0] == "ncmoduli":
        roots, parts = [ncmoduli], parts[1:]
    elif parts[0] in sys.stdlib_module_names:
        roots, parts = [importlib.import_module(parts[0])], parts[1:]
    else:
        roots = _MODULES + _CLASSES
    return any(_walk(root, parts) is not _MISSING for root in roots)


def readme_identifiers():
    spans = _SPAN.findall(_FENCE.sub("", (ROOT / "README.md").read_text()))
    return sorted(
        {
            span
            for span in spans
            if _IDENTIFIER.fullmatch(span) and span not in TOOL_NAMES and not (ROOT / span).exists()
        }
    )


def test_readme_names_resolve():
    names = readme_identifiers()
    assert "translate" in names and "count_points(potential, theta, p)" in names
    assert [name for name in names if not _resolves(name)] == []


def test_unknown_names_do_not_resolve():
    assert not _resolves("no_such_function")
    assert not _resolves(".no_such_attribute")
    assert not _resolves("ncmoduli.no_such_module")
    assert _resolves("ExactMatrix.power_traces") and _resolves(".re") and _resolves("sys.stdlib_module_names")
