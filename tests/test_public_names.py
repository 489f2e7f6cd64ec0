"""Every public name resolves, so a removed name fails here first.

Besides ``ncmoduli.__all__``, the benchmark in ``perfbench/`` reaches
names on the package object, as ``nc.<name>`` or ``self.nc.<name>``,
some of them only in traced runs; an ``ast`` walk of its sources checks
each such attribute chain.  The few names it reaches through a submodule
import are listed here.  The other way round, every public function,
class and method of the package is read somewhere in the package or the
benchmark, so a name only tests reach fails here unless ``TEST_ONLY``
gives its reason.  The package loads each submodule on first use; the
last tests pin that in a fresh interpreter.
"""

import ast
import collections
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncmoduli

ROOT = Path(__file__).resolve().parent.parent

SUBMODULE_NAMES = (
    "acceptance.CRITERIA",
    "acceptance._TIME_BUDGETS",
    "cli.potential_from_json",
)


def _package_chain(node):
    """The names read after ``nc`` or ``self.nc`` in an attribute chain, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    names.reverse()
    if isinstance(node, ast.Name) and node.id == "self" and names[:1] == ["nc"]:
        names = names[1:]
    elif not (isinstance(node, ast.Name) and node.id == "nc"):
        return None
    return tuple(names) or None


def benchmark_chains(paths):
    """Each attribute chain on the package object in the given sources, prefixes too."""
    chains = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            chain = _package_chain(node)
            if chain:
                chains.add(chain)
    return chains


def test_all_names_resolve():
    assert [name for name in ncmoduli.__all__ if not hasattr(ncmoduli, name)] == []


def test_benchmark_submodule_names_resolve():
    importlib.import_module("ncmoduli.cli")
    missing = []
    for dotted in SUBMODULE_NAMES:
        module, name = dotted.split(".")
        if not hasattr(getattr(ncmoduli, module, None), name):
            missing.append(dotted)
    chains = benchmark_chains(sorted((ROOT / "perfbench").glob("*.py")))
    # the traced probes read these; a walk that misses them sees nothing
    assert {("jacobi_generators",), ("quintuple", "geometricity_minors"), ("DomainError",)} <= chains
    for chain in sorted(chains):
        try:
            functools.reduce(getattr, chain, ncmoduli)
        except AttributeError:
            missing.append(".".join(chain))
    assert missing == []


def test_the_chain_walk_reads_nc_and_self_nc(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("nc.a.b(1)\nself.nc.c\nx = self.nc\nother.d\nnc.e().f\nself.g.nc\n")
    assert benchmark_chains([source]) == {("a",), ("a", "b"), ("c",), ("e",)}


#: Public definitions that only tests read, each with the reason it stays.
TEST_ONLY = {
    "potential.py: reconstruct_spectrum": "a README feature: the exact spectrum of N J",
    "quiver.py: potential_double_cover": "a README feature, and the paper's lift to the double cover",
    "exact.py: ExactMatrix.rank": "the sympy test of row_reduce goes through it",
}


def _public_definitions(tree):
    """(qualified name, node) for each public function and class of a module, and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _loads(node):
    """How often each name is read below the node, as a bare name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unread_definitions(paths, other_readers, definitions=_public_definitions):
    """``"<file>: <name>"`` for each definition in ``paths`` that none of the files reads outside itself.

    ``definitions`` yields (qualified name, node) for a module's tree; the
    last part of the qualified name is the name that must be read.  An
    import is not a read, nor a string such as an ``_EXPORTS`` entry.
    """
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in (*paths, *other_readers)}
    loads = sum(map(_loads, trees.values()), collections.Counter())
    return sorted(
        f"{path.name}: {qualname}"
        for path in paths
        for qualname, node in definitions(trees[path])
        for name in [qualname.rpartition(".")[2]]
        if loads[name] == _loads(node)[name]
    )


def test_every_public_definition_is_read_outside_the_tests():
    package = sorted(Path(ncmoduli.__file__).parent.glob("*.py"))
    assert unread_definitions(package, sorted((ROOT / "perfbench").glob("*.py"))) == sorted(TEST_ONLY)


def test_the_surface_walk_skips_reads_inside_the_definition(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def _private():\n    pass\n\n"
        "class Box:\n"
        "    def read(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        return used\n\n"
        "    def lonely(self):\n        return self.lonely\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import Box, recursive\nBox().read()\nx = {'lonely': 1}\n")
    assert unread_definitions([source], [reader]) == ["mod.py: Box.lonely", "mod.py: recursive"]


def test_each_name_is_its_home_module_object():
    for name in ncmoduli.__all__:
        home = importlib.import_module(f"ncmoduli.{ncmoduli._HOME[name]}")
        assert getattr(ncmoduli, name) is getattr(home, name), name


def test_dir_covers_the_public_names_and_submodules():
    listed = set(dir(ncmoduli))
    assert set(ncmoduli.__all__) <= listed
    assert {"elliptic", "quintuple", "acceptance"} <= listed


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ncmoduli.nope
    with pytest.raises(ImportError):
        from ncmoduli import nope


def loaded_modules(code):
    """The modules a fresh interpreter has loaded after ``code``."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    report = "import json, sys; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def loaded_submodules(code):
    """The ``ncmoduli.*`` modules a fresh interpreter has loaded after ``code``."""
    return [m for m in loaded_modules(code) if m.startswith("ncmoduli.")]


def test_import_loads_no_submodule():
    assert loaded_submodules("import ncmoduli") == []


def test_a_name_loads_its_home_module_and_its_imports_only():
    loaded = loaded_submodules("from ncmoduli import orbit_equivalent")
    assert loaded == ["ncmoduli.elliptic", "ncmoduli.errors", "ncmoduli.exact"]


def test_the_package_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, and with it ast, dis and tokenize, and
    # builds each class's methods with exec; start-up pays for all of it
    code = "\n".join(f"import ncmoduli.{module}" for module in (*ncmoduli._EXPORTS, "cli"))
    assert [m for m in loaded_modules(code) if m in ("dataclasses", "inspect")] == []
