"""Every public name resolves, so a removed name fails here first.

Besides ``ncmoduli.__all__``, the benchmark in ``perfbench/`` reaches a
few names through the submodules; those are listed here too.  The
package loads each submodule on first use; the last tests pin that in a
fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncmoduli

SUBMODULE_NAMES = (
    "quintuple.geometricity_minors",
    "elliptic.random_configuration",
    "elliptic.LAMBDA_WORDS",
    "acceptance.CRITERIA",
    "acceptance._TIME_BUDGETS",
    "cli.potential_from_json",
)


def test_all_names_resolve():
    assert [name for name in ncmoduli.__all__ if not hasattr(ncmoduli, name)] == []


def test_benchmark_submodule_names_resolve():
    importlib.import_module("ncmoduli.cli")
    missing = []
    for dotted in SUBMODULE_NAMES:
        module, name = dotted.split(".")
        if not hasattr(getattr(ncmoduli, module, None), name):
            missing.append(dotted)
    assert missing == []


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
