"""Every public name resolves, so a removed name fails here first.

Besides ``ncmoduli.__all__``, the benchmark in ``perfbench/`` reaches a
few names through the submodules; those are listed here too.
"""

import importlib

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
