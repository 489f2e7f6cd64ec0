"""The package runs on the standard library alone.

numpy and sympy are test-only dependencies: they serve reference checks
in the tests, never the package.  The first test walks the syntax tree of
every module with ``ast``, so an import nested inside a function counts
too; the second blocks numpy outright and runs the code that once used
it; the third collects the whole suite with both blocked, since each test
that needs one imports it with ``pytest.importorskip``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ncmoduli

PACKAGE = Path(ncmoduli.__file__).parent


def _outside_imports(tree):
    """Absolute imports of modules outside the standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield name


def test_every_import_is_relative_or_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        outside += [f"{path.name}: {name}" for name in _outside_imports(tree)]
    assert outside == []


BLOCKED_NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None
import ncmoduli
from ncmoduli.cli import main
from ncmoduli.potential import potential_to_sym_matrix, reconstruct_spectrum
print(reconstruct_spectrum(potential_to_sym_matrix(ncmoduli.conifold_potential())))
sys.exit(main(["map-potential", "-i", sys.argv[1]]))
"""


def test_runs_with_numpy_blocked(tmp_path):
    src = tmp_path / "phi.json"
    src.write_text(
        '[{"cycle": ["a1", "b1", "a2", "b2"], "coeff": "1"},'
        ' {"cycle": ["a1", "b2", "a2", "b1"], "coeff": "-1"}]'
    )
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_NUMPY_PROBE, str(src)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    spectrum, document = result.stdout.split("\n", 1)
    assert spectrum == "[(4, (Fraction(1, 1), Fraction(-1, 2)), 1)]"
    assert '"covering_identities_ok": true' in document


BLOCKED_EXTRAS_COLLECT = """
import sys
sys.modules["numpy"] = None
sys.modules["sympy"] = None
import pytest
sys.exit(pytest.main(["--collect-only", "-q", "-p", "no:cacheprovider", "tests"]))
"""


def test_suite_collects_with_test_extras_blocked():
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_EXTRAS_COLLECT],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    summary = result.stdout.strip().splitlines()[-1]
    assert "collected" in summary and "error" not in summary, summary
