"""End-to-end runs of the command line entry point, in process and as subprocesses."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import count, product
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from ncmoduli import acceptance, dtcount, potential, quintuple, quiver
from ncmoduli.cli import main
from ncmoduli.elliptic import TRANSLATION_NAMES, apply_group_element, random_configuration
from ncmoduli.errors import DomainError
from ncmoduli.exact import GaussianRational, scalar_to_json

CLASSICAL = [
    {"cycle": ["a1", "b1", "a2", "b2"], "coeff": "1"},
    {"cycle": ["a1", "b2", "a2", "b1"], "coeff": "-1"},
]

LINEAR_QUINTUPLE = [
    [[["0", "0"], ["0", "1"]], [["0", "0"], ["-1", "0"]]],
    [[["0", "-1"], ["0", "0"]], [["1", "0"], ["0", "0"]]],
]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _source_env():
    """The environment for a child interpreter that imports the package from ``src/``."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_classify_potential_classical(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    code, out = _run(capsys, ["classify-potential", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == ["2", "1", "1/2", "1/4"]
    assert doc["stability"] == "semistable"
    assert doc["weighted_point"] == {
        "weights": [1, 2, 3, 4],
        "coords": ["2", "1", "1/2", "1/4"],
    }


def test_hilbert_series(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    code, out = _run(capsys, ["hilbert", "-i", src, "--max-length", "8"])
    assert code == 0
    assert json.loads(out) == {"dims": [1, 0, 4, 0, 9, 0, 16, 0, 25]}


def test_classify_quintuple_linear_reference(tmp_path, capsys):
    src = _write(tmp_path, "q.json", LINEAR_QUINTUPLE)
    code, out = _run(capsys, ["classify-quintuple", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["stability"] == "stable"
    assert doc["geometric"] is True
    assert doc["failing_slot"] is None
    assert doc["invariants"] == {"f2": "4", "f4": "4", "g4": "1", "f6": "4"}


def test_malformed_quintuple_documents_exit_2(tmp_path, capsys):
    # a third top-level element, and the string "12" in place of a leaf pair
    extra = LINEAR_QUINTUPLE + [LINEAR_QUINTUPLE[0]]
    packed = json.loads(json.dumps(LINEAR_QUINTUPLE))
    packed[1][1][0] = "12"
    for k, doc in enumerate((extra, packed)):
        src = _write(tmp_path, f"bad{k}.json", doc)
        assert main(["classify-quintuple", "-i", src]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ")


def test_map_potential(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    code, out = _run(capsys, ["map-potential", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["covering_identities_ok"] is True
    assert doc["quintuple_invariants"] == {
        "f2": "1",
        "f4": "1/4",
        "g4": "1/16",
        "f6": "1/16",
    }


def test_package_runs_as_a_module(tmp_path):
    """``python -m ncmoduli`` prints the same bytes as ``python -m ncmoduli.cli``."""
    src = _write(tmp_path, "phi.json", CLASSICAL)
    outputs = []
    for module in ("ncmoduli", "ncmoduli.cli"):
        result = subprocess.run(
            [sys.executable, "-m", module, "classify-potential", "-i", src],
            env=_source_env(),
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["f"] == ["2", "1", "1/2", "1/4"]


# Each subcommand loads the modules it computes with and the ones those
# import, nothing more: (argv, input document, ncmoduli.* modules loaded).
# The document path goes last, after -i or --potential.
POTENTIAL_MODULES = ["cli", "errors", "exact", "potential", "quintuple", "quiver"]
ELLIPTIC_MODULES = ["cli", "elliptic", "errors", "exact"]
LOADING_CASES = [
    (["classify-quintuple", "-i"], LINEAR_QUINTUPLE, ["cli", "errors", "exact", "quintuple"]),
    (["classify-potential", "-i"], CLASSICAL, POTENTIAL_MODULES),
    (["map-potential", "-i"], CLASSICAL, POTENTIAL_MODULES),
    (["hilbert", "--max-length", "4", "-i"], CLASSICAL, ["cli", "errors", "exact", "quiver"]),
    (
        ["elliptic", "check", "-i"],
        {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "-2"]},
        ELLIPTIC_MODULES,
    ),
    (
        ["elliptic", "orbit-test", "-i"],
        {
            "first": {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "-2"]},
            "second": {"lambda": "-3", "p1": ["1", "1/3", "2/3"], "p2": ["1", "-1", "-2"]},
        },
        ELLIPTIC_MODULES,
    ),
    (
        ["dt-count", "--primes", "2,3,5,7", "--potential"],
        CLASSICAL,
        ["cli", "dtcount", "errors", "exact", "quiver"],
    ),
    (
        ["acceptance", "--samples", "1"],
        None,
        ["acceptance", "cli", "dtcount", "elliptic", "errors", "exact", "potential", "quintuple", "quiver"],
    ),
]


@pytest.mark.parametrize(
    "argv, doc, modules", LOADING_CASES, ids=[" ".join(a for a in c[0] if a[0].isalpha()) for c in LOADING_CASES]
)
def test_subcommand_loads_only_its_modules(tmp_path, capsys, argv, doc, modules):
    if doc is not None:
        argv = argv + [_write(tmp_path, "doc.json", doc)]
    script = (
        "import json, sys\n"
        "from ncmoduli.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps(sorted(m[9:] for m in sys.modules if m.startswith('ncmoduli.'))), file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=_source_env(), capture_output=True, timeout=60)
    assert json.loads(result.stderr.splitlines()[-1]) == modules
    # the same exit code and bytes as a run in this process, where every
    # module may already be loaded
    assert result.returncode == 0
    code, out = _run(capsys, argv)
    assert code == 0
    assert out == result.stdout.decode()


# every subcommand as in LOADING_CASES, and acceptance as a table and as JSON
DETERMINISM_CASES = [case[:2] for case in LOADING_CASES if case[0][0] != "acceptance"] + [
    (["acceptance", "--samples", "5"], None),
    (["acceptance", "--samples", "5", "--json"], None),
]


@pytest.mark.parametrize(
    "argv, doc",
    DETERMINISM_CASES,
    ids=[" ".join(a for a in c[0] if a[0].isalpha() or a == "--json") for c in DETERMINISM_CASES],
)
def test_output_is_byte_deterministic(tmp_path, capsys, monkeypatch, argv, doc):
    if doc is not None:
        argv = argv + [_write(tmp_path, "doc.json", doc)]
    outputs = []
    for step in (0.5, 2.0):
        # acceptance times each criterion by this clock: every criterion
        # takes 0.5 s in the first run and 2 s in the second
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=partial(next, count(0, step))))
        code, out = _run(capsys, argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].endswith("\n")


def test_unstable_potential_has_no_weighted_point(tmp_path, capsys):
    src = _write(
        tmp_path, "nil.json", [{"cycle": ["a1", "b1", "a1", "b1"], "coeff": "1"}]
    )
    code, out = _run(capsys, ["classify-potential", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == ["0", "0", "0", "0"]
    assert doc["weighted_point"] is None
    assert doc["stability"] == "unstable"


def test_zero_potential_exits_3(tmp_path):
    src = _write(tmp_path, "zero.json", [])
    assert main(["classify-potential", "-i", src]) == 3


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["classify-potential", "-i", str(path)]) == 2
    # bytes that are not UTF-8 are an input error too, not a traceback
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff[]")
    capsys.readouterr()
    assert main(["classify-potential", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot read {path}: ")
    # nesting deeper than the parser's recursion limit is invalid JSON too
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["classify-quintuple", "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: invalid JSON in {path}: ")


def test_result_too_long_to_print_exits_3(tmp_path, capsys):
    # each invariant is a power of the coefficient, so f4 has about 4,400 digits
    src = _write(tmp_path, "big.json", [{"cycle": ["a1", "b1", "a2", "b2"], "coeff": "1" * 1100}])
    for command in ("classify-potential", "map-potential"):
        assert main([command, "-i", src]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"domain error: result exceeds the {sys.get_int_max_str_digits()}-digit limit for printing an integer\n"
    assert main(["hilbert", "-i", src, "--max-length", "4"]) == 0


def test_exponent_literal_theta_exits_2_at_once(tmp_path):
    # Fraction("1e999999999") would build a billion-digit power of ten
    src = _write(tmp_path, "phi.json", CLASSICAL)
    argv = ["dt-count", "--potential", src, "--primes", "5,7,11,13", "--theta", "1e999999999,-1,2"]
    result = subprocess.run(
        [sys.executable, "-m", "ncmoduli", *argv], capture_output=True, env=_source_env(), timeout=30
    )
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr == b"input error: bad rational literal '1e999999999'\n"


def test_unwritable_output_exits_2(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    out_path = tmp_path / "missing" / "out.json"
    assert main(["classify-potential", "-i", src, "-o", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {out_path}: ")
    assert not out_path.parent.exists()


def test_wrong_schema_exits_2(tmp_path):
    src = _write(tmp_path, "phi.json", [{"cycle": ["a1"], "weight": "1"}])
    assert main(["classify-potential", "-i", src]) == 2


def test_hilbert_length_cap_exits_3(tmp_path):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    assert main(["hilbert", "-i", src, "--max-length", "12"]) == 3


def _long_cycle(length):
    """One aperiodic cycle of ``length`` labels: a1 b1 repeated, closed by a2 b2."""
    return [{"cycle": ["a1", "b1"] * (length // 2 - 1) + ["a2", "b2"], "coeff": "1"}]


def test_words_past_the_cell_bound_exit_3(tmp_path, capsys):
    from ncmoduli.quiver import MAX_WORD_CELLS

    assert MAX_WORD_CELLS == 1000 ** 2
    src = _write(tmp_path, "long.json", _long_cycle(1002))
    for argv in (
        ["classify-potential", "-i", src],
        ["hilbert", "-i", src, "--max-length", "2"],
        ["dt-count", "--potential", src, "--primes", "2,3,5,7"],
    ):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "domain error: the words have 1004004 cells (squared lengths summed), "
            f"above the configured bound {MAX_WORD_CELLS}\n"
        )


def test_words_at_the_cell_bound_are_read(tmp_path, capsys):
    src = _write(tmp_path, "long.json", _long_cycle(1000))
    assert main(["classify-potential", "-i", src]) == 3
    assert "is not quartic" in capsys.readouterr().err
    assert main(["hilbert", "-i", src, "--max-length", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"dims": [1, 0, 4]}


def test_dt_count_needs_four_primes(tmp_path):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    assert main(["dt-count", "--potential", src, "--primes", "5"]) == 3


def test_dt_count_needs_three_weights(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    assert main(["dt-count", "--potential", src, "--primes", "2,3,5,7", "--theta", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: theta needs three comma-separated rationals\n"


def test_dt_count_classical_report(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    code, out = _run(
        capsys, ["dt-count", "--potential", src, "--primes", "2,3,5,7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"2": 12, "3": 36, "5": 150, "7": 392}
    assert doc["polynomial"] == ["0", "0", "1", "1"]
    assert doc["matches_classical"] is True


def test_dt_count_outside_the_chamber_exits_3_at_degenerate_primes(tmp_path, capsys):
    # over 210, every prime divides a relation denominator and none is counted
    scaled = [
        [{"cycle": term["cycle"], "coeff": str(scale * int(term["coeff"]))} for term in CLASSICAL]
        for scale in (210, Fraction(1, 210))
    ]
    for doc in (CLASSICAL, *scaled):
        src = _write(tmp_path, "phi.json", doc)
        assert main(["dt-count", "--potential", src, "--theta=-2,1,1", "--primes", "2,3,5,7"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside the framed chamber" in captured.err


def test_elliptic_check(tmp_path, capsys):
    cfg = {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "-2"]}
    src = _write(tmp_path, "cfg.json", cfg)
    code, out = _run(capsys, ["elliptic", "check", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["p1_on_curve"] is True
    assert doc["p2_on_curve"] is True
    assert doc["admissible"] is True


def test_elliptic_check_flags_two_torsion(tmp_path, capsys):
    cfg = {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "1", "0"]}
    src = _write(tmp_path, "cfg.json", cfg)
    code, out = _run(capsys, ["elliptic", "check", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["p2_on_curve"] is True
    assert doc["admissible"] is False


def test_elliptic_orbit_test_round_trip(tmp_path, capsys):
    base = {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "-2"]}
    # translate p1 by t1: (l0(x - y) : l1 x - l0 y : l0(l0 - l1) z)
    # with l0 = -3, l1 = 1: (-3*(-2) : -1 + 3 : -3*(-4)*2) = (6 : 2 : 24),
    # normalized (1 : 1/3 : 2/3)
    moved = dict(base, p1=["1", "1/3", "2/3"])
    src = _write(tmp_path, "pair.json", {"first": base, "second": moved})
    code, out = _run(capsys, ["elliptic", "orbit-test", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["witness"] == {
        "lambda_word": [],
        "translate_first": "t1",
        "translate_second": None,
        "flip": False,
    }


def test_elliptic_orbit_test_negative(tmp_path, capsys):
    base = {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "-2"]}
    # a configuration over 7/3, outside the six-element parameter orbit of -3
    other = {"lambda": "7/3", "p1": ["3", "1", "2"], "p2": ["25/9", "1", "-40/27"]}
    src = _write(tmp_path, "pair.json", {"first": base, "second": other})
    code, out = _run(capsys, ["elliptic", "orbit-test", "-i", src])
    assert code == 0
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert doc["witness"] is None


ORBIT_BASE = {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "-2"]}

# (configuration, exit code, stderr); both elliptic commands parse a
# configuration the same way, and read the whole document before checking
# any value in it
CONFIGURATION_ERRORS = [
    ({"lambda": "-3", "p1": ["-1", "1", "2"]}, 2, "input error: configuration needs lambda, p1 and p2"),
    (dict(ORBIT_BASE, p1=["-1", "1"]), 2, "input error: p1 must be a list of three scalars"),
    (dict(ORBIT_BASE, p2="x"), 2, "input error: p2 must be a list of three scalars"),
    (dict(ORBIT_BASE, p1=["-1", "1", "2/0"]), 2, "input error: bad rational literal '2/0'"),
    (dict(ORBIT_BASE, p1=["-1", "1", "1e5"]), 2, "input error: bad rational literal '1e5'"),
    (
        dict(ORBIT_BASE, **{"lambda": "1"}),
        3,
        "domain error: degenerate pencil parameter (1 : 1); the affine value must avoid 0, 1 and infinity",
    ),
    (dict(ORBIT_BASE, p2=["0", "0", "0"]), 3, "domain error: (0 : 0 : 0) is not a point"),
    (dict(ORBIT_BASE, **{"lambda": "0"}, p1=["1", "2"]), 2, "input error: p1 must be a list of three scalars"),
]


def test_elliptic_configuration_errors(tmp_path, capsys):
    for k, (cfg, code, message) in enumerate(CONFIGURATION_ERRORS):
        check = _write(tmp_path, f"check{k}.json", cfg)
        orbit = _write(tmp_path, f"orbit{k}.json", {"first": ORBIT_BASE, "second": cfg})
        for argv in (["elliptic", "check", "-i", check], ["elliptic", "orbit-test", "-i", orbit]):
            assert main(argv) == code, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n", argv


# -- the contract of the elliptic commands on a seeded sweep -----------


def _configuration_document(cfg):
    """A configuration in the CLI's form (its parameter pair has l1 = 1)."""
    doc = {"lambda": scalar_to_json(cfg.lam.affine)}
    for key, pt in (("p1", cfg.p1), ("p2", cfg.p2)):
        doc[key] = [scalar_to_json(c) for c in (pt.x, pt.y, pt.z)]
    return doc


# the faults a mutated document may carry; the first four make it malformed
_MALFORMED = ("float", "exponent", "zero-denominator", "missing")
_FAULTS = ("none",) + _MALFORMED + ("gaussian-lambda", "off-curve", "branch")


def _mutated(rng, doc):
    """(kind, doc) with at most one fault put into a configuration document."""
    doc = json.loads(json.dumps(doc))
    kind = rng.choice(_FAULTS)
    key = rng.choice(("p1", "p2"))
    slot = rng.randrange(3)
    if kind == "float":
        doc[key][slot] = rng.choice((0.5, -2.0, 1.0))
    elif kind == "exponent":
        doc[key][slot] = "1e3"
    elif kind == "zero-denominator":
        doc[rng.choice(("lambda", key))] = "1/0"
    elif kind == "missing":
        del doc[rng.choice(("lambda", "p1", "p2"))]
    elif kind == "gaussian-lambda":
        doc["lambda"] = {"re": doc["lambda"], "im": rng.choice(("1", "-1/2", "3/7"))}
    elif kind == "off-curve":
        z, shift = doc[key][2], rng.randint(1, 3)
        if isinstance(z, dict):
            z["re"] = str(Fraction(z["re"]) + shift)
        else:
            doc[key][2] = str(Fraction(z) + shift)
    elif kind == "branch":
        # a 2-torsion point: on the curve, with Z = 0
        doc["p2"] = rng.choice((["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"], [doc["lambda"], "1", "0"]))
    return kind, doc


def _check_contract(capsys, argv):
    """The exit code and stdout of argv after checking the CLI contract on its output."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3), argv
    if code:
        prefix = "input error: " if code == 2 else "domain error: "
        assert captured.out == "", argv
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
        return code, captured.out
    assert captured.err == "", argv
    json.loads(captured.out)
    assert main(argv) == 0 and capsys.readouterr() == (captured.out, ""), argv
    return code, captured.out


def test_elliptic_commands_keep_the_contract_on_mutated_documents(tmp_path, capsys):
    rng = Random(64)
    seen = set()
    for k in range(300):
        first = random_configuration(rng)
        if k % 2 == 0:
            kind, doc = _mutated(rng, _configuration_document(first))
            argv = ["elliptic", "check", "-i", _write(tmp_path, f"check{k}.json", doc)]
        else:
            if rng.random() < 0.6:
                # translations and the complement keep l1 = 1, so the image has CLI form
                word = rng.choice(((), ("complement",)))
                tr1, tr2 = (rng.choice((None,) + TRANSLATION_NAMES) for _ in range(2))
                second = apply_group_element(first, word, tr1, tr2, rng.random() < 0.3)
            else:
                second = random_configuration(rng)
            pair = {"first": _configuration_document(first), "second": _configuration_document(second)}
            which = rng.choice(("first", "second"))
            kind, pair[which] = _mutated(rng, pair[which])
            if rng.random() < 0.05:
                kind = "missing"
                del pair[which]
            argv = ["elliptic", "orbit-test", "-i", _write(tmp_path, f"orbit{k}.json", pair)]
            if rng.random() < 0.5:
                argv.append("--include-involution")
        code, _ = _check_contract(capsys, argv)
        # a malformed document is refused as input whatever else is wrong
        assert code == 2 or kind not in _MALFORMED, argv
        seen.add((argv[1], kind, code))
    # every command meets every kind of fault, and every exit code occurs
    assert {(command, kind) for command, kind, _ in seen} >= set(product(("check", "orbit-test"), _FAULTS))
    assert {code for _, _, code in seen} == {0, 2, 3}


# -- the contract of the potential and tensor commands on a seeded sweep --

DOCUMENT_COMMANDS = ("classify-potential", "map-potential", "classify-quintuple")
# the faults of a potential or tensor document: "rewritten" writes the same
# value another way, the next five make the document malformed, and the
# last two leave it well formed outside the domain; a tensor has no words
_DOCUMENT_MALFORMED = ("float", "exponent", "zero-denominator", "missing", "wrong-type")
_DOCUMENT_FAULTS = ("none", "rewritten") + _DOCUMENT_MALFORMED + ("zero", "bad-word")


def _faults(command):
    return _DOCUMENT_FAULTS[:-1] if command == "classify-quintuple" else _DOCUMENT_FAULTS


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.randrange(2) else Fraction(0)


def _potential_case(rng):
    """A random nonzero symmetric matrix N and the document of its potential."""
    rows = [[0] * 4 for _ in range(4)]
    while not any(map(any, rows)):
        for r in range(4):
            for c in range(r, 4):
                rows[r][c] = rows[c][r] = _random_rational(rng)
    n = potential.SymmetricPotentialMatrix(rows)
    terms = potential.sym_matrix_to_potential(n).terms
    return n, [{"cycle": list(word), "coeff": str(c)} for word, c in sorted(terms.items())]


def _random_scalar(rng):
    """A random rational, with an imaginary part one time in four."""
    return GaussianRational(_random_rational(rng), _random_rational(rng) if rng.randrange(4) == 0 else 0)


def _tensor_case(rng):
    """A random tensor and its document."""
    entries = [[[[_random_scalar(rng) for _ in range(2)] for _ in range(2)] for _ in range(2)] for _ in range(2)]
    q = quintuple.Quintuple(entries)
    return q, q.to_json()


def _rewritten(literal):
    """The same scalar with its numerator and denominator doubled."""
    if isinstance(literal, dict):
        return {part: _rewritten(v) for part, v in literal.items()}
    value = Fraction(literal)
    return f"{2 * value.numerator}/{2 * value.denominator}"


def _mutated_document(rng, command, doc, kind):
    """A copy of a potential or tensor document with the fault ``kind`` put into it."""
    doc = json.loads(json.dumps(doc))
    if command == "classify-quintuple":
        holder, key = doc[rng.randrange(2)][rng.randrange(2)][rng.randrange(2)], rng.randrange(2)
        leaves = [(c, l) for a in doc for b in a for c in b for l in range(2)]
    else:
        holder, key = rng.choice(doc), "coeff"
        leaves = [(term, "coeff") for term in doc]
    if kind == "rewritten":
        holder[key] = _rewritten(holder[key])
        if key == "coeff":
            # a cyclic word read from another arrow
            shift = rng.randint(1, 3)
            holder["cycle"] = holder["cycle"][shift:] + holder["cycle"][:shift]
    elif kind == "float":
        holder[key] = rng.choice((0.5, -2.0, 1.0))
    elif kind == "exponent":
        holder[key] = "1e3"
    elif kind == "zero-denominator":
        holder[key] = "1/0"
    elif kind == "missing":
        del holder[rng.choice(("cycle", "coeff")) if key == "coeff" else key]
    elif kind == "wrong-type":
        holder[key] = rng.choice((3, True, None, ["1"]))
    elif kind == "zero":
        for node, leaf in leaves:
            node[leaf] = "0"
    elif kind == "bad-word":
        cycle = holder["cycle"]
        holder["cycle"] = rng.choice((cycle[:-1], cycle[:2] + ["c1"] + cycle[3:], []))
    return doc


def _weighted_point_or_none(fn, value):
    try:
        return fn(value).to_json()
    except DomainError:
        return None


def _classify_potential(n):
    return {
        "f": potential.invariants_potential(n).to_json(),
        "stability": potential.classify_stability_potential(n),
        "weighted_point": _weighted_point_or_none(potential.weighted_point_potential, n),
        "matrix": n.to_json(),
    }


def _map_potential(n):
    image = potential.potential_to_quintuple(n)
    return {
        "matrix": n.to_json(),
        "quintuple": image.to_json(),
        "quintuple_invariants": quintuple.invariants(image).to_json(),
        "covering_identities_ok": potential.verify_covering_identities(n),
    }


def _classify_quintuple(q):
    geometric, slot = quintuple.is_geometric(q)
    return {
        "invariants": quintuple.invariants(q).to_json(),
        "stability": quintuple.classify_stability(q),
        "weighted_point": _weighted_point_or_none(quintuple.weighted_point, q),
        "geometric": geometric,
        "failing_slot": slot,
    }


# the document each command prints, from the library's own answers
_LIBRARY_ANSWERS = {
    "classify-potential": _classify_potential,
    "map-potential": _map_potential,
    "classify-quintuple": _classify_quintuple,
}


def test_potential_and_tensor_commands_keep_the_contract_on_mutated_documents(tmp_path, capsys):
    rng = Random(65)
    seen = set()
    for k in range(300):
        command = DOCUMENT_COMMANDS[k % 3]
        value, doc = (_tensor_case if command == "classify-quintuple" else _potential_case)(rng)
        kind = rng.choice(_faults(command))
        doc = _mutated_document(rng, command, doc, kind)
        argv = [command, "-i", _write(tmp_path, f"doc{k}.json", doc)]
        code, out = _check_contract(capsys, argv)
        if kind in _DOCUMENT_MALFORMED:
            assert code == 2, argv
        elif kind in ("zero", "bad-word"):
            assert code == 3, argv
        else:
            # the value itself, however it is written, is in the domain
            assert code == 0, argv
            assert json.loads(out) == _LIBRARY_ANSWERS[command](value), argv
        seen.add((command, kind, code))
    # every command meets every kind of fault, and every exit code occurs
    assert {(command, kind) for command, kind, _ in seen} == {(c, kind) for c in DOCUMENT_COMMANDS for kind in _faults(c)}
    assert {code for _, _, code in seen} == {0, 2, 3}


# -- the contract of hilbert and dt-count on a seeded sweep --------------

COUNT_COMMANDS = ("hilbert", "dt-count")
# besides the document faults, each command meets faults in its options:
# the first three of dt-count are malformed, the others well formed outside
# the domain; "zero", a document with every coefficient 0, is in the domain here
_OPTION_FAULTS = {
    "hilbert": ("length", "vertex"),
    "dt-count": ("prime-list", "theta-parts", "theta-literal", "not-prime", "too-few", "prime-bound", "chamber"),
}
_OPTION_MALFORMED = ("prime-list", "theta-parts", "theta-literal")
_THETAS = ("-1,-1,2", "-1/2,-1/2,1", " -1, -1, 2", "1,1,-2")


def _count_faults(command):
    return _DOCUMENT_FAULTS + _OPTION_FAULTS[command]


def _count_case(rng):
    """A random homogeneous potential of degree 2, 4 or 6, and its document."""
    terms, length = {}, 2 * rng.randint(1, 3)
    for _ in range(rng.randint(1, 4)):
        # a-arrows and b-arrows alternate around a cycle of the conifold quiver
        word = tuple(rng.choice(("a1", "a2") if k % 2 == 0 else ("b1", "b2")) for k in range(length))
        terms[word] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
    return terms, [{"cycle": list(word), "coeff": str(c)} for word, c in terms.items()]


def _count_options(rng, command, kind):
    """The options of one run, with the fault ``kind`` when it is an option fault, and the
    library's own answer as a function of the potential, for the runs that succeed."""
    if command == "hilbert":
        vertices = [rng.choice(("v0", "v1")) for _ in range(2)]
        length = rng.choice((-1, 9, 12)) if kind == "length" else rng.randint(0, 6)
        if kind == "vertex":
            vertices[rng.randrange(2)] = rng.choice(("v2", "a1", ""))
        options = ["--max-length", str(length), "--source", vertices[0], "--target", vertices[1]]
        return options, lambda phi: {"dims": quiver.graded_dimension(phi, *vertices, length)}
    primes = [str(p) for p in rng.sample((2, 3, 5, 7), 4)]
    theta = rng.choice(_THETAS)
    if kind == "prime-list":
        primes[rng.randrange(4)] = rng.choice(("x", "2.5", "1/2"))
    elif kind == "not-prime":
        primes[rng.randrange(4)] = rng.choice(("0", "1", "4", "-3"))
    elif kind == "too-few":
        primes = primes[:3]
    elif kind == "prime-bound":
        primes[rng.randrange(4)] = rng.choice(("37", "101"))
    elif kind == "theta-parts":
        theta = rng.choice(("-1,2", "-1,-1,2,0", ""))
    elif kind == "theta-literal":
        theta = rng.choice(("1e3,-1,2", "-1,1/0,2", "-1,-1,2.0.0", "-1,-1,x"))
    elif kind == "chamber":
        theta = rng.choice(("-2,1,1", "-4,2,2"))

    def answer(phi):
        stability = dtcount.StabilityParameter(*map(Fraction, theta.split(",")))
        return dtcount.counting_report(phi, stability, list(map(int, primes))).to_json()

    return ["--primes=" + ",".join(primes), "--theta=" + theta], answer


def test_hilbert_and_dt_count_keep_the_contract_on_mutated_inputs(tmp_path, capsys):
    rng = Random(66)
    seen = set()
    for k in range(300):
        command = COUNT_COMMANDS[k % 2]
        kind = rng.choice(_count_faults(command))
        terms, doc = _count_case(rng)
        if kind in _DOCUMENT_FAULTS:
            doc = _mutated_document(rng, command, doc, kind)
        options, answer = _count_options(rng, command, kind)
        path = _write(tmp_path, f"phi{k}.json", doc)
        argv = [command, "-i" if command == "hilbert" else "--potential", path] + options
        code, out = _check_contract(capsys, argv)
        if kind in _DOCUMENT_MALFORMED + _OPTION_MALFORMED:
            assert code == 2, argv
        elif kind in ("none", "rewritten", "zero"):
            # the potential itself, however it is written, is in the domain
            assert code == 0, argv
            value = {word: 0 for word in terms} if kind == "zero" else terms
            assert json.loads(out) == answer(quiver.CyclicPotential(quiver.conifold_quiver(), value)), argv
        else:
            assert code == 3, argv
        seen.add((command, kind, code))
    # every command meets every kind of fault, and every exit code occurs
    assert {(command, kind) for command, kind, _ in seen} == {(c, kind) for c in COUNT_COMMANDS for kind in _count_faults(c)}
    assert {code for _, _, code in seen} == {0, 2, 3}


def test_elliptic_orbit_test_refuses_off_curve_points(tmp_path, capsys):
    off = dict(ORBIT_BASE, p2=["1", "-1", "5"])
    src = _write(tmp_path, "pair.json", {"first": off, "second": ORBIT_BASE})
    assert main(["elliptic", "orbit-test", "-i", src]) == 3
    assert capsys.readouterr().err == "domain error: second point does not lie on the curve\n"


def test_acceptance_json_mode(tmp_path, capsys):
    out_path = tmp_path / "acceptance.json"
    code = main(["acceptance", "--samples", "5", "--json", "-o", str(out_path)])
    assert code == 0
    entries = json.loads(out_path.read_text())
    assert [e["index"] for e in entries] == list(range(1, 9))
    assert all(e["passed"] for e in entries)


def test_acceptance_refuses_non_positive_samples(capsys):
    for samples in ("0", "-3"):
        assert main(["acceptance", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: --samples must be positive, got {samples}\n"


def test_acceptance_refuses_samples_above_the_cap(capsys):
    from ncmoduli.acceptance import MAX_SAMPLES

    over = MAX_SAMPLES + 1
    assert main(["acceptance", "--samples", str(over)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: samples must be at most {MAX_SAMPLES}, got {over}\n"


def test_acceptance_table_mode(capsys):
    code, out = _run(capsys, ["acceptance", "--samples", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("criterion ") and "[pass]" in line for line in lines)


def test_acceptance_table_goes_to_the_output_file(tmp_path, capsys):
    out_path = tmp_path / "acceptance.txt"
    assert main(["acceptance", "--samples", "5", "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    lines = out_path.read_text().splitlines()
    assert [line.split(" [")[0] for line in lines] == [f"criterion {k}" for k in range(1, 9)]
    assert all("[pass]" in line for line in lines)


def test_sweep_options_belong_to_acceptance(tmp_path, capsys):
    code, out = _run(capsys, ["acceptance", "--seed", "5", "--samples", "5"])
    assert code == 0
    assert out.count("[pass]") == 8
    src = _write(tmp_path, "phi.json", CLASSICAL)
    for argv in (["hilbert", "--samples", "5", "-i", src, "--max-length", "4"], ["--samples", "5", "acceptance"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ncmoduli ") and "\nncmoduli: error: " in captured.err, argv


def test_acceptance_default_seed(monkeypatch):
    import ncmoduli.acceptance as acceptance

    seeds = []

    def record(seed, samples):
        seeds.append(seed)
        return []

    monkeypatch.setattr(acceptance, "run_acceptance", record)
    assert main(["acceptance"]) == 0
    assert main(["acceptance", "--seed", "5"]) == 0
    assert seeds == [20240817, 5]


# Inputs with non-integer and Gaussian values, and the exact output
# documents the command printed for them before Q(i) was stored as
# integers.  The CLI writes sorted keys with two-space indentation, so the
# literal fixes every output byte.
GOLDEN_POTENTIAL = [
    {"cycle": ["a1", "b1", "a2", "b2"], "coeff": "3/2"},
    {"cycle": ["a1", "b2", "a2", "b1"], "coeff": "-2/3"},
    {"cycle": ["a1", "b1", "a1", "b2"], "coeff": "5/7"},
    {"cycle": ["a2", "b2", "a2", "b2"], "coeff": "-1/4"},
    {"cycle": ["a2", "b1", "a1", "b1"], "coeff": "1/3"},
]
GOLDEN_MATRIX = [
    ["0", "5/14", "1/6", "3/4"], ["5/14", "0", "-1/3", "0"],
    ["1/6", "-1/3", "0", "0"], ["3/4", "0", "0", "-1/4"],
]
GOLDEN_TENSOR = [
    [[[{"re": "1/2", "im": "1"}, "0"], ["2/3", {"re": "0", "im": "-1/3"}]],
     [["1", "-1/5"], [{"re": "3", "im": "1/2"}, "0"]]],
    [[["-1", {"re": "1/4", "im": "1/4"}], ["0", "5/6"]],
     [[{"re": "0", "im": "2"}, "1"], ["-3/2", "1/7"]]],
]
GOLDEN_TENSOR_INVARIANTS = [
    {"im": "57/28", "re": "-23/84"},
    {"im": "68839/7056", "re": "-4091/1470"},
    {"im": "8399/5040", "re": "4769/5040"},
    {"im": "6077509/1975680", "re": "-92526641/5927040"},
]
GOLDEN_CASES = [
    (
        ["classify-potential"],
        GOLDEN_POTENTIAL,
        {
            "f": ["13/6", "97/72", "6091/6048", "63559/72576"],
            "matrix": GOLDEN_MATRIX,
            "stability": "semistable",
            "weighted_point": {
                "coords": ["13/6", "97/72", "6091/6048", "63559/72576"],
                "weights": [1, 2, 3, 4],
            },
        },
    ),
    (
        ["map-potential"],
        GOLDEN_POTENTIAL,
        {
            "covering_identities_ok": True,
            "matrix": GOLDEN_MATRIX,
            "quintuple": [
                [[["0", "5/14"], ["1/6", "3/4"]], [["5/14", "0"], ["-1/3", "0"]]],
                [[["1/6", "-1/3"], ["0", "0"]], [["3/4", "0"], ["0", "-1/4"]]],
            ],
            "quintuple_invariants": {
                "f2": "97/72",
                "f4": "63559/72576",
                "f6": "58490113/73156608",
                "g4": "73/1008",
            },
        },
    ),
    (
        ["classify-quintuple"],
        GOLDEN_TENSOR,
        {
            "failing_slot": None,
            "geometric": True,
            "invariants": dict(zip(("f2", "f4", "g4", "f6"), GOLDEN_TENSOR_INVARIANTS)),
            "stability": "stable",
            "weighted_point": {"coords": GOLDEN_TENSOR_INVARIANTS, "weights": [2, 4, 4, 6]},
        },
    ),
    (
        ["elliptic", "check"],
        {"lambda": "1/36", "p1": ["9/4", "1", "5/2"], "p2": ["16/9", "1", "14/9"]},
        {"admissible": True, "lambda": "1/36", "p1_on_curve": True, "p2_on_curve": True},
    ),
    (
        ["elliptic", "check"],
        {
            "lambda": {"re": "2", "im": "-1"},
            "p1": ["2", "1", {"re": "1", "im": "1"}],
            "p2": [{"re": "2", "im": "-1"}, "1", "0"],
        },
        {
            "admissible": False,
            "lambda": {"im": "-1", "re": "2"},
            "p1_on_curve": True,
            "p2_on_curve": True,
        },
    ),
    (
        ["elliptic", "check"],
        {"lambda": "-3", "p1": ["-1", "1", "3"], "p2": ["1", "-1", "-2"]},
        {"admissible": True, "lambda": "-3", "p1_on_curve": False, "p2_on_curve": True},
    ),
    (
        ["elliptic", "check"],
        {"lambda": "-3", "p1": ["-1", "1", "2"], "p2": ["1", "-1", "5"]},
        {"admissible": False, "lambda": "-3", "p1_on_curve": True, "p2_on_curve": False},
    ),
]


def test_golden_outputs(tmp_path, capsys):
    for k, (command, doc, expected) in enumerate(GOLDEN_CASES):
        src = _write(tmp_path, f"golden{k}.json", doc)
        code, out = _run(capsys, command + ["-i", src])
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n", command


def test_dt_count_prime_bound_exits_3(tmp_path, capsys):
    from ncmoduli.dtcount import MAX_COUNT_PRIME
    from ncmoduli.exact import is_prime

    larger = next(q for q in range(MAX_COUNT_PRIME + 1, 2 * MAX_COUNT_PRIME) if is_prime(q))
    src = _write(tmp_path, "phi.json", CLASSICAL)
    code = main(["dt-count", "--potential", src, "--primes", f"2,3,5,7,{larger}"])
    assert code == 3
    assert "exceeds the configured bound" in capsys.readouterr().err


# dt-count documents printed for a diagonal deformed and a dense random
# potential before the counting kernel was rewritten.  Both exclude 2 and
# 3; the dense one has a 1/3 coefficient, so 3 has no count at all.
GOLDEN_DT_COUNT_CASES = [
    (
        [
            {"cycle": ["a1", "b1", "a1", "b1"], "coeff": "1"},
            {"cycle": ["a1", "b2", "a1", "b2"], "coeff": "-1"},
            {"cycle": ["a2", "b1", "a2", "b1"], "coeff": "3"},
            {"cycle": ["a2", "b2", "a2", "b2"], "coeff": "1/2"},
        ],
        {
            "counts": {"11": 12, "13": 14, "2": 8, "3": 6, "5": 6, "7": 32},
            "euler_characteristic": "-238",
            "excluded": [2, 3],
            "matches_classical": False,
            "note": "cubic fit consistent across included primes",
            "polynomial": ["-713/2", "265/2", "-29/2", "1/2"],
            "primes": [2, 3, 5, 7, 11, 13],
            "theta": ["-1", "-1", "2"],
        },
    ),
    (
        [
            {"cycle": ["a1", "b1", "a1", "b1"], "coeff": "1"},
            {"cycle": ["a1", "b1", "a1", "b2"], "coeff": "4"},
            {"cycle": ["a1", "b1", "a2", "b1"], "coeff": "-2"},
            {"cycle": ["a1", "b1", "a2", "b2"], "coeff": "6"},
            {"cycle": ["a1", "b2", "a1", "b2"], "coeff": "-2"},
            {"cycle": ["a1", "b2", "a2", "b1"], "coeff": "2"},
            {"cycle": ["a1", "b2", "a2", "b2"], "coeff": "2/3"},
            {"cycle": ["a2", "b1", "a2", "b1"], "coeff": "4"},
            {"cycle": ["a2", "b1", "a2", "b2"], "coeff": "-2"},
            {"cycle": ["a2", "b2", "a2", "b2"], "coeff": "1"},
        ],
        {
            "counts": {"11": 12, "13": 14, "2": 12, "5": 6, "7": 8},
            "euler_characteristic": "2",
            "excluded": [2, 3],
            "matches_classical": False,
            "note": "cubic fit consistent across included primes",
            "polynomial": ["1", "1", "0", "0"],
            "primes": [2, 3, 5, 7, 11, 13],
            "theta": ["-1", "-1", "2"],
        },
    ),
]


def test_golden_dt_count_outputs(tmp_path, capsys):
    for k, (doc, expected) in enumerate(GOLDEN_DT_COUNT_CASES):
        src = _write(tmp_path, f"golden_dt{k}.json", doc)
        code, out = _run(capsys, ["dt-count", "--potential", src, "--primes", "2,3,5,7,11,13"])
        assert code == 0
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
