"""End-to-end runs of the command line entry point, in process and as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

from ncmoduli.cli import main

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


def test_output_is_byte_deterministic(tmp_path, capsys):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    _, first = _run(capsys, ["classify-potential", "-i", src])
    _, second = _run(capsys, ["classify-potential", "-i", src])
    assert first == second
    assert first.endswith("\n")


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
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    outputs = []
    for module in ("ncmoduli", "ncmoduli.cli"):
        result = subprocess.run(
            [sys.executable, "-m", module, "classify-potential", "-i", src],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["f"] == ["2", "1", "1/2", "1/4"]


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


def test_wrong_schema_exits_2(tmp_path):
    src = _write(tmp_path, "phi.json", [{"cycle": ["a1"], "weight": "1"}])
    assert main(["classify-potential", "-i", src]) == 2


def test_hilbert_length_cap_exits_3(tmp_path):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    assert main(["hilbert", "-i", src, "--max-length", "12"]) == 3


def test_dt_count_needs_four_primes(tmp_path):
    src = _write(tmp_path, "phi.json", CLASSICAL)
    assert main(["dt-count", "--potential", src, "--primes", "5"]) == 3


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


def test_elliptic_orbit_test_refuses_off_curve_points(tmp_path, capsys):
    off = dict(ORBIT_BASE, p2=["1", "-1", "5"])
    src = _write(tmp_path, "pair.json", {"first": off, "second": ORBIT_BASE})
    assert main(["elliptic", "orbit-test", "-i", src]) == 3
    assert capsys.readouterr().err == "domain error: second point does not lie on the curve\n"


def test_acceptance_json_mode(tmp_path, capsys):
    out_path = tmp_path / "acceptance.json"
    code = main(["--samples", "5", "acceptance", "--json", "-o", str(out_path)])
    assert code == 0
    entries = json.loads(out_path.read_text())
    assert [e["index"] for e in entries] == list(range(1, 9))
    assert all(e["passed"] for e in entries)


def test_acceptance_refuses_non_positive_samples(capsys):
    for samples in ("0", "-3"):
        assert main(["--samples", samples, "acceptance"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: --samples must be positive, got {samples}\n"


def test_acceptance_table_mode(capsys):
    code, out = _run(capsys, ["--samples", "5", "acceptance"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("criterion ") and "[pass]" in line for line in lines)


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
