"""Command line front end.

All numeric payloads travel as strings ("p/q" for rationals, re/im pairs
for Q(i)); output JSON is emitted with sorted keys and a fixed layout so
repeated runs are byte-identical.  Exit codes: 0 on success, 2 for
malformed input documents, 3 for domain violations; the acceptance
subcommand exits 1 when a criterion fails.  Each handler imports the
modules it computes with, so a subcommand loads only those.  Each option
belongs to the subcommand that reads it: ``--seed`` and ``--samples``,
the sizes of the sampled sweeps, are options of ``acceptance``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, SchemaError


def _read_document(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _write_text(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _write_document(doc, path: str) -> None:
    _write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", path)


def potential_from_json(doc):
    """The ``CyclicPotential`` of a list of {"cycle": [labels], "coeff": "p/q"}."""
    from .exact import rational_from_json
    from .quiver import CyclicPotential, conifold_quiver

    if not isinstance(doc, list):
        raise SchemaError("potential document must be a list of terms")
    terms = {}
    quiver = conifold_quiver()
    for item in doc:
        if not isinstance(item, dict) or set(item) != {"cycle", "coeff"}:
            raise SchemaError("each term needs exactly the keys cycle and coeff")
        cycle = item["cycle"]
        if not isinstance(cycle, list) or not all(isinstance(s, str) for s in cycle):
            raise SchemaError("cycle must be a list of arrow labels")
        coeff = rational_from_json(item["coeff"])
        key = tuple(cycle)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return CyclicPotential(quiver, terms)


def _configuration_parts(doc):
    """The parameter and both points of a configuration document.

    The whole document is read before any value is checked, so a malformed
    document is a ``SchemaError`` even when a value in it is also out of
    range.  Curve membership is not checked here.
    """
    from .elliptic import EllPoint, LambdaPair
    from .exact import scalar_from_json

    if not isinstance(doc, dict) or not {"lambda", "p1", "p2"} <= set(doc):
        raise SchemaError("configuration needs lambda, p1 and p2")
    lam = scalar_from_json(doc["lambda"])
    points = []
    for key in ("p1", "p2"):
        coords = doc[key]
        if not isinstance(coords, list) or len(coords) != 3:
            raise SchemaError(f"{key} must be a list of three scalars")
        points.append([scalar_from_json(c) for c in coords])
    return LambdaPair.from_affine(lam), EllPoint(*points[0]), EllPoint(*points[1])


def _cmd_classify_quintuple(args) -> int:
    from .quintuple import Quintuple, classify_stability, invariants, is_geometric, weighted_point

    doc = _read_document(args.input)
    q = Quintuple.from_json(doc)
    inv = invariants(q)
    try:
        point = weighted_point(q).to_json()
    except DomainError:
        point = None
    geo, slot = is_geometric(q)
    _write_document(
        {
            "invariants": inv.to_json(),
            "stability": classify_stability(q),
            "weighted_point": point,
            "geometric": geo,
            "failing_slot": slot,
        },
        args.output,
    )
    return 0


def _cmd_classify_potential(args) -> int:
    from .potential import (
        classify_stability_potential,
        invariants_potential,
        potential_to_sym_matrix,
        weighted_point_potential,
    )

    doc = _read_document(args.input)
    n = potential_to_sym_matrix(potential_from_json(doc))
    inv = invariants_potential(n)
    try:
        point = weighted_point_potential(n).to_json()
    except DomainError:
        point = None
    _write_document(
        {
            "f": inv.to_json(),
            "stability": classify_stability_potential(n),
            "weighted_point": point,
            "matrix": n.to_json(),
        },
        args.output,
    )
    return 0


def _cmd_map_potential(args) -> int:
    from .potential import potential_to_quintuple, potential_to_sym_matrix, verify_covering_identities
    from .quintuple import invariants

    doc = _read_document(args.input)
    n = potential_to_sym_matrix(potential_from_json(doc))
    image = potential_to_quintuple(n)
    _write_document(
        {
            "matrix": n.to_json(),
            "quintuple": image.to_json(),
            "quintuple_invariants": invariants(image).to_json(),
            "covering_identities_ok": verify_covering_identities(n),
        },
        args.output,
    )
    return 0


def _cmd_hilbert(args) -> int:
    from .quiver import graded_dimension

    doc = _read_document(args.input)
    phi = potential_from_json(doc)
    dims = graded_dimension(phi, args.source, args.target, args.max_length)
    _write_document({"dims": dims}, args.output)
    return 0


def _cmd_elliptic_check(args) -> int:
    from .elliptic import on_curve
    from .exact import scalar_to_json

    pair, *points = _configuration_parts(_read_document(args.input))
    memberships = [on_curve(pair, pt) for pt in points]
    _write_document(
        {
            "lambda": scalar_to_json(pair.affine),
            "p1_on_curve": memberships[0],
            "p2_on_curve": memberships[1],
            "admissible": memberships[1] and not points[1].z.is_zero(),
        },
        args.output,
    )
    return 0


def _cmd_elliptic_orbit_test(args) -> int:
    from .elliptic import EllipticConfiguration, orbit_equivalent

    doc = _read_document(args.input)
    if not isinstance(doc, dict) or not {"first", "second"} <= set(doc):
        raise SchemaError("orbit test needs first and second configurations")
    first = EllipticConfiguration(*_configuration_parts(doc["first"]))
    second = EllipticConfiguration(*_configuration_parts(doc["second"]))
    equivalent, witness = orbit_equivalent(
        first, second, include_involution=args.include_involution
    )
    _write_document({"equivalent": equivalent, "witness": witness}, args.output)
    return 0


def _parse_int_list(text: str, what: str):
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise SchemaError(f"bad {what} list {text!r}") from exc


def _cmd_dt_count(args) -> int:
    from .dtcount import StabilityParameter, counting_report
    from .exact import _rational_literal

    doc = _read_document(args.potential)
    phi = potential_from_json(doc)
    primes = _parse_int_list(args.primes, "prime")
    theta_parts = args.theta.split(",")
    if len(theta_parts) != 3:
        raise SchemaError("theta needs three comma-separated rationals")
    theta = StabilityParameter(*map(_rational_literal, theta_parts))
    report = counting_report(phi, theta, primes)
    _write_document(report.to_json(), args.output)
    return 0


def _cmd_acceptance(args) -> int:
    from .acceptance import DEFAULT_SEED, run_acceptance

    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_acceptance(seed=seed, samples=args.samples)
    if args.json:
        _write_document([r.to_json() for r in results], args.output)
    else:
        _write_text("".join(r.line() + "\n" for r in results), args.output)
    return 0 if all(r.passed for r in results) else 1


def _add_io_arguments(parser) -> None:
    parser.add_argument("-i", "--input", default="-", help="input JSON file, - for stdin")
    parser.add_argument("-o", "--output", default="-", help="output JSON file, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncmoduli",
        description="Exact moduli computations for conifold potentials and 2x2x2x2 tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-quintuple", help="invariants and stability of a tensor")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_classify_quintuple)

    p = sub.add_parser("classify-potential", help="invariants and stability of a potential")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_classify_potential)

    p = sub.add_parser("map-potential", help="image of a potential under the covering map")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_map_potential)

    p = sub.add_parser("hilbert", help="graded dimensions of the Jacobi algebra")
    _add_io_arguments(p)
    p.add_argument("--source", default="v0", help="source vertex")
    p.add_argument("--target", default="v0", help="target vertex")
    p.add_argument("--max-length", type=int, required=True, help="largest path length")
    p.set_defaults(handler=_cmd_hilbert)

    ell = sub.add_parser("elliptic", help="curve configurations and orbit tests")
    ell_sub = ell.add_subparsers(dest="subcommand", required=True)
    p = ell_sub.add_parser("check", help="membership and admissibility of a configuration")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_elliptic_check)
    p = ell_sub.add_parser("orbit-test", help="decide orbit equivalence of two configurations")
    _add_io_arguments(p)
    p.add_argument(
        "--include-involution",
        action="store_true",
        help="also allow the simultaneous hyperelliptic flip",
    )
    p.set_defaults(handler=_cmd_elliptic_orbit_test)

    p = sub.add_parser("dt-count", help="point counts of framed representation spaces")
    p.add_argument("--potential", required=True, help="potential JSON file")
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--theta", default="-1,-1,2", help="comma-separated stability weights")
    p.add_argument("-o", "--output", default="-", help="output JSON file, - for stdout")
    p.set_defaults(handler=_cmd_dt_count)

    p = sub.add_parser("acceptance", help="run the acceptance criteria")
    p.add_argument("-o", "--output", default="-", help="output file for the table or the JSON, - for stdout")
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p.add_argument("--seed", type=int, default=None, help="seed for sampled sweeps")
    p.add_argument("--samples", type=int, default=None, help="override sweep sample counts")
    p.set_defaults(handler=_cmd_acceptance)

    return parser


# one parser per process (a build takes about a millisecond); parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
