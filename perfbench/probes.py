"""Per-layer probes for the traced run.

Each probe calls one public function of one ``ncmoduli`` module on
seeded operands, inside a span named after it, and reports the median
time.  Per-call probes time each operand once (``Prober.each``); probes
of microsecond calls time a batch over all operands several times and
report the median batch mean (``Prober.batch``).  Times are scaled by a speed
reading taken right after each sample (see ``speed.py``), except the
CLI probes and the acceptance criteria, which are reported unscaled.
``README.md`` lists which end-to-end metric each probe should move.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from random import Random
from statistics import median
from time import perf_counter

import speed
import workloads as wls
from tracing import NullTracer

REPS = 7
WEIGHTS = (2, 4, 4, 6)


def known_wrong(nc):
    """The two wrong answers ROADMAP reproduced, 1 while each still occurs."""
    # no mu has mu^2 = 1 and mu^4 = -1, so these points differ
    same = nc.weighted_point_equal(
        nc.WeightedPoint(WEIGHTS, (1, 1, 1, 1)), nc.WeightedPoint(WEIGHTS, (1, 1, -1, 1))
    )
    first = nc.make_configuration(
        Fraction(1, 36), [Fraction(9, 4), 1, Fraction(5, 2)], [Fraction(16, 9), 1, Fraction(14, 9)]
    )
    # its swap image lives over (1 : 1/36); scaling the pair by 36 = 6^2
    # gives the CLI's l1 = 1, lambda = 36, and multiplies Z by 6
    second = nc.make_configuration(36, [1, Fraction(9, 4), 15], [1, Fraction(16, 9), Fraction(28, 3)])
    equivalent, _ = nc.orbit_equivalent(first, second, include_involution=True)
    return {"quintuple.known_wrong": int(same), "elliptic.known_wrong": int(not equivalent)}


class Prober:
    def __init__(self, tracer):
        self.tracer = tracer

    def each(self, name, fn, operands, scaled=True):
        """Median over operands of one call each, in seconds."""
        samples = []
        for x in operands:
            t0 = perf_counter()
            self.tracer.call(name, fn, x)
            elapsed = perf_counter() - t0
            samples.append(elapsed / speed.slowdown() if scaled else elapsed)
        return median(samples)

    def batch(self, name, fn, operands):
        """Median over REPS batches of the mean time per call, in seconds."""
        samples = []
        for _ in range(REPS):
            with self.tracer.span(name):
                t0 = perf_counter()
                for x in operands:
                    fn(x)
                elapsed = perf_counter() - t0
            samples.append(elapsed / speed.slowdown() / len(operands))
        return median(samples)


def run_probes(nc, seed, tracer, root):
    rng = Random(seed * 1_000_003 + 7)
    probe = Prober(tracer)
    each, batch = probe.each, probe.batch
    out = {}

    gauss = [nc.GaussianRational(wls.random_fraction(rng), wls.random_fraction(rng)) for _ in range(128)]
    rows = [wls.random_symmetric(rng) for _ in range(9)]
    sym = [nc.SymmetricPotentialMatrix(r) for r in rows]
    dense = [n.to_exact() for n in sym]
    phis = [nc.sym_matrix_to_potential(n) for n in sym]
    tensors = [nc.Quintuple(wls.random_tensor(rng)) for _ in range(9)]
    classical = [nc.conifold_potential().scale(c) for c in wls.CLASSICAL_SCALES[:3]]

    # exact
    pairs = list(zip(gauss[::2], gauss[1::2]))
    out["exact.gauss_mul_us"] = batch("exact.GaussianRational.__mul__", lambda ab: ab[0] * ab[1], pairs) * 1e6
    products = list(zip(dense, dense[1:]))
    out["exact.matmul4_us"] = batch("exact.ExactMatrix.__mul__", lambda ab: ab[0] * ab[1], products) * 1e6
    out["exact.det4_us"] = batch("exact.ExactMatrix.det", lambda m: m.det(), dense) * 1e6
    hamiltonians = [m * nc.J_MATRIX for m in dense]
    out["exact.nilpotent4_us"] = batch("exact.ExactMatrix.is_nilpotent", lambda m: m.is_nilpotent(), hamiltonians) * 1e6
    minors = [nc.quintuple.geometricity_minors(q, 0) for q in tensors]
    out["exact.binary_form_gcd_us"] = batch("exact.binary_form_gcd", nc.binary_form_gcd, minors) * 1e6
    values = [rng.randrange(10 ** 6) for _ in range(256)]
    out["exact.prime_field_new_us"] = batch("exact.PrimeFieldElement", lambda v: nc.PrimeFieldElement(v, 11), values) * 1e6
    out["exact.scalar_json_us"] = batch(
        "exact.scalar_json", lambda g: nc.scalar_from_json(nc.scalar_to_json(g)), gauss
    ) * 1e6

    # quiver
    quiver = nc.conifold_quiver()
    term_maps = [dict(wls.potential_terms(r)) for r in rows]
    out["quiver.cyclic_potential_us"] = batch("quiver.CyclicPotential", lambda t: nc.CyclicPotential(quiver, t), term_maps) * 1e6
    out["quiver.jacobi_generators_us"] = batch("quiver.jacobi_generators", nc.jacobi_generators, phis) * 1e6
    for length, inputs in ((8, classical), (6, phis[:3])):
        out[f"quiver.graded_dimension_ms.L{length}"] = each(
            "quiver.graded_dimension", lambda phi: nc.graded_dimension(phi, "v0", "v0", length), inputs
        ) * 1e3

    # potential
    for metric, name, fn, inputs in (
        ("from_sym_matrix", "sym_matrix_to_potential", nc.sym_matrix_to_potential, sym),
        ("to_sym_matrix", "potential_to_sym_matrix", nc.potential_to_sym_matrix, phis),
        ("invariants", "invariants_potential", nc.invariants_potential, sym),
        ("classify_stability", "classify_stability_potential", nc.classify_stability_potential, sym),
        ("to_quintuple", "potential_to_quintuple", nc.potential_to_quintuple, sym),
        ("verify_covering", "verify_covering_identities", nc.verify_covering_identities, sym),
        ("fiber_experiment", "fiber_experiment", nc.fiber_experiment, [wls.distinct_spectrum(rng) for _ in range(9)]),
    ):
        out[f"potential.{metric}_ms"] = each(f"potential.{name}", fn, inputs) * 1e3

    # quintuple
    moves = [(q, [nc.ExactMatrix(wls.random_sl2(rng)) for _ in range(4)]) for q in tensors]
    for name, fn, inputs in (
        ("invariants", nc.invariants, tensors),
        ("is_geometric", nc.is_geometric, tensors),
        ("classify_stability", nc.classify_stability, tensors),
        ("slot_transform", lambda qg: nc.slot_transform(qg[0], *qg[1]), moves),
    ):
        out[f"quintuple.{name}_ms"] = each(f"quintuple.{name}", fn, inputs) * 1e3
    points = []
    for q in tensors:
        inv = nc.invariants(q).as_tuple()
        mu = wls.nonzero_fraction(rng)
        rescaled = tuple(v * mu ** w for v, w in zip(inv, WEIGHTS))
        points.append((nc.WeightedPoint(WEIGHTS, inv), nc.WeightedPoint(WEIGHTS, rescaled)))
    out["quintuple.weighted_point_equal_us"] = batch(
        "quintuple.weighted_point_equal", lambda pq: nc.weighted_point_equal(*pq), points
    ) * 1e6

    # elliptic
    orbits = wls.Orbits(nc, seed, root, pool=0)
    for kind in ("pos", "pos-flip", "neg", "neg-flip"):
        ops = [(kind, orbits.make(kind)) for _ in range(8 if kind.startswith("pos") else 5)]
        metric = "elliptic.orbit_" + kind.replace("-", "_") + "_ms"
        out[metric] = each("elliptic.orbit_equivalent", lambda op: orbits.run(op, NullTracer()), ops) * 1e3
    config_rng = Random(seed)

    def random_configuration(_):
        return nc.elliptic.random_configuration(config_rng)

    elements = [(random_configuration(None), orbits.element(rng.random() < 0.5)) for _ in range(48)]
    out["elliptic.apply_group_element_us"] = batch(
        "elliptic.apply_group_element", lambda ce: nc.apply_group_element(ce[0], *ce[1]), elements
    ) * 1e6
    out["elliptic.random_configuration_ms"] = each("elliptic.random_configuration", random_configuration, range(16)) * 1e3
    out["elliptic.verify_equation_preservation_ms"] = each(
        "elliptic.verify_equation_preservation", lambda _: nc.verify_equation_preservation(), range(3)
    ) * 1e3

    # dtcount
    theta = nc.default_stability()
    deformed = []
    for _ in range(5):
        diag = [Fraction(rng.choice(wls.DEFORMATION_NUMERATORS), rng.randint(1, 4)) for _ in range(4)]
        deformed.append(nc.sym_matrix_to_potential(nc.SymmetricPotentialMatrix.diagonal(diag)))
    candidates = solutions = busy = 0
    for metric, p, inputs in (
        ("dtcount.count_points_ms.p7", 7, classical),
        ("dtcount.count_points_ms.p11", 11, classical),
        ("dtcount.count_points_deformed_ms.p11", 11, deformed),
    ):
        samples = []
        for phi in inputs:
            t0 = perf_counter()
            count = tracer.call("dtcount.count_points", nc.count_points, phi, theta, p)
            samples.append((perf_counter() - t0) / speed.slowdown())
            candidates += (p * p - 1) * p * p
            solutions += count * (p - 1)
        busy += sum(samples)
        out[metric] = median(samples) * 1e3
    out["dtcount.points_per_s"] = candidates / busy
    out["dtcount.solution_yield"] = solutions / candidates
    reps = [nc.FramedRep.from_ints(11, *(rng.randrange(11) for _ in range(4)), 1) for _ in range(128)]
    out["dtcount.is_theta_stable_us"] = batch("dtcount.is_theta_stable", lambda r: nc.is_theta_stable(r, theta), reps) * 1e6
    out["dtcount.satisfies_relations_us"] = batch(
        "dtcount.satisfies_relations", lambda r: nc.satisfies_relations(r, classical[0]), reps[:32]
    ) * 1e6
    out["dtcount.counting_report_ms"] = each(
        "dtcount.counting_report", lambda phi: nc.counting_report(phi, theta, (2, 3, 5, 7)), classical
    ) * 1e3

    out.update(_cli_probes(nc, seed, probe, root, rng))

    # acceptance, at its pinned seed
    acceptance = nc.acceptance
    for k, criterion in enumerate(acceptance.CRITERIA, start=1):
        result = tracer.call(f"acceptance.criterion_{k}", criterion)
        # the criterion's own wall time, unscaled: one reading cannot stand
        # for the seconds-long run, and its budget is checked against it
        out[f"acceptance.criterion_{k}_s"] = result.seconds
        out[f"acceptance.criterion_{k}_pass"] = int(result.passed)
        budget = acceptance._TIME_BUDGETS[k]
        if budget is not None:
            out[f"acceptance.criterion_{k}_headroom_x"] = budget / result.seconds
    return out


def _cli_probes(nc, seed, probe, root, rng):
    from ncmoduli.cli import potential_from_json

    out = {}
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(code):
        return subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True
        ).stdout

    out["cli.interpreter_ms"] = probe.each("cli.interpreter", lambda _: child("pass"), range(5), scaled=False) * 1e3
    code = "import time; t = time.perf_counter(); import ncmoduli; print(time.perf_counter() - t)"
    out["cli.import_ms"] = median(float(probe.tracer.call("cli.import", child, code)) for _ in range(5)) * 1e3

    docs = [wls.Cli.potential_doc(wls.potential_terms(wls.random_symmetric(rng))) for _ in range(16)]
    out["cli.potential_from_json_us"] = probe.batch("cli.potential_from_json", potential_from_json, docs) * 1e6

    cli = wls.Cli(nc, seed, root, pool=0)
    try:
        for kind, metric in (
            ("classify-potential", "cli.classify_potential_ms"),
            ("map-potential", "cli.map_potential_ms"),
            ("classify-quintuple", "cli.classify_quintuple_ms"),
            ("elliptic-check", "cli.elliptic_check_ms"),
            ("orbit-pos", "cli.elliptic_orbit_test_ms"),
            ("hilbert-L8", "cli.hilbert_ms.L8"),
            ("hilbert-L6", "cli.hilbert_ms.L6"),
            ("dt-count", "cli.dt_count_ms"),
        ):
            ops = [(kind, cli.make(kind)) for _ in range(3)]
            out[metric] = probe.each(f"cli.{kind}", lambda op: cli.run(op, NullTracer()), ops, scaled=False) * 1e3
    finally:
        cli.close()
    return out
