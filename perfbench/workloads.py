"""The four benchmark workloads.

Each workload turns a seed into a deterministic stream of operations.
Op ``i`` has the kind ``CYCLE[i % len(CYCLE)]``, so every run sees the
same mix in the same proportions, and its inputs come from one
``random.Random(seed)`` stream drawn in op order.  ``POOL`` ops are made
during set-up; a run that needs more draws them from the same stream.

A workload exposes:

* ``op(i)``: the i-th op as ``(kind, inputs)``;
* ``run(op, tracer)``: the timed call into ``ncmoduli``;
* ``check(op, output)``: ``(ok, record)`` against an oracle, untimed; the
  record is the op's output in canonical JSON form, for the digest;
* ``slowdown()``: a speed reading of the machine (see ``speed.py``);
* ``cpu()`` and ``peak_rss_mb()``: of the process whose work an op is.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import oracles as ref
import speed
from tracing import NullTracer

GOLDEN = 0.6180339887498949
TRANSLATIONS = (None, "t1", "t2", "t3")


def frac_str(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def json_scalar(g):
    """A Gaussian rational in the CLI's JSON convention: "p/q", or re/im."""
    if g.im == 0:
        return frac_str(g.re)
    return {"re": frac_str(g.re), "im": frac_str(g.im)}


def random_fraction(rng: Random, span: int = 9, maxden: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, maxden))


def nonzero_fraction(rng: Random, span: int = 9, maxden: int = 9) -> Fraction:
    while True:
        v = random_fraction(rng, span, maxden)
        if v:
            return v


ENTRIES = {
    # the range of acceptance criterion 1
    "c1": lambda rng: random_fraction(rng),
    "int": lambda rng: Fraction(rng.randint(-9, 9)),
    "big": lambda rng: random_fraction(rng, 10 ** 6, 10 ** 3),
    # no zero entry: Jacobi ranks then cost about the same on every draw
    "dense": lambda rng: nonzero_fraction(rng),
}


def random_symmetric(rng: Random, height: str = "c1"):
    entry = ENTRIES[height]
    while True:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for r in range(4):
            for c in range(r, 4):
                rows[r][c] = rows[c][r] = entry(rng)
        if any(any(row) for row in rows):
            return rows


def square_word_matrix(rng: Random):
    """c * a_i b_j a_i b_j: one diagonal entry, so N J is nilpotent."""
    rows = [[Fraction(0)] * 4 for _ in range(4)]
    r = rng.randrange(4)
    rows[r][r] = nonzero_fraction(rng)
    return rows


def low_rank_matrix(rng: Random):
    """A sum of one or two rank-one terms s v v^T, so det N = 0."""
    while True:
        rows = [[Fraction(0)] * 4 for _ in range(4)]
        for _ in range(rng.choice((1, 2))):
            v = [rng.randint(-3, 3) for _ in range(4)]
            s = nonzero_fraction(rng)
            for r in range(4):
                for c in range(4):
                    rows[r][c] += s * v[r] * v[c]
        if any(any(row) for row in rows):
            return rows


def random_sl2(rng: Random):
    """A product of one to four integer shears, as in acceptance criterion 8."""
    m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(-3, 3)
        shear = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        m = ref.matmul(m, shear)
    return m


def random_tensor(rng: Random):
    while True:
        w = [
            [[[random_fraction(rng, 4, 4) for _ in range(2)] for _ in range(2)] for _ in range(2)]
            for _ in range(2)
        ]
        if any(v for a in w for b in a for c in b for v in c):
            return w


def distinct_spectrum(rng: Random):
    xs = set()
    while len(xs) < 4:
        xs.add(Fraction(rng.randint(1, 12), rng.randint(1, 9)))
    return sorted(xs)


def potential_terms(rows):
    """The words a_i b_j a_k b_l with coefficient N[(ij),(kl)]."""
    terms = []
    for r, (i, j) in enumerate(ref.PAIRS):
        for c, (k, l) in enumerate(ref.PAIRS):
            if rows[r][c]:
                terms.append(((f"a{i + 1}", f"b{j + 1}", f"a{k + 1}", f"b{l + 1}"), rows[r][c]))
    return terms


def error_record(kind, exc):
    return {"kind": kind, "error": type(exc).__name__, "message": str(exc)}


class Workload:
    CYCLE: tuple = ()
    POOL = 0

    def __init__(self, nc, seed: int, root, pool=None):
        self.nc = nc
        self.root = root
        self.rng = Random(seed)
        self.ops = []
        self.warmup_ops = [self.make(kind) for kind in self.warmup_kinds()]
        while len(self.ops) < (self.POOL if pool is None else pool):
            self._extend()

    def warmup_kinds(self):
        return list(dict.fromkeys(self.CYCLE))

    def _extend(self):
        kind = self.CYCLE[len(self.ops) % len(self.CYCLE)]
        self.ops.append((kind, self.make(kind)))

    def op(self, i: int):
        while len(self.ops) <= i:
            self._extend()
        return self.ops[i]

    def warmup(self):
        for kind, inputs in zip(self.warmup_kinds(), self.warmup_ops):
            try:
                self.run((kind, inputs), NullTracer())
            except self.nc.DomainError:  # a refusal warms the same path
                pass

    def slowdown(self) -> float:
        return speed.slowdown()

    def cpu(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


# -- covering ---------------------------------------------------------


class Covering(Workload):
    """Potentials through the covering map, plus SL2 and fiber checks."""

    CYCLE = (
        "pipe-c1", "sl2-tensor", "pipe-c1", "pipe-int", "pipe-big",
        "pipe-c1", "fiber", "pipe-c1", "pipe-square", "pipe-int",
        "pipe-c1", "sl2-matrix", "pipe-c1", "pipe-big", "pipe-c1",
        "fiber", "pipe-c1", "pipe-int", "pipe-rank", "pipe-c1",
    )
    POOL = 400

    def make(self, kind):
        rng = self.rng
        if kind.startswith("pipe-"):
            height = kind[5:]
            if height == "square":
                return square_word_matrix(rng)
            if height == "rank":
                return low_rank_matrix(rng)
            return random_symmetric(rng, height)
        if kind == "sl2-tensor":
            return random_tensor(rng), [random_sl2(rng) for _ in range(4)]
        if kind == "sl2-matrix":
            return random_symmetric(rng), ref.kron2(random_sl2(rng), random_sl2(rng))
        return distinct_spectrum(rng)

    def run(self, op, t):
        nc = self.nc
        kind, inputs = op
        if kind.startswith("pipe-"):
            n = nc.SymmetricPotentialMatrix(inputs)
            phi = t.call("potential.sym_matrix_to_potential", nc.sym_matrix_to_potential, n)
            n2 = t.call("potential.potential_to_sym_matrix", nc.potential_to_sym_matrix, phi)
            inv = t.call("potential.invariants_potential", nc.invariants_potential, n2)
            stability = t.call("potential.classify_stability_potential", nc.classify_stability_potential, n2)
            q = t.call("potential.potential_to_quintuple", nc.potential_to_quintuple, n2)
            qinv = t.call("quintuple.invariants", nc.invariants, q)
            geo = t.call("quintuple.is_geometric", nc.is_geometric, q)
            qstab = t.call("quintuple.classify_stability", nc.classify_stability, q)
            covering = t.call("potential.verify_covering_identities", nc.verify_covering_identities, n2)
            return n2, inv, stability, qinv, geo, qstab, covering
        if kind == "sl2-tensor":
            w, gs = inputs
            q = nc.Quintuple(w)
            moved = t.call("quintuple.slot_transform", nc.slot_transform, q, *(nc.ExactMatrix(g) for g in gs))
            before = t.call("quintuple.invariants", nc.invariants, q)
            after = t.call("quintuple.invariants", nc.invariants, moved)
            return moved, before, after
        if kind == "sl2-matrix":
            rows, k = inputs
            n = nc.SymmetricPotentialMatrix(rows)
            km = nc.ExactMatrix(k)
            moved_exact = t.call("exact.matmul", lambda: km * n.to_exact() * km.transpose())
            moved = nc.SymmetricPotentialMatrix(
                [[moved_exact[r, c].as_fraction() for c in range(4)] for r in range(4)]
            )
            before = t.call("potential.invariants_potential", nc.invariants_potential, n)
            after = t.call("potential.invariants_potential", nc.invariants_potential, moved)
            return moved, before, after
        return t.call("potential.fiber_experiment", nc.fiber_experiment, inputs)

    def check(self, op, out):
        kind, inputs = op
        if isinstance(out, Exception):
            return False, error_record(kind, out)
        if kind.startswith("pipe-"):
            n2, inv, stability, qinv, geo, qstab, covering = out
            w = ref.tensor_from_matrix(inputs)
            tensor_inv, _ = ref.tensor_invariants(w)
            ok = (
                [list(row) for row in n2.n] == inputs
                and list(inv.as_tuple()) == ref.potential_invariants(inputs)
                and stability == ref.potential_stability(inputs)
                and qinv.as_tuple() == tensor_inv
                and geo == ref.geometric(w)
                and qstab == ref.tensor_stability(w)
                and covering is True
            )
            record = {
                "kind": kind,
                "matrix": n2.to_json(),
                "f": inv.to_json(),
                "stability": stability,
                "tensor_invariants": qinv.to_json(),
                "geometric": list(geo),
                "tensor_stability": qstab,
                "covering": covering,
            }
            return ok, record
        if kind == "sl2-tensor":
            w, gs = inputs
            moved, before, after = out
            want = ref.slot_transform(w, gs)
            ok = (
                all(
                    moved[i, j, k, l] == want[i][j][k][l]
                    for i in range(2) for j in range(2) for k in range(2) for l in range(2)
                )
                and before.as_tuple() == ref.tensor_invariants(w)[0]
                and after == before
            )
            return ok, {"kind": kind, "moved": moved.to_json(), "invariants": after.to_json()}
        if kind == "sl2-matrix":
            rows, k = inputs
            moved, before, after = out
            want = ref.matmul(ref.matmul(k, rows), ref.transpose(k))
            ok = (
                [list(row) for row in moved.n] == want
                and list(before.as_tuple()) == ref.potential_invariants(rows)
                and after == before
            )
            return ok, {"kind": kind, "moved": moved.to_json(), "f": after.to_json()}
        # fiber: for distinct positive x the 8 even sign patterns give 4
        # points of P(1,2,3,4) (s and -s coincide via mu = -1, nothing else
        # does by Newton's identities), all over one target point.
        ok = (
            out.preimage_count == 4
            and out.target_consistent
            and out.odd_patterns_differ
            and out.target.coords == ref.fiber_target(inputs)
        )
        record = {
            "kind": kind,
            "target": out.target.to_json(),
            "preimages": [p.to_json() for p in out.preimages],
            "consistent": out.target_consistent,
            "odd_differ": out.odd_patterns_differ,
        }
        return ok, record


# -- orbits -----------------------------------------------------------


class Orbits(Workload):
    """Orbit decisions on the genus-one pencil, two positives per negative.

    A positive's group element walks the 96 (word, tr1, tr2) choices by a
    golden-ratio sequence from a seeded phase, so any run covers the
    search order evenly instead of by chance.  Positives spread evenly up
    to the cost of a whole search, so the quantiles are put on the
    negatives, whose costs bunch: p50 among those without the flip (96
    images), p90 among those with it (192 images).
    """

    CYCLE = (
        "pos", "pos-flip", "neg", "pos-flip", "neg-flip", "pos",
        "pos-flip", "neg", "pos-flip", "neg-flip", "pos", "pos-flip",
    )
    POOL = 150

    def warmup_kinds(self):
        # a negative walks the whole search, at a cost that varies little
        return ["neg"]

    def __init__(self, nc, seed, root, pool=None):
        self.walked = {False: 0, True: 0}
        self.phase = Random(seed ^ 0x5EED).random()
        super().__init__(nc, seed, root, pool)

    def element(self, flip):
        k = self.walked[flip]
        self.walked[flip] += 1
        pos = int(((self.phase + k * GOLDEN) % 1.0) * 96)
        words = self.nc.elliptic.LAMBDA_WORDS
        return words[pos // 16], TRANSLATIONS[pos // 4 % 4], TRANSLATIONS[pos % 4], flip

    def _configuration(self):
        return self.nc.elliptic.random_configuration(self.rng)

    def make(self, kind):
        flip = kind.endswith("-flip")
        first = self._configuration()
        if kind.startswith("pos"):
            element = self.element(flip)
            return first, self.nc.apply_group_element(first, *element), flip
        orbit = ref.lambda_orbit(first.lam.affine.as_fraction())
        while True:
            second = self._configuration()
            if second.lam.affine.as_fraction() not in orbit:
                return first, second, flip

    def run(self, op, t):
        first, second, flip = op[1]
        return t.call(
            "elliptic.orbit_equivalent", self.nc.orbit_equivalent, first, second, include_involution=flip
        )

    def check(self, op, out):
        kind, (first, second, _) = op
        if isinstance(out, Exception):
            return False, error_record(kind, out)
        equivalent, witness = out
        record = {"kind": kind, "equivalent": equivalent, "witness": witness}
        if kind.startswith("neg"):
            return equivalent is False and witness is None, record
        if not equivalent or witness is None:
            return False, record
        image = self.nc.apply_group_element(
            first,
            witness["lambda_word"],
            witness["translate_first"],
            witness["translate_second"],
            witness["flip"],
        )
        return image == second, record


# -- counts -----------------------------------------------------------

# units of Z[1/2, 1/3]: scaling the classical potential by one leaves its
# relations, and so its counts at p = 5, 7, 11, unchanged
CLASSICAL_SCALES = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 3), Fraction(4, 3), Fraction(-3, 4))
DEFORMATION_NUMERATORS = (1, 2, 3, 4, 6, 8, 9, 12, -1, -2, -3, -4, -6, -8, -9, -12)


class Counts(Workload):
    """count_points(phi, (-1, -1, 2), p) for p in {5, 7, 11}.

    Cheap deformed and random potentials fill the lower two thirds of the
    latency range, classical potentials at p = 7 most of the rest, and one
    op in twenty is a classical count at p = 11.
    """

    CYCLE = (
        "deformed-11", "random-5", "classical-7", "deformed-5", "random-11",
        "deformed-11", "classical-5", "classical-7", "deformed-7", "random-7",
        "deformed-11", "random-5", "classical-7", "deformed-11", "classical-11",
        "deformed-5", "random-11", "deformed-11", "classical-7", "deformed-7",
    )
    POOL = 200

    def __init__(self, nc, seed, root, pool=None):
        self.theta = nc.default_stability()
        super().__init__(nc, seed, root, pool)

    def warmup_kinds(self):
        return [f"{family}-5" for family in ("classical", "deformed", "random")]

    def make(self, kind):
        family, p = kind.split("-")
        rng = self.rng
        if family == "classical":
            c = rng.choice(CLASSICAL_SCALES)
            return None, self.nc.conifold_potential().scale(c), int(p)
        if family == "deformed":
            # entries are units at 5, 7 and 11, so no relation degenerates
            # and every draw costs about the same
            rows = [[Fraction(0)] * 4 for _ in range(4)]
            for r in range(4):
                rows[r][r] = Fraction(rng.choice(DEFORMATION_NUMERATORS), rng.randint(1, 4))
        else:
            rows = random_symmetric(rng)
        nc = self.nc
        return rows, nc.sym_matrix_to_potential(nc.SymmetricPotentialMatrix(rows)), int(p)

    def run(self, op, t):
        _, phi, p = op[1]
        return t.call("dtcount.count_points", self.nc.count_points, phi, self.theta, p)

    def check(self, op, out):
        kind, (rows, _, p) = op
        want = ref.classical_count(p) if rows is None else ref.framed_count(rows, p)
        if isinstance(out, Exception):
            return want is None and isinstance(out, self.nc.DomainError), error_record(kind, out)
        return out == want, {"kind": kind, "count": out}


# -- cli --------------------------------------------------------------

# units of Z[1/11, 1/13]: the classical potential scaled by one keeps its
# Jacobi algebra and its counts at p = 2, 3, 5, 7
CLI_SCALES = (1, -1, 11, -11, Fraction(1, 11), Fraction(-1, 13), 13, Fraction(11, 13))


class Cli(Workload):
    """One ``python -m ncmoduli.cli`` child per op, one at a time."""

    CYCLE = (
        "classify-potential", "hilbert-L6", "map-potential", "classify-quintuple", "elliptic-check",
        "orbit-pos", "hilbert-L6", "classify-potential", "map-potential", "dt-count",
        "orbit-neg", "hilbert-L6", "classify-quintuple", "elliptic-check", "map-potential",
        "hilbert-L8", "classify-potential", "orbit-pos", "hilbert-L6", "dt-count",
    )
    POOL = 120

    def __init__(self, nc, seed, root, pool=None):
        self.dir = root / ".perfbench_out" / f"cli-inputs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        super().__init__(nc, seed, root, pool)

    def warmup_kinds(self):
        return ["classify-potential"]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def slowdown(self) -> float:
        """1: CLI times are reported unscaled.

        A CLI op is mostly process start and module loading; neither the
        kernel nor a bare interpreter start tracked it closely enough to
        narrow its spread.
        """
        return 1.0

    def cpu(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _write(self, doc) -> str:
        self.files += 1
        path = self.dir / f"{self.files}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @staticmethod
    def potential_doc(terms):
        return [{"cycle": list(word), "coeff": frac_str(c)} for word, c in terms]

    @staticmethod
    def _configuration_doc(cfg):
        return {
            "lambda": json_scalar(cfg.lam.affine),
            "p1": [json_scalar(v) for v in (cfg.p1.x, cfg.p1.y, cfg.p1.z)],
            "p2": [json_scalar(v) for v in (cfg.p2.x, cfg.p2.y, cfg.p2.z)],
        }

    def _classical_terms(self):
        c = Fraction(self.rng.choice(CLI_SCALES))
        return [(("a1", "b1", "a2", "b2"), c), (("a1", "b2", "a2", "b1"), -c)]

    def make(self, kind):
        rng = self.rng
        elliptic = self.nc.elliptic
        if kind in ("classify-potential", "map-potential"):
            rows = random_symmetric(rng)
            path = self._write(self.potential_doc(potential_terms(rows)))
            return [kind, "-i", path], rows
        if kind == "classify-quintuple":
            w = random_tensor(rng)
            doc = [[[[frac_str(v) for v in c] for c in b] for b in a] for a in w]
            return [kind, "-i", self._write(doc)], w
        if kind == "elliptic-check":
            cfg = elliptic.random_configuration(rng)
            return ["elliptic", "check", "-i", self._write(self._configuration_doc(cfg))], cfg
        if kind == "orbit-pos":
            # the CLI sets l1 = 1, so only the words () and (complement,) keep
            # an image writable in CLI form
            first = elliptic.random_configuration(rng)
            flip = rng.random() < 0.5
            element = (rng.choice(((), ("complement",))), rng.choice(TRANSLATIONS), rng.choice(TRANSLATIONS), flip)
            second = self.nc.apply_group_element(first, *element)
            doc = {"first": self._configuration_doc(first), "second": self._configuration_doc(second)}
            args = ["elliptic", "orbit-test", "-i", self._write(doc)]
            return args + (["--include-involution"] if flip else []), (first, second)
        if kind == "orbit-neg":
            first = elliptic.random_configuration(rng)
            orbit = ref.lambda_orbit(first.lam.affine.as_fraction())
            while True:
                second = elliptic.random_configuration(rng)
                if second.lam.affine.as_fraction() not in orbit:
                    break
            doc = {"first": self._configuration_doc(first), "second": self._configuration_doc(second)}
            return ["elliptic", "orbit-test", "-i", self._write(doc)], (first, second)
        if kind == "hilbert-L8":
            path = self._write(self.potential_doc(self._classical_terms()))
            return ["hilbert", "-i", path, "--max-length", "8"], None
        if kind == "hilbert-L6":
            path = self._write(self.potential_doc(potential_terms(random_symmetric(rng, "dense"))))
            return ["hilbert", "-i", path, "--max-length", "6"], None
        path = self._write(self.potential_doc(self._classical_terms()))
        return ["dt-count", "--potential", path, "--primes", "2,3,5,7"], None

    def run(self, op, t):
        args = op[1][0]
        return t.call(
            f"cli.{op[0]}",
            subprocess.run,
            [sys.executable, "-m", "ncmoduli.cli", *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, op, out):
        kind, (_, expect) = op
        if isinstance(out, Exception):
            return False, error_record(kind, out)
        record = {"kind": kind, "exit": out.returncode, "stdout": out.stdout}
        if out.returncode != 0:
            return False, record
        doc = json.loads(out.stdout)
        return self._agrees(kind, expect, doc), record

    def _agrees(self, kind, expect, doc) -> bool:
        if kind == "classify-potential":
            return (
                doc["f"] == [frac_str(v) for v in ref.potential_invariants(expect)]
                and doc["stability"] == ref.potential_stability(expect)
                and doc["matrix"] == [[frac_str(v) for v in row] for row in expect]
            )
        if kind == "map-potential":
            inv, _ = ref.tensor_invariants(ref.tensor_from_matrix(expect))
            return doc["covering_identities_ok"] is True and doc["quintuple_invariants"] == dict(
                zip(("f2", "f4", "g4", "f6"), (frac_str(v) for v in inv))
            )
        if kind == "classify-quintuple":
            inv, _ = ref.tensor_invariants(expect)
            geo, slot = ref.geometric(expect)
            return (
                doc["invariants"] == dict(zip(("f2", "f4", "g4", "f6"), (frac_str(v) for v in inv)))
                and doc["stability"] == ref.tensor_stability(expect)
                and (doc["geometric"], doc["failing_slot"]) == (geo, slot)
            )
        if kind == "elliptic-check":
            return doc["p1_on_curve"] is True and doc["p2_on_curve"] is True and doc["admissible"] is True
        if kind == "orbit-pos":
            first, second = expect
            w = doc["witness"]
            if doc["equivalent"] is not True or w is None:
                return False
            image = self.nc.apply_group_element(
                first, w["lambda_word"], w["translate_first"], w["translate_second"], w["flip"]
            )
            return image == second
        if kind == "orbit-neg":
            return doc["equivalent"] is False and doc["witness"] is None
        if kind == "hilbert-L8":
            return doc["dims"] == [(m // 2 + 1) ** 2 if m % 2 == 0 else 0 for m in range(9)]
        if kind == "hilbert-L6":
            # no path of odd length returns to v0, and the cubic relations
            # leave the four length-2 loops alone
            dims = doc["dims"]
            return (
                len(dims) == 7
                and dims[:3] == [1, 0, 4]
                and dims[3] == dims[5] == 0
                and 0 <= dims[4] <= 16
                and 0 <= dims[6] <= 64
            )
        return (
            doc["counts"] == {str(p): ref.classical_count(p) for p in (2, 3, 5, 7)}
            and doc["polynomial"] == ["0", "0", "1", "1"]
            and doc["matches_classical"] is True
        )


WORKLOADS = {"covering": Covering, "orbits": Orbits, "counts": Counts, "cli": Cli}
