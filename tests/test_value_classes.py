"""Value semantics of the package's record classes.

Each record is a plain slotted class: it is built from positional or
keyword fields, equals only a record of its own class with equal fields,
hashes as its fields, refuses assignment and keeps the refusals of its
constructor.
"""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from ncmoduli.acceptance import CriterionResult
from ncmoduli.dtcount import CountReport, FramedRep, StabilityParameter, default_stability, is_theta_stable
from ncmoduli.elliptic import EllipticConfiguration, EllPoint, LambdaPair, random_configuration
from ncmoduli.errors import DomainError
from ncmoduli.exact import ExactMatrix, GaussianRational, PrimeFieldElement
from ncmoduli.potential import (
    FiberReport,
    PotentialInvariants,
    SymmetricPotentialMatrix,
    invariants_potential,
    potential_to_sym_matrix,
)
from ncmoduli.quintuple import Quintuple, QuintupleInvariants, WeightedPoint, linear_reference_quintuple
from ncmoduli.quiver import CyclicPotential, Quiver, conifold_potential, conifold_quiver

G = GaussianRational


def _cases():
    """(class, field names, field values, the same values with the last one changed)."""
    theta = StabilityParameter(Fraction(-1), Fraction(-1), Fraction(2))
    point = WeightedPoint((2, 4, 4, 6), (G(1), G(2), G(3), G(4)))
    cfg = random_configuration(Random(3))
    f5 = [PrimeFieldElement(v, 5) for v in range(5)]
    return [
        (CriterionResult, ("index", "name", "passed", "seconds", "detail"), (1, "c", True, 0.5, "ok"), "ko"),
        (PrimeFieldElement, ("value", "p"), (3, 5), 7),
        (FramedRep, ("a1", "a2", "b1", "b2", "i"), tuple(f5), f5[0]),
        (StabilityParameter, ("theta0", "theta1", "theta_inf"), theta.as_tuple(), Fraction(3)),
        (
            CountReport,
            ("theta", "primes", "counts", "excluded", "polynomial", "euler_characteristic", "matches_classical", "note"),
            (theta, (2, 3), {2: 5, 3: 13}, (), None, None, None, "n"),
            "m",
        ),
        (PotentialInvariants, ("f1", "f2", "f3", "f4"), tuple(map(Fraction, (1, 2, 3, 4))), Fraction(5)),
        (
            FiberReport,
            ("spectrum", "target", "preimages", "preimage_count", "target_consistent", "odd_patterns_differ"),
            ((Fraction(1),), point, (point,), 1, True, True),
            False,
        ),
        (QuintupleInvariants, ("f2", "f4", "g4", "f6"), (G(1), G(2), G(3), G(4)), G(5)),
        (WeightedPoint, ("weights", "coords"), ((2, 4), (G(1), G(2))), (G(1), G(3))),
        (Quiver, ("name", "vertices", "arrows"), ("q", ("v",), (("x", "v", "v"),)), (("y", "v", "v"),)),
        (LambdaPair, ("l0", "l1"), (G(2), G(1)), G(3)),
        (EllPoint, ("x", "y", "z"), (G(1), G(0), G(1)), G(2)),
        (EllipticConfiguration, ("lam", "p1", "p2"), (cfg.lam, cfg.p1, cfg.p2), cfg.p1),
        (ExactMatrix, ("rows",), (((G(1), G(2)), (G(3), G(4))),), ((G(1), G(2)), (G(3), G(5)))),
        (
            CyclicPotential,
            ("quiver", "terms"),
            (conifold_quiver(), {("a1", "b1", "a2", "b2"): Fraction(1)}),
            {("a1", "b1", "a2", "b2"): Fraction(2)},
        ),
    ]


CASES = _cases()
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, changed", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, changed):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert by_position == by_keyword
    assert [getattr(by_keyword, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, names, values, changed", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, names, values, changed):
    first, second = cls(*values), cls(*values)
    assert first == second and not first != second
    assert cls(*values[:-1], changed) != first
    if cls is CyclicPotential:
        with pytest.raises(TypeError, match="unhashable type: 'CyclicPotential'"):
            hash(first)
    elif cls is CountReport:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):  # its counts field
            hash(first)
    else:
        assert hash(first) == hash(second)
    assert copy.deepcopy(first) == first
    assert pickle.loads(pickle.dumps(first)) == first


@pytest.mark.parametrize("cls, names, values, changed", CASES, ids=IDS)
def test_fields_are_read_only_except_on_criterion_results(cls, names, values, changed):
    """Every record refuses assignment and deletion, criterion results too.

    The name is older than read-only criterion results; it is kept so that
    the test ids stay the same.
    """
    record = cls(*values)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(record, names[0], values[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{names[0]}'"):
        delattr(record, names[0])
    with pytest.raises(AttributeError):
        record.extra = 1


def test_quintuple_is_a_record_on_its_flattening():
    entries = [[[[G(8 * i + 4 * j + 2 * k + l) for l in range(2)] for k in range(2)] for j in range(2)] for i in range(2)]
    first, second = Quintuple(entries), Quintuple(entries)
    assert first == second and hash(first) == hash(second)
    assert first == Quintuple.from_matrix(first.m)
    assert first.scale(2) != first and first != first.m
    assert copy.deepcopy(first) == first
    assert pickle.loads(pickle.dumps(first)) == first
    with pytest.raises(AttributeError, match="cannot assign to field 'm'"):
        first.m = second.m
    with pytest.raises(AttributeError, match="cannot delete field 'm'"):
        del first.m
    assert repr(first).startswith("Quintuple(w[0001]=1, w[0010]=2, ")


def test_symmetric_potential_matrix_is_a_record_on_its_upper_entries():
    rows = [[Fraction(4 * r + c if r <= c else 4 * c + r) for c in range(4)] for r in range(4)]
    first, second = SymmetricPotentialMatrix(rows), SymmetricPotentialMatrix(rows)
    assert first.upper == (0, 1, 2, 3, 5, 6, 7, 10, 11, 15)
    assert first.n == tuple(map(tuple, rows))
    assert first == second and hash(first) == hash(second)
    assert first != SymmetricPotentialMatrix.diagonal([1, 2, 3, 4]) and first != first.upper
    for twin in (copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert twin == first and twin.n == first.n
    with pytest.raises(AttributeError, match="cannot assign to field 'upper'"):
        first.upper = second.upper
    with pytest.raises(AttributeError, match="cannot delete field 'upper'"):
        del first.upper


def test_a_framed_rep_cannot_be_rewritten_through_its_scalars():
    rep = FramedRep.from_ints(5, 1, 2, 3, 4, 1)
    theta = default_stability()
    held = {rep}
    assert is_theta_stable(rep, theta)
    with pytest.raises(AttributeError, match="cannot assign to field 'value'"):
        rep.i.value = 0
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        rep.i.p = 7
    assert is_theta_stable(rep, theta) and rep in held


def test_the_pairing_constant_cannot_be_rewritten_through_a_tensor():
    base = potential_to_sym_matrix(conifold_potential())
    expected = (Fraction(2), Fraction(1), Fraction(1, 2), Fraction(1, 4))
    assert invariants_potential(base).as_tuple() == expected
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        linear_reference_quintuple().m.rows = ExactMatrix.identity(4).rows
    assert invariants_potential(base).as_tuple() == expected


def test_records_of_different_classes_are_unequal():
    # GaussianRational(1) == Fraction(1), so equality on field tuples would
    # call these two equal
    values = (1, 2, 3, 4)
    potential = PotentialInvariants(*map(Fraction, values))
    tensor = QuintupleInvariants(*map(GaussianRational, values))
    assert potential.as_tuple() == tensor.as_tuple()
    assert potential != tensor and tensor != potential
    assert potential != tuple(map(Fraction, values))
    assert EllPoint(G(1), G(0), G(1)) != (G(1), G(0), G(1))


def test_quiver_equality_and_hash_ignore_the_label_index():
    arrows = (("x", "v", "w"), ("y", "w", "v"))
    first, second = Quiver("q", ("v", "w"), arrows), Quiver("q", ("v", "w"), arrows)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "Quiver(name='q', vertices=('v', 'w'), arrows=(('x', 'v', 'w'), ('y', 'w', 'v')))"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: LambdaPair(0, 1), DomainError, "degenerate pencil parameter (0 : 1); the affine value"),
        (
            lambda: EllipticConfiguration(LambdaPair(2, 1), EllPoint(G(1), G(1), G(1)), EllPoint(G(1), G(0), G(0))),
            DomainError,
            "first point does not lie on the curve",
        ),
        (lambda: WeightedPoint((2, 4), (1,)), ValueError, "weights and coordinates differ in length"),
        (lambda: WeightedPoint((2, 4), (0, 0)), DomainError, "all coordinates vanish; not a point of weighted space"),
        (
            lambda: FramedRep(*(PrimeFieldElement(1, 5),) * 4, PrimeFieldElement(1, 7)),
            DomainError,
            "mixed field characteristics [5, 7]",
        ),
        (lambda: Quiver("q", ("v",), (("x", "v", "v"),) * 2), ValueError, "duplicate arrow label 'x'"),
        (lambda: Quiver("q", ("v",), (("x", "v", "w"),)), ValueError, "arrow 'x' uses an unknown vertex"),
    ],
    ids=["degenerate-pair", "off-curve", "length-mismatch", "zero-point", "mixed-characteristic",
         "duplicate-label", "unknown-vertex"],
)
def test_constructors_keep_their_refusals(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value).startswith(message)
