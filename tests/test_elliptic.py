"""Curve membership, transforms, and the orbit decision procedure."""

from fractions import Fraction
from itertools import product
from math import gcd
from random import Random

import pytest

from ncmoduli import elliptic, exact
from ncmoduli.errors import DomainError
from ncmoduli.exact import GaussianRational
from ncmoduli.elliptic import (
    EllipticConfiguration,
    EllPoint,
    LAMBDA_WORDS,
    LambdaPair,
    apply_group_element,
    is_admissible,
    make_configuration,
    on_curve,
    orbit_equivalent,
    point_multiple,
    random_configuration,
    random_curve_point,
    translate,
    verify_equation_preservation,
)

TRANSLATIONS = (None, "t1", "t2", "t3")


def test_symbolic_equation_preservation():
    assert verify_equation_preservation() == {
        "t1": True,
        "t2": True,
        "t3": True,
        "swap": True,
        "complement": True,
    }


def test_symbolic_check_reads_the_transform_table(monkeypatch):
    cfg = random_configuration(Random(66))
    same_parameter = elliptic._GENERATORS["t3"][0]
    complement_point = elliptic._GENERATORS["complement"][1]
    # a wrong Z factor in t3 (l0 instead of l0*l1) fails the symbolic
    # check, and translate runs the same wrong formula
    with monkeypatch.context() as patch:
        patch.setitem(elliptic._GENERATORS, "t3", (same_parameter, lambda l0, l1, x, y, z: (l0 * y, l1 * x, l0 * z)))
        results = verify_equation_preservation()
        assert results["t3"] is False
        assert all(ok for name, ok in results.items() if name != "t3")
        # the swap image has l1 = lambda != 1, where the two factors differ
        swapped = apply_group_element(cfg, ("swap",))
        assert not on_curve(swapped.lam, translate(swapped.lam, swapped.p1, "t3"))
    # a wrong parameter formula for complement, lambda -> lambda - 1,
    # fails the proof for complement only, and apply_group_element runs it
    monkeypatch.setitem(elliptic._GENERATORS, "complement", (lambda l0, l1: (l0 - l1, l1), complement_point))
    results = verify_equation_preservation()
    assert results["complement"] is False
    assert all(ok for name, ok in results.items() if name != "complement")
    image = apply_group_element(cfg, ("complement",))
    assert image.lam.affine == cfg.lam.affine - 1
    assert not on_curve(image.lam, image.p1)


def test_lambda_pair_validation():
    with pytest.raises(DomainError):
        LambdaPair.from_affine(0)
    with pytest.raises(DomainError):
        LambdaPair.from_affine(1)
    pair = LambdaPair.from_affine(Fraction(5, 3))
    assert pair.affine == GaussianRational(Fraction(5, 3))


def test_point_normalization():
    assert EllPoint(2, 4, 8) == EllPoint(1, 2, 2)
    assert EllPoint(0, 3, 9) == EllPoint(0, 1, 1)
    assert EllPoint(0, 0, 5) == EllPoint(0, 0, 1)
    # the constructor stores the normalized coordinates, as GaussianRational
    pt = EllPoint(2, 4, Fraction(8, 3))
    assert (pt.x, pt.y, pt.z) == (1, 2, Fraction(2, 3))
    assert all(isinstance(c, GaussianRational) for c in (pt.x, pt.y, pt.z))
    with pytest.raises(DomainError):
        EllPoint(0, 0, 0)


def test_no_configuration_holds_the_zero_triple():
    pair = LambdaPair.from_affine(Fraction(2))
    for zero in (0, Fraction(0), GaussianRational(0)):
        with pytest.raises(DomainError, match=r"\(0 : 0 : 0\) is not a point"):
            EllipticConfiguration(pair, EllPoint(zero, zero, zero), EllPoint(1, 0, 0))
    with pytest.raises(DomainError, match=r"\(0 : 0 : 0\) is not a point"):
        make_configuration(Fraction(2), (1, 0, 0), (0, 0, 0))


# -- a reference normalization on (re, im) pairs of Fractions ----------


def _pair_mul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _pair_div(u, v):
    n = v[0] * v[0] + v[1] * v[1]
    return ((u[0] * v[0] + u[1] * v[1]) / n, (u[1] * v[0] - u[0] * v[1]) / n)


def _reference_normalization(x, y, z):
    """(1 : y/x : z/x^2), (0 : 1 : z/y^2) or (0 : 0 : 1), on Fraction pairs."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    if x != zero:
        return one, _pair_div(y, x), _pair_div(z, _pair_mul(x, x))
    if y != zero:
        return zero, one, _pair_div(z, _pair_mul(y, y))
    if z == zero:
        return None
    return zero, zero, one


def _canonical_triple(pair):
    """(a, b, d) with (a + b*i)/d equal to the pair, d > 0 and gcd(a, b, d) = 1."""
    re, im = pair
    d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _random_pair(rng, height):
    roll = rng.random()
    if roll < 0.15:
        return Fraction(0), Fraction(0)
    re = Fraction(rng.randint(-height, height), rng.randint(1, height))
    if roll < 0.45:
        return re, Fraction(0)
    return re, Fraction(rng.randint(-height, height), rng.randint(1, height))


def _plain(pair, k):
    """A coordinate as the constructor may receive it: an int, a Fraction or a GaussianRational."""
    re, im = pair
    if im or k % 2:
        return GaussianRational(re, im)
    return int(re) if re.denominator == 1 and k % 3 else re


def test_point_normalization_matches_a_fraction_pair_reference():
    rng = Random(62)
    seen = set()
    for k in range(1500):
        height = (3, 40, 10 ** 9, 10 ** 40)[k % 4]
        coords = [_random_pair(rng, height) for _ in range(3)]
        if k % 7 == 0:
            coords[0] = (Fraction(0), Fraction(0))
        if k % 21 == 0:
            coords[1] = (Fraction(0), Fraction(0))
        if k % 105 == 0:
            coords[2] = (Fraction(0), Fraction(0))
        expected = _reference_normalization(*coords)
        # real coordinates also go in as plain ints or Fractions, which the constructor coerces
        values = [_plain(c, k) for c in coords]
        seen.update(type(v).__name__ for v in values)
        if expected is None:
            seen.add("(0 : 0 : 0)")
            with pytest.raises(DomainError, match=r"\(0 : 0 : 0\) is not a point"):
                EllPoint(*values)
            continue
        # the inputs that are not normalized already, and x = y = 0
        x, y = coords[0], coords[1]
        if x != (0, 0):
            seen.add("x != 1" if x != (1, 0) else "x = 1")
        else:
            seen.add("x = y = 0" if y == (0, 0) else "x = 0, y != 1" if y != (1, 0) else "x = 0, y = 1")
        pt = EllPoint(*values)
        got = [(c._a, c._b, c._d) for c in (pt.x, pt.y, pt.z)]
        assert got == [_canonical_triple(c) for c in expected], coords
    assert seen >= {"int", "Fraction", "GaussianRational", "(0 : 0 : 0)", "x != 1", "x = 0, y != 1", "x = y = 0"}


def test_normalizing_a_point_reduces_once_per_coordinate(count_calls):
    calls = count_calls(exact, "_reduced")
    x = GaussianRational(Fraction(2, 3), 5)
    y = GaussianRational(Fraction(-7, 4), Fraction(1, 9))
    z = GaussianRational(3, Fraction(-2, 5))
    # y/x and z/x^2: one reduction each, and none for the leading 1
    EllPoint(x, y, z)
    assert len(calls) <= 2
    calls.clear()
    EllPoint(0, y, z)
    assert len(calls) <= 1
    calls.clear()
    EllPoint(0, 0, z)
    assert calls == []


def test_two_torsion_lies_on_curve():
    rng = Random(60)
    for _ in range(10):
        lam, _ = random_curve_point(rng)
        pair = LambdaPair.from_affine(lam)
        # the four Z = 0 points: the branch locus of the double cover
        for pt in (EllPoint(1, 0, 0), EllPoint(0, 1, 0), EllPoint(1, 1, 0),
                   EllPoint(pair.l0, pair.l1, 0)):
            assert on_curve(pair, pt)
            assert pt.z.is_zero()


def test_random_points_lie_on_curve():
    rng = Random(61)
    for _ in range(20):
        lam, pt = random_curve_point(rng)
        pair = LambdaPair.from_affine(lam)
        assert on_curve(pair, pt)
        assert not pt.z.is_zero()


def test_translations_are_involutions_and_compose():
    rng = Random(62)
    for _ in range(15):
        lam, pt = random_curve_point(rng)
        pair = LambdaPair.from_affine(lam)
        for which in ("t1", "t2", "t3"):
            moved = translate(pair, pt, which)
            assert on_curve(pair, moved)
            assert translate(pair, moved, which) == pt
        assert translate(pair, translate(pair, pt, "t2"), "t1") == translate(pair, pt, "t3")


def test_translation_images_of_the_origin():
    pair = LambdaPair.from_affine(Fraction(7, 2))
    origin = EllPoint(1, 0, 0)
    assert translate(pair, origin, "t1") == EllPoint(pair.l0, pair.l1, 0)
    assert translate(pair, origin, "t2") == EllPoint(1, 1, 0)
    assert translate(pair, origin, "t3") == EllPoint(0, 1, 0)
    with pytest.raises(DomainError):
        translate(pair, origin, "t9")


def test_symmetries_preserve_membership_with_pairs():
    # the transforms build their images without the membership check, so
    # check every image of the 192-element sweep here
    rng = Random(63)
    for k in range(15):
        cfg = random_configuration(rng)
        for which in ("swap", "complement"):
            out = apply_group_element(cfg, (which,))
            assert on_curve(out.lam, out.p1)
            assert on_curve(out.lam, out.p2)
        if k % 3:
            continue
        for word, tr1, tr2, flip in product(LAMBDA_WORDS, TRANSLATIONS, TRANSLATIONS, (False, True)):
            out = apply_group_element(cfg, word, tr1, tr2, flip)
            assert on_curve(out.lam, out.p1), (word, tr1, tr2, flip)
            assert on_curve(out.lam, out.p2), (word, tr1, tr2, flip)
    pair = LambdaPair.from_affine(Fraction(3, 4))
    torsion = EllipticConfiguration(pair, EllPoint(1, 0, 0), EllPoint(0, 1, 0))
    assert apply_group_element(torsion, ("swap",)).lam == LambdaPair(
        GaussianRational(1), GaussianRational(Fraction(3, 4))
    )
    assert apply_group_element(torsion, ("complement",)).lam == LambdaPair(
        GaussianRational(Fraction(1, 4)), GaussianRational(1)
    )


def test_double_complement_is_the_flip():
    rng = Random(64)
    cfg = random_configuration(rng)
    twice = apply_group_element(apply_group_element(cfg, ("complement",)), ("complement",))
    assert twice.lam == cfg.lam
    assert twice.p1 == cfg.p1.flipped()
    assert twice.p2 == cfg.p2.flipped()


def test_group_element_refuses_unknown_generators():
    cfg = random_configuration(Random(73))
    for step in ("rotate", "t1"):
        with pytest.raises(DomainError, match=f"unknown parameter symmetry '{step}'"):
            apply_group_element(cfg, ("swap", step))
    with pytest.raises(DomainError, match="unknown translation 't9'"):
        apply_group_element(cfg, (), "t9")
    with pytest.raises(DomainError, match="unknown translation 'swap'"):
        apply_group_element(cfg, ("complement",), None, "swap")


def test_configuration_validation():
    with pytest.raises(DomainError):
        make_configuration(Fraction(2), (1, 1, 1), (1, 0, 0))
    pair = LambdaPair.from_affine(Fraction(2))
    with pytest.raises(DomainError, match="first point"):
        EllipticConfiguration(pair, EllPoint(1, 1, 1), EllPoint(1, 0, 0))
    with pytest.raises(DomainError, match="second point"):
        EllipticConfiguration(pair, EllPoint(1, 0, 0), EllPoint(1, 1, 1))
    cfg = make_configuration(Fraction(2), (1, 0, 0), (0, 1, 0))
    assert not is_admissible(cfg)  # second point is 2-torsion
    with pytest.raises(DomainError):
        orbit_equivalent(cfg, cfg)


def test_point_multiples_stay_on_curve():
    rng = Random(65)
    for _ in range(10):
        lam, pt = random_curve_point(rng)
        pair = LambdaPair.from_affine(lam)
        glam = GaussianRational(lam)
        for k in (2, 3):
            multiple = point_multiple(glam, pt, k)
            if multiple is not None:
                assert on_curve(pair, multiple)


def test_orbit_search_positive_cases():
    rng = Random(66)
    for _ in range(8):
        cfg = random_configuration(rng)
        word = rng.choice(LAMBDA_WORDS)
        tr1 = rng.choice((None, "t1", "t2", "t3"))
        tr2 = rng.choice((None, "t1", "t2", "t3"))
        image = apply_group_element(cfg, word, tr1, tr2, False)
        equivalent, witness = orbit_equivalent(cfg, image)
        assert equivalent
        # the witness reproduces the image on the nose
        rebuilt = apply_group_element(
            cfg,
            witness["lambda_word"],
            witness["translate_first"],
            witness["translate_second"],
            witness["flip"],
        )
        assert rebuilt == image


def test_orbit_search_rejects_unrelated_parameters():
    rng = Random(67)
    for _ in range(8):
        c1 = random_configuration(rng)
        lam1 = c1.lam.affine.as_fraction()
        orbit = {
            lam1,
            1 / lam1,
            1 - lam1,
            1 - 1 / lam1,
            1 / (1 - lam1),
            lam1 / (lam1 - 1),
        }
        c2 = random_configuration(rng)
        while c2.lam.affine.as_fraction() in orbit:
            c2 = random_configuration(rng)
        equivalent, witness = orbit_equivalent(c1, c2)
        assert not equivalent and witness is None


def test_orbit_search_rejects_unrelated_points_same_curve():
    rng = Random(68)
    built = 0
    while built < 5:
        lam, p1 = random_curve_point(rng)
        glam = GaussianRational(lam)
        near = point_multiple(glam, p1, 2)
        far = point_multiple(glam, p1, 5)
        if near is None or far is None or near.z.is_zero() or far.z.is_zero():
            continue
        if near == far:
            continue
        pair = LambdaPair.from_affine(lam)
        c1 = EllipticConfiguration(pair, p1, near)
        c2 = EllipticConfiguration(pair, p1, far)
        equivalent, _ = orbit_equivalent(c1, c2, include_involution=True)
        assert not equivalent
        built += 1


def test_flip_requires_the_involution_flag():
    rng = Random(69)
    cfg = random_configuration(rng)
    flipped = EllipticConfiguration(cfg.lam, cfg.p1.flipped(), cfg.p2.flipped())
    plain, _ = orbit_equivalent(cfg, flipped)
    assert not plain
    extended, witness = orbit_equivalent(cfg, flipped, include_involution=True)
    assert extended and witness["flip"] is True


def _undo_witness(cfg, witness):
    """Invert a witness generator by generator.

    Translations and the flip are involutions.  A single complement
    squares to the deck flip, so its inverse is itself followed by the
    flip on both points.
    """
    out = cfg
    if witness["flip"]:
        out = EllipticConfiguration(out.lam, out.p1.flipped(), out.p2.flipped())
    tr1 = witness["translate_first"]
    tr2 = witness["translate_second"]
    p1 = translate(out.lam, out.p1, tr1) if tr1 else out.p1
    p2 = translate(out.lam, out.p2, tr2) if tr2 else out.p2
    out = EllipticConfiguration(out.lam, p1, p2)
    for step in reversed(witness["lambda_word"]):
        out = apply_group_element(out, (step,))
        if step == "complement":
            out = EllipticConfiguration(
                out.lam, out.p1.flipped(), out.p2.flipped()
            )
    return out


def test_orbit_search_accepts_points_written_with_scaled_coordinates():
    # (sX : sY : s^2 Z) is the point (X : Y : Z), for every nonzero s of Q(i)
    rng = Random(74)
    scales = (2, -1, GaussianRational(Fraction(1, 3), 2), exact.GAUSSIAN_I, Fraction(-5, 7))
    for k in range(10):
        cfg = random_configuration(rng)
        word = rng.choice(LAMBDA_WORDS)
        tr1, tr2 = rng.choice(TRANSLATIONS), rng.choice(TRANSLATIONS)
        image = apply_group_element(cfg, word, tr1, tr2, rng.choice((False, True)))
        s = scales[k % len(scales)]
        point = image.p1 if k % 2 else image.p2
        scaled = EllPoint(s * point.x, s * point.y, s * s * point.z)
        second = EllipticConfiguration(image.lam, *((scaled, image.p2) if k % 2 else (image.p1, scaled)))
        found, witness = orbit_equivalent(cfg, second, include_involution=True)
        assert found
        assert apply_group_element(cfg, **witness) == second
        assert scaled == point and second == image


def test_orbit_witness_inverts_exactly():
    rng = Random(70)
    for _ in range(8):
        cfg = random_configuration(rng)
        word = rng.choice(LAMBDA_WORDS)
        tr1 = rng.choice((None, "t1", "t2", "t3"))
        tr2 = rng.choice((None, "t1", "t2", "t3"))
        flip = rng.choice((False, True))
        image = apply_group_element(cfg, word, tr1, tr2, flip)
        found, witness = orbit_equivalent(cfg, image, include_involution=True)
        assert found
        assert _undo_witness(image, witness) == cfg


def test_orbit_symmetric_for_diagonal_translations():
    # With the deck map included, elements translating both points by the
    # same torsion point have their inverses inside the searched set, so
    # the relation is symmetric on them.
    rng = Random(71)
    for _ in range(6):
        cfg = random_configuration(rng)
        word = rng.choice(LAMBDA_WORDS)
        tr = rng.choice((None, "t1", "t2", "t3"))
        flip = rng.choice((False, True))
        image = apply_group_element(cfg, word, tr, tr, flip)
        fwd, _ = orbit_equivalent(cfg, image, include_involution=True)
        bwd, _ = orbit_equivalent(image, cfg, include_involution=True)
        assert fwd and bwd


def test_orbit_asymmetry_for_mixed_translations():
    # Known limitation of the fixed 192-element sweep: conjugating a
    # single-point translation through a parameter word can pick up the
    # deck sign on one point only, and no searched element carries that.
    # The witness itself still inverts exactly (previous test).
    cfg = random_configuration(Random(7))
    image = apply_group_element(cfg, ("swap",), None, "t1", False)
    fwd, _ = orbit_equivalent(cfg, image, include_involution=True)
    bwd, _ = orbit_equivalent(image, cfg, include_involution=True)
    assert fwd and not bwd


def _reference_group_element(cfg, word, tr1, tr2, flip):
    """``apply_group_element`` with every step built by the checked constructors.

    Each single step is rebuilt through ``LambdaPair`` and
    ``EllipticConfiguration``, so a degenerate image parameter or an image
    point off the curve raises here even though the fast path skips both
    checks.
    """
    out = cfg
    for step in word:
        image = apply_group_element(out, (step,))
        out = EllipticConfiguration(LambdaPair(image.lam.l0, image.lam.l1), image.p1, image.p2)
    p1 = translate(out.lam, out.p1, tr1) if tr1 else out.p1
    p2 = translate(out.lam, out.p2, tr2) if tr2 else out.p2
    if flip:
        p1, p2 = p1.flipped(), p2.flipped()
    return EllipticConfiguration(out.lam, p1, p2)


def _reference_orbit_equivalent(first, second, include_involution=False):
    """The exhaustive search in its documented order (word, tr1, tr2, flip)."""
    for cfg in (first, second):
        if not is_admissible(cfg):
            raise DomainError("orbit comparison needs admissible configurations")
    flips = (False, True) if include_involution else (False,)
    for word, tr1, tr2, flip in product(LAMBDA_WORDS, TRANSLATIONS, TRANSLATIONS, flips):
        if _reference_group_element(first, word, tr1, tr2, flip) == second:
            witness = {
                "lambda_word": list(word),
                "translate_first": tr1,
                "translate_second": tr2,
                "flip": flip,
            }
            return True, witness
    return False, None


def test_orbit_search_matches_the_checked_reference():
    rng = Random(72)
    pairs = []
    for k in range(30):
        # positives from every word, each word flipped and not flipped
        cfg = random_configuration(rng)
        element = (LAMBDA_WORDS[k % 6], rng.choice(TRANSLATIONS), rng.choice(TRANSLATIONS), k // 6 % 2 == 1)
        pairs.append((cfg, apply_group_element(cfg, *element)))
    for _ in range(6):
        pairs.append((random_configuration(rng), random_configuration(rng)))
    for _ in range(4):
        # same parameter and first point, second point flipped alone
        cfg = random_configuration(rng)
        pairs.append((cfg, EllipticConfiguration(cfg.lam, cfg.p1, cfg.p2.flipped())))
    found = 0
    for first, second in pairs:
        for include_involution in (False, True):
            got = orbit_equivalent(first, second, include_involution)
            assert got == _reference_orbit_equivalent(first, second, include_involution)
            found += got[0]
    assert 0 < found < 2 * len(pairs)
