"""Quivers, potentials and their Jacobi relations.

A path is a word of arrow labels stored leftmost-first: the tuple
``(x_n, ..., x_1)`` applies ``x_1`` first, so two words compose exactly
when the source of the left factor equals the target of the right
factor; ``enumerate_paths`` yields the composable words between two
vertices.  Potentials are finite rational combinations of cyclic words;
each cycle is stored under its lexicographically least rotation so that
equality of potentials is dictionary equality.  ``jacobi_generators``
gives the relations as one table, arrow -> {path word: coefficient},
which ``graded_dimension`` and the ``dtcount`` counts read.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Mapping, Tuple, Union

from .errors import DomainError
from .exact import GaussianRational, _Record, _rational, row_reduce

#: Longest path length accepted by :func:`graded_dimension`.
MAX_GRADED_LENGTH = 8

#: Largest sum of len(word)^2 over the words of a :class:`CyclicPotential`
#: (one cycle of 1,000 labels): a word of length n costs n^2 to canonicalise
#: and differentiate, in time and, when it is aperiodic, in memory.
MAX_WORD_CELLS = 10 ** 6


class Quiver(_Record):
    """A finite quiver with uniquely labelled arrows, each (label, source, target)."""

    __slots__ = ("name", "vertices", "arrows", "_by_label")

    def __init__(self, name: str, vertices: Tuple[str, ...], arrows: Tuple[Tuple[str, str, str], ...]):
        seen = set()
        for label, src, tgt in arrows:
            if label in seen:
                raise ValueError(f"duplicate arrow label {label!r}")
            seen.add(label)
            if src not in vertices or tgt not in vertices:
                raise ValueError(f"arrow {label!r} uses an unknown vertex")
        self._assign(name, vertices, arrows, {a[0]: a for a in arrows})

    def has_vertex(self, v: str) -> bool:
        return v in self.vertices

    def arrow_labels(self) -> Tuple[str, ...]:
        return tuple(a[0] for a in self.arrows)

    def source(self, label: str) -> str:
        return self._arrow(label)[1]

    def target(self, label: str) -> str:
        return self._arrow(label)[2]

    def _arrow(self, label: str):
        try:
            return self._by_label[label]
        except KeyError:
            raise DomainError(f"unknown arrow {label!r} in quiver {self.name}") from None

    def arrows_from(self, vertex: str) -> Tuple[str, ...]:
        return tuple(a[0] for a in self.arrows if a[1] == vertex)


_CONIFOLD = Quiver(
    name="conifold",
    vertices=("v0", "v1"),
    arrows=(
        ("a1", "v0", "v1"),
        ("a2", "v0", "v1"),
        ("b1", "v1", "v0"),
        ("b2", "v1", "v0"),
    ),
)


def conifold_quiver() -> Quiver:
    """Two vertices, arrows a1, a2 one way and b1, b2 back.

    Every call returns the same frozen instance, so the many potentials
    built on it do not each carry a quiver of their own.
    """
    return _CONIFOLD


def double_cover_quiver() -> Quiver:
    """The degree-2 unfolding of the conifold quiver.

    Vertices carry a sheet index; a-arrows stay on their sheet while
    b-arrows switch sheets, and an arrow is primed exactly when its
    source lies on sheet 1.
    """
    return Quiver(
        name="conifold-double-cover",
        vertices=("v00", "v10", "v01", "v11"),
        arrows=(
            ("a1", "v00", "v10"),
            ("a2", "v00", "v10"),
            ("b1", "v10", "v01"),
            ("b2", "v10", "v01"),
            ("a1'", "v01", "v11"),
            ("a2'", "v01", "v11"),
            ("b1'", "v11", "v00"),
            ("b2'", "v11", "v00"),
        ),
    )


def framed_conifold_quiver() -> Quiver:
    """Conifold quiver with a framing vertex and one arrow into v0."""
    return Quiver(
        name="framed-conifold",
        vertices=_CONIFOLD.vertices + ("vinf",),
        arrows=_CONIFOLD.arrows + (("i", "vinf", "v0"),),
    )


Word = Tuple[str, ...]


def _canonical_rotation(word: Word) -> Word:
    return min(word[k:] + word[:k] for k in range(len(word)))


def _check_cyclic_word(quiver: Quiver, word: Word) -> None:
    if not word:
        raise DomainError("cyclic words must be nonempty")
    for left, right in zip(word, word[1:]):
        if quiver.source(left) != quiver.target(right):
            raise DomainError(f"cyclic word {word} is not composable at {left!r}|{right!r}")
    if quiver.source(word[-1]) != quiver.target(word[0]):
        raise DomainError(f"word {word} does not close up into a cycle")


class CyclicPotential(_Record):
    """A rational combination of cyclic words, one canonical rotation per cycle.

    Coefficients passed for different rotations of the same cycle
    accumulate onto the shared canonical representative.  Words whose
    squared lengths sum past ``MAX_WORD_CELLS`` raise ``DomainError``.
    """

    __slots__ = ("quiver", "terms")
    __hash__ = None

    def __init__(self, quiver: Quiver, terms: Mapping[Word, Union[int, Fraction]] = ()):
        terms = dict(terms)
        cells = sum(len(word) ** 2 for word in terms)
        if cells > MAX_WORD_CELLS:
            raise DomainError(
                f"the words have {cells} cells (squared lengths summed), "
                f"above the configured bound {MAX_WORD_CELLS}"
            )
        clean: Dict[Word, Fraction] = {}
        for word, coeff in terms.items():
            word = tuple(word)
            _check_cyclic_word(quiver, word)
            # Fractions are immutable, so a Fraction coefficient is kept as given
            c = coeff if type(coeff) is Fraction else _rational(coeff)
            if c == 0:
                continue
            key = _canonical_rotation(word)
            merged = clean[key] + c if key in clean else c
            if merged == 0:
                clean.pop(key, None)
            else:
                clean[key] = merged
        self._assign(quiver, clean)

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def scale(self, factor: Union[int, Fraction]) -> "CyclicPotential":
        f = _rational(factor)
        return CyclicPotential(self.quiver, {w: f * c for w, c in self.terms.items()})

    def __repr__(self):
        bits = [f"{c}*{'.'.join(w)}" for w, c in sorted(self.terms.items())]
        return "CyclicPotential(" + (" + ".join(bits) or "0") + ")"


def conifold_potential() -> CyclicPotential:
    """The superpotential a1 b1 a2 b2 - a1 b2 a2 b1 on the conifold quiver."""
    q = conifold_quiver()
    return CyclicPotential(
        q,
        {
            ("a1", "b1", "a2", "b2"): Fraction(1),
            ("a1", "b2", "a2", "b1"): Fraction(-1),
        },
    )


def jacobi_generators(potential: CyclicPotential) -> Dict[str, Dict[Word, Fraction]]:
    """The Jacobi relations: the nonzero cyclic derivative by each arrow, in label order.

    The derivative by x maps each path w such that x.w is a rotation of a
    stored word to its coefficient, in (length, word) order of w.  The n
    rotations of a word of length n and period d repeat each of its d
    distinct rotations n/d times, so each path gets c*n/d, c the word's
    coefficient.  Since x.w fixes the cycle, no path comes from two words.
    Each path w runs from target(x) back to source(x); for a loop x it
    may be the empty word.
    """
    by_arrow: Dict[str, list] = {}
    for word, coeff in potential.terms.items():
        n = len(word)
        twice = word + word
        rotations = {twice[k:k + n] for k in range(n)}
        if len(rotations) < n:
            coeff *= n // len(rotations)
        for rot in rotations:
            by_arrow.setdefault(rot[0], []).append((n, rot[1:], coeff))
    # a path occurs once per arrow, so the sorts never compare coefficients
    return {
        arrow: {path: c for _, path, c in sorted(by_arrow[arrow])}
        for arrow in sorted(by_arrow)
    }


def enumerate_paths(quiver: Quiver, source: str, target: str, length: int):
    """All leftmost-first arrow words of the given length from source to target."""
    if length == 0:
        if source == target:
            yield ()
        return
    for label in quiver.arrows_from(source):
        for rest in enumerate_paths(quiver, quiver.target(label), target, length - 1):
            yield rest + (label,)


def graded_dimension(
    potential: CyclicPotential,
    source: str,
    target: str,
    max_length: int,
) -> list:
    """Dimensions of the length-graded pieces e_target . J(Phi) . e_source.

    For each length up to ``max_length`` this counts paths and subtracts
    the rank of the span of all products p * r * q where r runs over the
    cyclic derivatives of the potential and p, q over complementary
    paths.  The potential must be homogeneous so that length grading
    descends to the quotient.
    """
    quiver = potential.quiver
    if not quiver.has_vertex(source) or not quiver.has_vertex(target):
        raise DomainError("unknown vertex for graded dimension")
    if max_length < 0:
        raise DomainError("max_length must be non-negative")
    if max_length > MAX_GRADED_LENGTH:
        raise DomainError(
            f"max_length {max_length} exceeds the configured bound {MAX_GRADED_LENGTH}"
        )
    if not potential.is_homogeneous():
        raise DomainError("graded dimensions need a homogeneous potential")

    # every path of the derivative by x runs from target(x) to source(x),
    # and homogeneity gives them one length, so the first path speaks for all
    gens = [
        (
            quiver.target(arrow),
            quiver.source(arrow),
            len(next(iter(derivative))),
            [(path, GaussianRational(c)) for path, c in derivative.items()],
        )
        for arrow, derivative in jacobi_generators(potential).items()
    ]

    dims = []
    for length in range(max_length + 1):
        ambient = list(enumerate_paths(quiver, source, target, length))
        index = {word: k for k, word in enumerate(ambient)}
        rows = []
        for g_source, g_target, g_degree, g_terms in gens:
            free = length - g_degree
            if free < 0:
                continue
            for dp in range(free + 1):
                dq = free - dp
                for p_word in enumerate_paths(quiver, g_target, target, dp):
                    for q_word in enumerate_paths(quiver, source, g_source, dq):
                        # distinct paths give distinct words, so nothing cancels
                        rows.append({index[p_word + path + q_word]: c for path, c in g_terms})
        dims.append(len(ambient) - row_reduce(rows))
    return dims


def potential_double_cover(potential: CyclicPotential) -> CyclicPotential:
    """Lift a conifold potential through the two-sheeted covering quiver.

    Each cycle alternates a and b arrows; a-arrows keep the sheet and
    b-arrows flip it, so every cycle of even b-count has exactly two
    lifts, one per starting sheet.  Both are accumulated (they can land
    on the same cyclic word when the cycle has a rotational symmetry).
    """
    if potential.quiver != conifold_quiver():
        raise DomainError("the double cover lift is defined for conifold potentials")
    cover = double_cover_quiver()
    lifted: Dict[Word, Fraction] = {}
    for word, coeff in potential.terms.items():
        for start_sheet in (0, 1):
            sheet = start_sheet
            out = []
            for label in reversed(word):  # walk in application order
                lifted_label = label + "'" if sheet == 1 else label
                out.append(lifted_label)
                if label.startswith("b"):
                    sheet = 1 - sheet
            if sheet != start_sheet:
                raise DomainError(f"cycle {word} does not close on the double cover")
            lifted_word = tuple(reversed(out))
            lifted[lifted_word] = lifted.get(lifted_word, Fraction(0)) + coeff
    return CyclicPotential(cover, lifted)
