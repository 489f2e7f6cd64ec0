"""Reference answers computed with plain ``fractions.Fraction`` arithmetic.

Nothing here imports ``ncmoduli``: every function recomputes, from the
definitions, a quantity the benchmark compares the library's output
against.  They run outside the timed region, so they favour plainness
over speed.

Conventions shared with the library (they are definitions, not code):

* a symmetric 4x4 matrix N is indexed by the pairs (i, j) in the order
  00, 01, 10, 11, and encodes the potential sum N[(ij),(kl)] a_i b_j a_k b_l;
* the pairing matrix J is the anti-diagonal matrix (1, -1, -1, 1);
* a 2x2x2x2 tensor w flattens to M[(ij)][(kl)] = w[i][j][k][l].
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
J = (
    (0, 0, 0, 1),
    (0, 0, -1, 0),
    (0, -1, 0, 0),
    (1, 0, 0, 0),
)


def matmul(a, b):
    inner = len(b)
    return [
        [sum((a[r][k] * b[k][c] for k in range(inner)), Fraction(0)) for c in range(len(b[0]))]
        for r in range(len(a))
    ]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a) -> Fraction:
    return sum((a[k][k] for k in range(len(a))), Fraction(0))


def power_traces(h, top: int):
    """tr(h), tr(h^2), ..., tr(h^top)."""
    out = []
    power = h
    for _ in range(top):
        out.append(trace(power))
        power = matmul(power, h)
    return out


def _perm_sign(perm) -> int:
    sign = 1
    seen = list(perm)
    for i in range(len(seen)):
        while seen[i] != i:
            j = seen[i]
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


def det(m) -> Fraction:
    """Leibniz expansion; fine for the 4x4 matrices used here."""
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_perm_sign(perm))
        for r in range(n):
            term *= m[r][perm[r]]
            if not term:
                break
        total += term
    return total


# -- potentials and tensors -------------------------------------------


def potential_invariants(n):
    """(f1, f2, f3, f4) = power traces of N J."""
    return power_traces(matmul(n, J), 4)


def potential_stability(n) -> str:
    """N J is nilpotent exactly when its first four power traces vanish
    (Newton's identities, characteristic 0)."""
    return "unstable" if not any(potential_invariants(n)) else "semistable"


def flatten(w):
    return [[w[i][j][k][l] for (k, l) in PAIRS] for (i, j) in PAIRS]


def tensor_from_matrix(n):
    w = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for r, (i, j) in enumerate(PAIRS):
        for c, (k, l) in enumerate(PAIRS):
            w[i][j][k][l] = n[r][c]
    return w


def tensor_invariants(w):
    """(f2, f4, g4, f6) and the nilpotency of A = M^T J M J.

    f2, f4, f6 are tr A, tr A^2, tr A^3 and g4 = det M; A is nilpotent
    exactly when tr A^k vanishes for k = 1..4.
    """
    m = flatten(w)
    a = matmul(matmul(matmul(transpose(m), J), m), J)
    traces = power_traces(a, 4)
    return (traces[0], traces[1], det(m), traces[2]), not any(traces)


def tensor_stability(w) -> str:
    (_, _, g4, _), nilpotent = tensor_invariants(w)
    if g4:
        return "stable"
    return "unstable" if nilpotent else "strictly-semistable"


def _rank_rows(rows):
    """Row echelon basis of a list of rational vectors (plain elimination)."""
    basis = []
    for row in rows:
        row = list(row)
        for b in basis:
            lead = next(k for k, v in enumerate(b) if v)
            if row[lead]:
                factor = row[lead] / b[lead]
                row = [x - factor * y for x, y in zip(row, b)]
        if any(row):
            basis.append(row)
    return basis


def _quadratics_share_root(q1, q2) -> bool:
    """Resultant of a u1^2 + b u1 u2 + c u2^2 and a' u1^2 + b' u1 u2 + c' u2^2."""
    a, b, c = q1
    a2, b2, c2 = q2
    res = (a * c2 - a2 * c) ** 2 - (a * b2 - a2 * b) * (b * c2 - b2 * c)
    return res == 0


def geometric(w):
    """(True, None) when every slot contraction is base point free, else
    (False, first failing slot).

    Contracting slot j with (u1, u2) leaves a 4x2 matrix of linear forms
    (column index in slot j+1 mod 4, rows over the other two slots).  It
    is base point free when its six 2x2 minors, binary quadratics, have
    no common projective zero.  Their span decides that: dimension 0
    means every minor vanishes; 1 means a single quadratic, which always
    has a zero; 3 contains u1^2 and u2^2, which share none; for 2 the
    resultant of a basis decides.
    """
    for j in range(4):
        col_slot = (j + 1) % 4
        rest = [s for s in range(4) if s not in (j, col_slot)]
        rows = []
        for r0 in range(2):
            for r1 in range(2):
                row = []
                for beta in range(2):
                    lin = []
                    for alpha in range(2):
                        idx = [0, 0, 0, 0]
                        idx[j], idx[col_slot], idx[rest[0]], idx[rest[1]] = alpha, beta, r0, r1
                        lin.append(w[idx[0]][idx[1]][idx[2]][idx[3]])
                    row.append(lin)  # coefficients of u1, u2
                rows.append(row)
        minors = []
        for m in range(4):
            for n in range(m + 1, 4):
                (p0, p1), (q0, q1) = rows[m]
                (r0_, r1_), (s0, s1) = rows[n]
                # (p0 u1 + p1 u2)(s0 u1 + s1 u2) - (q0 u1 + q1 u2)(r0 u1 + r1 u2)
                minors.append(
                    (
                        p0 * s0 - q0 * r0_,
                        p0 * s1 + p1 * s0 - q0 * r1_ - q1 * r0_,
                        p1 * s1 - q1 * r1_,
                    )
                )
        basis = _rank_rows(minors)
        if len(basis) in (0, 1):
            return False, j
        if len(basis) == 2 and _quadratics_share_root(basis[0], basis[1]):
            return False, j
    return True, None


def slot_transform(w, gs):
    """Act by the 2x2 matrix gs[s] on slot s of the tensor, for each s."""
    out = w
    for slot, g in enumerate(gs):
        nxt = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        idx = [i, j, k, l]
                        acc = Fraction(0)
                        for t in range(2):
                            src = list(idx)
                            src[slot] = t
                            acc += g[idx[slot]][t] * out[src[0]][src[1]][src[2]][src[3]]
                        nxt[i][j][k][l] = acc
        out = nxt
    return out


def kron2(g, h):
    return [[g[i][k] * h[j][l] for (k, l) in PAIRS] for (i, j) in PAIRS]


def fiber_target(xs):
    """Image of a diagonal spectrum in P(2, 4, 4, 6): (p2, p4, x1 x2 x3 x4, p6)."""
    prod = Fraction(1)
    for v in xs:
        prod *= v
    return (
        sum((v ** 2 for v in xs), Fraction(0)),
        sum((v ** 4 for v in xs), Fraction(0)),
        prod,
        sum((v ** 6 for v in xs), Fraction(0)),
    )


def lambda_orbit(lam: Fraction):
    """The six values of the pencil parameter under swap and complement."""
    return {lam, 1 / lam, 1 - lam, 1 - 1 / lam, 1 / (1 - lam), lam / (lam - 1)}


# -- point counts -----------------------------------------------------


def classical_count(p: int) -> int:
    return p ** 3 + p ** 2


def framed_count(n, p: int):
    """Stable framed points of the potential of N over F_p, by brute force.

    At dimension (1, 1, 1) the relations are the ordinary partial
    derivatives of W(a, b) = v^T N v with v_(ij) = a_i b_j.  For fixed a,
    dW/db = 2 M(a) b and for fixed b, dW/da = 2 K(b) a.  Stability means
    (a1, a2) != 0 with the framing gauged to i = 1, and the torus left
    over acts freely, so the orbit count is the solution count over p - 1.

    Returns None when an entry's denominator vanishes mod p: the relations
    are undefined there and the library must refuse.
    """
    red = [[0] * 4 for _ in range(4)]
    for r in range(4):
        for c in range(4):
            v = Fraction(n[r][c])
            if v and v.denominator % p == 0:
                return None
            red[r][c] = v.numerator * pow(v.denominator, -1, p) % p
    nn = {(i, j, k, l): red[2 * i + j][2 * k + l] for i in range(2) for j in range(2) for k in range(2) for l in range(2)}
    raw = 0
    for a1 in range(p):
        for a2 in range(p):
            if a1 == 0 and a2 == 0:
                continue
            a = (a1, a2)
            m = [
                [sum(a[i] * a[k] * nn[i, j, k, l] for i in range(2) for k in range(2)) % p for l in range(2)]
                for j in range(2)
            ]
            if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p:
                raw += 1  # M(a) invertible: only b = 0 solves M(a) b = 0, and K(0) = 0
                continue
            for b1 in range(p):
                for b2 in range(p):
                    if (m[0][0] * b1 + m[0][1] * b2) % p or (m[1][0] * b1 + m[1][1] * b2) % p:
                        continue
                    b = (b1, b2)
                    kb = [
                        [sum(b[j] * b[l] * nn[i, j, k, l] for j in range(2) for l in range(2)) for k in range(2)]
                        for i in range(2)
                    ]
                    if (kb[0][0] * a1 + kb[0][1] * a2) % p or (kb[1][0] * a1 + kb[1][1] * a2) % p:
                        continue
                    raw += 1
    if raw % (p - 1):
        raise ArithmeticError(f"solution count {raw} at p = {p} is not a multiple of p - 1")
    return raw // (p - 1)
