"""Seeded raw inputs for the benchmark workloads.

Everything here works on plain nested lists of ``Fraction`` and imports
nothing from the package under test, so the inputs (and the reference
values computed from them) do not depend on the code being measured.

The only new generator is the dense rational one: a seeded invertible
change of basis applied to a direct sum of the two-dimensional
non-abelian algebra ``b2`` and the Heisenberg algebra ``heis3`` (the
conftest corpus algebras, rebuilt here as raw tables).  A change of basis
preserves every axiom, so the result is a valid algebra with dense
structure constants and multi-digit denominators.  The test suite's own
random generators produce no valid algebra above dimension 3.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

ZERO = Fraction(0)

# [e0, e1] = e0 and [e0, e1] = e2, the conftest ``make_b2`` / ``make_heisenberg``.
B2 = ("b2", 2, {(0, 1): (0, 1)})  # (label, dim, {(i, j): (k, coefficient)})
HEIS3 = ("heis3", 3, {(0, 1): (2, 1)})
LINE = ("line", 1, {})

# Direct-sum shape per dimension of the dense workload.
DENSE_SUMS = {
    4: (B2, B2),
    5: (B2, HEIS3),
    6: (HEIS3, HEIS3),
    7: (B2, B2, HEIS3),
    8: (B2, HEIS3, HEIS3),
}

# Pivots of the upper factor of the change of basis.  Fixing their multiset
# fixes the determinant (1260 at n = 8), so every seed yields denominators
# of the same size and the workload's cost does not drift with the seed.
PIVOTS = (2, -3, 1, 5, -1, 7, -2, 3)
OFF_DIAGONAL = (-2, -1, 1, 2)
COEFFICIENTS = tuple(Fraction(v) for v in (-3, -2, -1, 1, 2, 3)) + (Fraction(1, 2), Fraction(-1, 2))


def zero_table(n: int) -> list:
    return [[[ZERO] * n for _ in range(n)] for _ in range(n)]


def direct_sum(parts) -> tuple[list, list]:
    """Raw structure constants of a direct sum, plus the index of the
    central basis element e2 of each ``heis3`` summand."""
    n = sum(dim for _, dim, _ in parts)
    c = zero_table(n)
    centers = []
    offset = 0
    for label, dim, entries in parts:
        for (i, j), (k, coeff) in entries.items():
            c[offset + i][offset + j][offset + k] = Fraction(coeff)
            c[offset + j][offset + i][offset + k] = -Fraction(coeff)
        if label == "heis3":
            centers.append(offset + 2)
        offset += dim
    return c, centers


def matmul(a: list, b: list) -> list:
    inner = len(b)
    return [
        [sum((a[i][k] * b[k][j] for k in range(inner)), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def inverse(p: list) -> list:
    """Gauss-Jordan inverse of an invertible square Fraction matrix."""
    n = len(p)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def random_basis(rng, n: int) -> list:
    """Dense invertible P = L U: unit lower L, upper U with the fixed pivots
    in seeded order, every off-diagonal entry a nonzero small integer."""
    pivots = list(PIVOTS[:n])
    rng.shuffle(pivots)
    lower = [
        [Fraction(1) if i == j else Fraction(rng.choice(OFF_DIAGONAL)) if j < i else ZERO for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [Fraction(pivots[i]) if i == j else Fraction(rng.choice(OFF_DIAGONAL)) if j > i else ZERO for j in range(n)]
        for i in range(n)
    ]
    return matmul(lower, upper)


def change_basis(c: list, p: list, q: list) -> list:
    """Structure constants in the basis f_a = sum_i p[i][a] e_i, where q is
    the inverse of p."""
    n = len(c)
    out = zero_table(n)
    for a in range(n):
        for b in range(n):
            v = [ZERO] * n
            for i in range(n):
                for j in range(n):
                    w = p[i][a] * p[j][b]
                    if w:
                        cij = c[i][j]
                        for k in range(n):
                            if cij[k]:
                                v[k] += w * cij[k]
            out[a][b] = [sum((q[m][k] * v[k] for k in range(n)), ZERO) for m in range(n)]
    return out


def transform_tensor(t: list, q: list) -> list:
    """Coordinates of a two-tensor after the change of basis (q = p^-1)."""
    return matmul(matmul(q, t), [list(col) for col in zip(*q)])


def wedge(n: int, i: int, j: int, coeff: Fraction) -> list:
    t = [[ZERO] * n for _ in range(n)]
    t[i][j] = coeff
    t[j][i] = -coeff
    return t


def add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def solution_tensor(rng, parts, centers) -> list:
    """Seeded skew solution of the untwisted Yang-Baxter equation on a
    direct sum: e0^e1 on each ``b2``, (a e0 + b e1)^e2 on each ``heis3``,
    nothing on a ``line``, and z^z' between the centers of two summands.  Brackets never mix
    summands, so every cross term of the quadratic residual vanishes."""
    n = sum(dim for _, dim, _ in parts)
    t = [[ZERO] * n for _ in range(n)]
    offset = 0
    for label, dim, _ in parts:
        if label == "b2":
            t = add(t, wedge(n, offset, offset + 1, rng.choice(COEFFICIENTS)))
        elif label == "heis3":
            t = add(t, wedge(n, offset, offset + 2, rng.choice(COEFFICIENTS)))
            t = add(t, wedge(n, offset + 1, offset + 2, rng.choice(COEFFICIENTS)))
        offset += dim
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            t = add(t, wedge(n, centers[a], centers[b], rng.choice(COEFFICIENTS)))
    return t


def dense_algebra(rng, parts) -> tuple[list, list]:
    """A dense basis change of a direct sum, with a seeded skew solution
    carried into the new basis.  Returns (structure constants, tensor)."""
    c, centers = direct_sum(parts)
    tensor = solution_tensor(rng, parts, centers)
    p = random_basis(rng, len(c))
    q = inverse(p)
    return change_basis(c, p, q), transform_tensor(tensor, q)


def random_matrix(rng, rows: int, cols: int, lo: int = -2, hi: int = 2) -> list:
    return [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]


def dim2_table(bracket) -> list:
    """Raw structure constants of the two-dimensional algebra [e0, e1] = bracket."""
    c = zero_table(2)
    c[0][1] = [Fraction(x) for x in bracket]
    c[1][0] = [-Fraction(x) for x in bracket]
    return c


def bridge_grid() -> list:
    """Parameters of the 324 dim-2 pairs of acceptance criteria 04/05:
    ((bracket, r), (dual bracket, dual r))."""
    out = []
    for a, b in product((-1, 0, 1), repeat=2):
        for r in ((0, 0), (1, 0)):
            for al, be in product((-1, 0, 1), repeat=2):
                for rs in ((0, 0), (0, 1)):
                    out.append((((a, b), r), ((al, be), rs)))
    return out
