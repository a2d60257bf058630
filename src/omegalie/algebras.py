"""Core algebraic structures and their axiom checkers.

Structure constants are stored in full (both index orders), and every axiom
is checked rather than assumed, so malformed inputs surface as FAIL reports
instead of silently corrupt objects.  Checkers evaluate identities on basis
tuples only; multilinearity makes that sufficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from .errors import AxiomViolation, DimensionMismatch
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _int_matmul,
    _integer_numerators,
    nullspace,
    solve_linear,
)
from .reports import Report

# Eligibility rules for the distinguished central element used by the
# Yang-Baxter machinery: "center" admits any central element, "zero" admits
# only the zero vector.
CENTRAL_RULES = ("center", "zero")


class IntTable(NamedTuple):
    """A bracket table and an optional linear form as integer numerators
    over one denominator: ``c[i*n + j][k] / den`` is the e_k coefficient of
    [e_i, e_j], so ``c[i*n : i*n + n]`` are the columns of ad e_i, and
    ``r[k] / den`` is the value of the form on e_k (``r`` is None without a
    form)."""

    c: list
    r: Optional[list]
    den: int


def _int_table(table, r: Optional[Vector] = None) -> IntTable:
    """The integer view of a bracket table and an optional linear form.

    Every structure builds the view of each of its tables once, on first
    use; the exact sweeps read it and build Fractions again only for what
    they report or return.
    """
    rows = [v for row in table for v in row]
    nums, den = _integer_numerators(rows if r is None else rows + [r])
    return IntTable(nums[: len(rows)], None if r is None else nums[-1], den)


def _pullback(t: IntTable) -> tuple[list, int]:
    """Numerators of r([e_i, e_j]) as rows, with their denominator."""
    n = len(t.r)
    return [
        [sum(a * b for a, b in zip(t.r, t.c[i * n + j])) for j in range(n)] for i in range(n)
    ], t.den * t.den


def _as_bracket_table(dim: int, table) -> tuple:
    rows = tuple(tuple(Vector(v) if not isinstance(v, Vector) else v for v in row) for row in table)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise DimensionMismatch("structure-constant table must be dim x dim")
    for row in rows:
        for v in row:
            if len(v) != dim:
                raise DimensionMismatch("structure-constant vectors must have length dim")
    return rows


class OmegaLieAlgebra:
    """Anticommutative algebra together with its twisting form.

    Exactly one of ``r`` (multiplicative flavor, with the bilinear twist
    recovered as r([x, y])) and ``omega`` (explicit form on basis pairs) is
    set.  ``table[i][j]`` holds the bracket of the i-th and j-th basis
    vectors.
    """

    def __init__(
        self, dim: int, table, r: Optional[Vector] = None, omega: Optional[Matrix] = None,
        label: str = "",
    ):
        table = _as_bracket_table(dim, table)
        if (r is None) == (omega is None):
            raise ValueError("exactly one of r and omega must be given")
        if r is not None and len(r) != dim:
            raise DimensionMismatch("r must have length dim")
        if omega is not None and omega.shape != (dim, dim):
            raise DimensionMismatch("omega must be dim x dim")
        self.__dict__.update(dim=dim, table=table, r=r, omega=omega, label=label)

    def __setattr__(self, name, value):
        raise AttributeError("OmegaLieAlgebra is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, OmegaLieAlgebra) and (
            self.dim, self.table, self.r, self.omega, self.label
        ) == (other.dim, other.table, other.r, other.omega, other.label)

    @property
    def is_multiplicative(self) -> bool:
        return self.r is not None

    @cached_property
    def _ints(self) -> IntTable:
        """The integer view of the table and r, built on first use."""
        return _int_table(self.table, self.r)

    def bracket(self, x: Vector, y: Vector) -> Vector:
        """Bilinear extension of the structure constants."""
        return _bilinear(self.table, x, y)

    def omega_basis(self, i: int, j: int) -> Fraction:
        """Twist value on a basis pair, via r([.,.]) in the multiplicative flavor."""
        if self.r is not None:
            return self.r.dot(self.table[i][j])
        return self.omega[i, j]


def abelian(dim: int, r: Optional[Vector] = None, label: str = "") -> OmegaLieAlgebra:
    """Abelian algebra, multiplicative with the given r (default 0)."""
    table = [[Vector.zero(dim) for _ in range(dim)] for _ in range(dim)]
    return OmegaLieAlgebra(dim, table, r=r if r is not None else Vector.zero(dim), label=label)


class GeneralizedOmegaLieAlgebra:
    """Two-bracket structure: the first bracket anticommutative, the pair
    tied together by a twisted Jacobi identity through the linear form r."""

    def __init__(self, dim: int, table1, table2, r: Vector, label: str = ""):
        table1, table2 = _as_bracket_table(dim, table1), _as_bracket_table(dim, table2)
        if len(r) != dim:
            raise DimensionMismatch("r must have length dim")
        self.__dict__.update(dim=dim, table1=table1, table2=table2, r=r, label=label)

    def __setattr__(self, name, value):
        raise AttributeError("GeneralizedOmegaLieAlgebra is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneralizedOmegaLieAlgebra) and (
            self.dim, self.table1, self.table2, self.r, self.label
        ) == (other.dim, other.table1, other.table2, other.r, other.label)

    @cached_property
    def _ints1(self) -> IntTable:
        return _int_table(self.table1, self.r)

    @cached_property
    def _ints2(self) -> IntTable:
        return _int_table(self.table2)

    def bracket1(self, x: Vector, y: Vector) -> Vector:
        return _bilinear(self.table1, x, y)

    def bracket2(self, x: Vector, y: Vector) -> Vector:
        return _bilinear(self.table2, x, y)


def _bilinear(table: tuple, x: Vector, y: Vector) -> Vector:
    n = len(table)
    if len(x) != n or len(y) != n:
        raise DimensionMismatch("operands must match the algebra dimension")
    out = Vector.zero(n)
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            out = out + (xi * yj) * table[i][j]
    return out


class LeftSymmetricAlgebra:
    """Left-symmetric product with an optional twist.

    Flavors: plain (twist identically zero), explicit ``omega`` matrix, or
    multiplicative with a linear form ``r`` and twist r(u.v) - r(v.u).
    """

    def __init__(
        self, dim: int, table, r: Optional[Vector] = None, omega: Optional[Matrix] = None,
        label: str = "",
    ):
        table = _as_bracket_table(dim, table)
        if r is not None and omega is not None:
            raise ValueError("at most one of r and omega may be given")
        if r is not None and len(r) != dim:
            raise DimensionMismatch("r must have length dim")
        if omega is not None and omega.shape != (dim, dim):
            raise DimensionMismatch("omega must be dim x dim")
        self.__dict__.update(dim=dim, table=table, r=r, omega=omega, label=label)

    def __setattr__(self, name, value):
        raise AttributeError("LeftSymmetricAlgebra is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, LeftSymmetricAlgebra) and (
            self.dim, self.table, self.r, self.omega, self.label
        ) == (other.dim, other.table, other.r, other.omega, other.label)

    @property
    def is_multiplicative(self) -> bool:
        return self.r is not None

    @property
    def is_plain(self) -> bool:
        return self.r is None and self.omega is None

    @cached_property
    def _ints(self) -> IntTable:
        return _int_table(self.table, self.r)

    def product(self, x: Vector, y: Vector) -> Vector:
        return _bilinear(self.table, x, y)

    def omega_basis(self, i: int, j: int) -> Fraction:
        if self.r is not None:
            return self.r.dot(self.table[i][j]) - self.r.dot(self.table[j][i])
        if self.omega is not None:
            return self.omega[i, j]
        return Fraction(0)


def check_omega_lie(algebra: OmegaLieAlgebra) -> Report:
    """Anticommutativity and the twisted Jacobi identity on all basis triples."""
    report = Report(f"omega-lie axioms [{algebra.label or 'unnamed'}]")
    t = algebra._ints
    _jacobi_clauses(report, "anticommutativity", algebra.table, t, t, _twist(algebra))
    return report


def _twist(algebra: OmegaLieAlgebra) -> tuple[list, int]:
    """Numerators of the twist on basis pairs, r([e_i, e_j]) or the explicit
    omega, with their denominator."""
    if algebra.omega is not None:
        return _integer_numerators(algebra.omega.rows)
    return _pullback(algebra._ints)


def _jacobi_clauses(
    report: Report, anti_name: str, table1, t1: IntTable, t2: IntTable, twist: tuple
) -> None:
    """Anticommutativity of the first bracket, then the twisted Jacobi
    identity [[e_i, e_j]_1, e_k]_2 + cyclic = w(e_i, e_j) e_k + cyclic on
    all basis triples in C order, where ``t1`` and ``t2`` are the integer
    views of the two brackets and ``twist`` = (w, dw) is the twist.  An
    omega-Lie algebra is the case t2 = t1.

    Both sides are integer numerators, each scaled by the other side's
    denominator.
    """
    n = len(table1)
    pairs, d1, d2 = t1.c, t1.den, t2.den
    # by_first[p][k*n + t] is the e_t entry of [e_p, e_k]_2
    by_first = [[e for v in t2.c[p * n : p * n + n] for e in v] for p in range(n)]
    anti = report.clause(anti_name)
    for i in range(n):
        for j in range(i, n):
            if pairs[i * n + j] != [-x for x in pairs[j * n + i]]:
                anti.add((i, j), table1[i][j], -table1[j][i])
    w, dw = twist
    den = d1 * d2
    w = [[x * den for x in row] for row in w]
    # nested[i*n + j][k*n + t]: the e_t entry of [[e_i, e_j]_1, e_k]_2, times dw
    nested = _int_matmul([[x * dw for x in row] for row in pairs], by_first)
    jacobi = report.clause("twisted-jacobi")
    for i in range(n):
        for j in range(n):
            ij = nested[i * n + j]
            for k in range(n):
                jk, ki = nested[j * n + k], nested[k * n + i]
                lhs = [
                    a + b + c
                    for a, b, c in zip(
                        ij[k * n : k * n + n], jk[i * n : i * n + n], ki[j * n : j * n + n]
                    )
                ]
                rhs = [0] * n
                rhs[k] += w[i][j]
                rhs[i] += w[j][k]
                rhs[j] += w[k][i]
                if lhs != rhs:
                    full = den * dw
                    jacobi.add(
                        (i, j, k),
                        Vector(Fraction(x, full) for x in lhs),
                        Vector(Fraction(x, full) for x in rhs),
                    )


def infer_r(algebra: OmegaLieAlgebra):
    """Solve r([e_i, e_j]) = omega(e_i, e_j) for a linear form r.

    Returns the pivot-convention solution, or None when the explicit twist
    is not of bracket-pullback form.  Input must carry an explicit omega.
    """
    if algebra.omega is None:
        raise ValueError("infer_r expects an algebra with an explicit omega")
    n = algebra.dim
    rows, rhs = [], []
    for i in range(n):
        for j in range(i + 1, n):
            rows.append(list(algebra.table[i][j]))
            rhs.append(algebra.omega[i, j])
    if not rows:
        return Vector.zero(n)
    return solve_linear(Matrix(rows), Vector(rhs))


def check_generalized(algebra: GeneralizedOmegaLieAlgebra) -> Report:
    """First-bracket anticommutativity plus the two-bracket twisted Jacobi
    identity on all basis triples."""
    report = Report(f"generalized axioms [{algebra.label or 'unnamed'}]")
    t1 = algebra._ints1
    _jacobi_clauses(
        report, "bracket1-anticommutativity", algebra.table1, t1, algebra._ints2, _pullback(t1)
    )
    return report


def center(algebra: OmegaLieAlgebra) -> Subspace:
    """Elements whose bracket with the whole algebra vanishes."""
    n = algebra.dim
    rows = []
    for j in range(n):
        # rows of the map x -> [x, e_j]
        for k in range(n):
            rows.append([algebra.table[i][j][k] for i in range(n)])
    return nullspace(Matrix(rows))


def central_elements(algebra: OmegaLieAlgebra, rule: str = "center") -> Subspace:
    """The configured pool of eligible distinguished elements."""
    if rule not in CENTRAL_RULES:
        raise ValueError(f"unknown central rule {rule!r}")
    if rule == "zero":
        return Subspace.zero(algebra.dim)
    return center(algebra)


def admissible_subspace(algebra: OmegaLieAlgebra) -> Subspace:
    """ker r intersected with { x : r([x, e_j]) = 0 for all j }."""
    if not algebra.is_multiplicative:
        raise ValueError("admissible subspace is defined for the multiplicative flavor")
    pull, _ = _pullback(algebra._ints)
    # row j holds r([e_i, e_j]) over i; scaling rows leaves the kernel alone
    return nullspace(Matrix([algebra._ints.r] + [list(col) for col in zip(*pull)]))


def check_lsa(algebra: LeftSymmetricAlgebra) -> Report:
    """Twisted left-symmetry on all basis triples: the associator
    (e_i e_j) e_k - e_i (e_j e_k) minus its (j, i, k) value equals
    omega(e_i, e_j) e_k."""
    n = algebra.dim
    report = Report(f"left-symmetric axioms [{algebra.label or 'unnamed'}]")
    clause = report.clause("twisted-left-symmetry")
    pairs, d = algebra._ints.c, algebra._ints.den
    if algebra.r is not None:
        pull, dw = _pullback(algebra._ints)
        w = [[pull[i][j] - pull[j][i] for j in range(n)] for i in range(n)]
    elif algebra.omega is not None:
        w, dw = _integer_numerators(algebra.omega.rows)
    else:
        w, dw = [[0] * n for _ in range(n)], 1
    den = d * d
    # assoc[(i*n + j)*n + k]: numerators of the associator at (i, j, k), times dw
    left = _int_matmul(
        [[x * dw for x in row] for row in pairs],
        [[e for v in pairs[p * n : p * n + n] for e in v] for p in range(n)],
    )
    assoc = []
    for i in range(n):
        right = _int_matmul(pairs, [[x * dw for x in row] for row in pairs[i * n : i * n + n]])
        for j in range(n):
            row = left[i * n + j]
            for k in range(n):
                assoc.append([x - y for x, y in zip(row[k * n : k * n + n], right[j * n + k])])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = [x - y for x, y in zip(assoc[(i * n + j) * n + k], assoc[(j * n + i) * n + k])]
                rhs = [0] * n
                rhs[k] = w[i][j] * den
                if lhs != rhs:
                    full = den * dw
                    clause.add(
                        (i, j, k),
                        Vector(Fraction(x, full) for x in lhs),
                        Vector(Fraction(x, full) for x in rhs),
                    )
    return report


def subadjacent(algebra: LeftSymmetricAlgebra) -> OmegaLieAlgebra:
    """Commutator algebra of a left-symmetric product, with the same twist.

    The plain flavor maps to the multiplicative flavor with r = 0.
    """
    if not check_lsa(algebra).passed:
        raise AxiomViolation("input does not satisfy the left-symmetric axioms")
    n = algebra.dim
    table = [
        [algebra.table[i][j] - algebra.table[j][i] for j in range(n)] for i in range(n)
    ]
    label = f"sub-adjacent({algebra.label})" if algebra.label else "sub-adjacent"
    if algebra.omega is not None:
        out = OmegaLieAlgebra(n, table, omega=algebra.omega, label=label)
    else:
        r = algebra.r if algebra.r is not None else Vector.zero(n)
        out = OmegaLieAlgebra(n, table, r=r, label=label)
    result = check_omega_lie(out)
    if not result.passed:
        raise AxiomViolation(f"sub-adjacent algebra fails its axioms: {result!r}")
    return out


def omega_lie(
    dim: int,
    entries: dict,
    r=None,
    omega=None,
    label: str = "",
) -> OmegaLieAlgebra:
    """Convenience constructor from sparse upper-triangular entries.

    ``entries`` maps (i, j) with i < j to the bracket vector of e_i and e_j
    (given as any iterable of rationals); the antisymmetric completion is
    filled in automatically.
    """
    table = [[Vector.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for (i, j), value in entries.items():
        if not 0 <= i < j < dim:
            raise ValueError("sparse entries must have 0 <= i < j < dim")
        v = value if isinstance(value, Vector) else Vector(value)
        table[i][j] = v
        table[j][i] = -v
    if r is None and omega is None:
        r = Vector.zero(dim)
    if r is not None and not isinstance(r, Vector):
        r = Vector(r)
    if omega is not None and not isinstance(omega, Matrix):
        omega = Matrix(omega)
    return OmegaLieAlgebra(dim, table, r=r, omega=omega, label=label)


def left_symmetric(
    dim: int,
    entries: dict,
    r=None,
    omega=None,
    label: str = "",
) -> LeftSymmetricAlgebra:
    """Convenience constructor from sparse product entries (no symmetry)."""
    table = [[Vector.zero(dim) for _ in range(dim)] for _ in range(dim)]
    for (i, j), value in entries.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError("sparse entries out of range")
        table[i][j] = value if isinstance(value, Vector) else Vector(value)
    if r is not None and not isinstance(r, Vector):
        r = Vector(r)
    if omega is not None and not isinstance(omega, Matrix):
        omega = Matrix(omega)
    return LeftSymmetricAlgebra(dim, table, r=r, omega=omega, label=label)
