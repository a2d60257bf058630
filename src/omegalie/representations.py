"""Representations of omega-Lie algebras, their duals, and semidirect products.

A representation is stored as one carrier-space matrix per basis element of
the acting algebra.  Defining identities are bilinear in the acting slots,
so all checkers quantify over basis pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebras import (
    GeneralizedOmegaLieAlgebra,
    OmegaLieAlgebra,
    check_generalized,
    check_omega_lie,
)
from .errors import AxiomViolation, DimensionMismatch
from .linalg import Matrix, Vector, combine, pad, solve_linear
from .reports import Clause, Report


def _check_operator_family(algebra_dim: int, carrier_dim: int, mats, what: str) -> tuple:
    mats = tuple(mats)
    if len(mats) != algebra_dim:
        raise DimensionMismatch(f"{what} needs one matrix per basis element")
    for m in mats:
        if m.shape != (carrier_dim, carrier_dim):
            raise DimensionMismatch(f"{what} matrices must be {carrier_dim} x {carrier_dim}")
    return mats


@dataclass(frozen=True)
class Representation:
    """Single operator family rho on a carrier space."""

    algebra: OmegaLieAlgebra
    carrier_dim: int
    rho: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "rho",
            _check_operator_family(self.algebra.dim, self.carrier_dim, self.rho, "rho"),
        )

    def rho_of(self, x: Vector) -> Matrix:
        return combine(self.rho, x)


class GenRepKind(Enum):
    GEN_I = "gen_i"
    GEN_II = "gen_ii"
    ASSOCIATED_GEN_II = "associated_gen_ii"


@dataclass(frozen=True)
class GenRepPair:
    """Two operator families (rho1, rho2) replacing a single representation."""

    algebra: OmegaLieAlgebra
    carrier_dim: int
    rho1: tuple
    rho2: tuple
    kind: GenRepKind

    def __post_init__(self):
        if not self.algebra.is_multiplicative:
            raise ValueError("generalized representation pairs need the multiplicative flavor")
        object.__setattr__(
            self,
            "rho1",
            _check_operator_family(self.algebra.dim, self.carrier_dim, self.rho1, "rho1"),
        )
        object.__setattr__(
            self,
            "rho2",
            _check_operator_family(self.algebra.dim, self.carrier_dim, self.rho2, "rho2"),
        )
        if self.kind is GenRepKind.ASSOCIATED_GEN_II and self.carrier_dim != self.algebra.dim:
            raise DimensionMismatch("the associated kind lives on the dual of the algebra")


@dataclass(frozen=True)
class SpecialRepII:
    """Second-kind representation data (rho1, rho2, f) of a two-bracket algebra."""

    algebra: GeneralizedOmegaLieAlgebra
    carrier_dim: int
    rho1: tuple
    rho2: tuple
    f: tuple

    def __post_init__(self):
        for name in ("rho1", "rho2", "f"):
            object.__setattr__(
                self,
                name,
                _check_operator_family(
                    self.algebra.dim, self.carrier_dim, getattr(self, name), name
                ),
            )


def _pulled_back(r: Vector, table) -> list:
    """r([e_i, e_j]) for every basis pair of a bracket table."""
    return [[r.dot(v) for v in row] for row in table]


def _correction(r: Vector, rho1: tuple, rho2: tuple, i: int, j: int) -> Matrix:
    """Second-kind correction 2r_i rho1_j - 2r_j rho1_i - 2r_i rho2_j + 2r_j rho2_i."""
    return (
        (2 * r[i]) * rho1[j]
        - (2 * r[j]) * rho1[i]
        - (2 * r[i]) * rho2[j]
        + (2 * r[j]) * rho2[i]
    )


def _rep_identity(
    clause: Clause, table, twist: list, rho1: tuple, rho2: tuple, second_kind: Vector | None = None
) -> None:
    """rho1([e_i, e_j]) = rho2_i rho1_j - rho2_j rho1_i + twist[i][j] id on all
    basis pairs in C order; a representation is the case rho1 = rho2.

    ``second_kind`` is the linear form r of the second kind, or None for the
    first: the second kind multiplies rho1_i rho2_j - rho1_j rho2_i instead
    and adds the correction term.
    """
    n = len(table)
    ident = Matrix.identity(rho1[0].shape[0])
    for i in range(n):
        for j in range(n):
            lhs = combine(rho1, table[i][j])
            if second_kind is None:
                rhs = rho2[i] @ rho1[j] - rho2[j] @ rho1[i] + twist[i][j] * ident
            else:
                rhs = (
                    rho1[i] @ rho2[j]
                    - rho1[j] @ rho2[i]
                    + twist[i][j] * ident
                    + _correction(second_kind, rho1, rho2, i, j)
                )
            if lhs != rhs:
                clause.add((i, j), lhs, rhs)


def _rho2_from_rho1(clause: Clause, r: Vector, rho1: tuple, rho2: tuple) -> None:
    """rho2(x)(xi) = rho1(x)(xi) - xi(x) r, checked per dual basis vector."""
    n = len(rho1)
    for i in range(n):
        for k in range(n):
            lhs = rho2[i].column(k)
            rhs = rho1[i].column(k) - (Fraction(1) if k == i else Fraction(0)) * r
            if lhs != rhs:
                clause.add((i, k), lhs, rhs)


def _dual_family(algebra: OmegaLieAlgebra, mats: tuple) -> tuple:
    """The family on the dual carrier: in dual-basis coordinates each matrix
    is the negated transpose shifted by twice the r-value of its basis
    element."""
    ident = Matrix.identity(mats[0].shape[0])
    return tuple(-m.transpose() + (2 * algebra.r[i]) * ident for i, m in enumerate(mats))


def check_representation(rep: Representation) -> Report:
    """rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) + omega(x,y) id, on basis pairs."""
    alg, n = rep.algebra, rep.algebra.dim
    report = Report("representation identity")
    twist = [[alg.omega_basis(i, j) for j in range(n)] for i in range(n)]
    _rep_identity(report.clause("representation"), alg.table, twist, rep.rho, rep.rho)
    return report


def dual_representation(rep: Representation) -> Representation:
    """Dual family xi -> -xi o rho(x) + 2 r(x) xi on the dual carrier."""
    alg = rep.algebra
    if not alg.is_multiplicative:
        raise AxiomViolation("dual representation needs the multiplicative flavor")
    if not check_representation(rep).passed:
        raise AxiomViolation("input does not satisfy the representation identity")
    dual = Representation(alg, rep.carrier_dim, _dual_family(alg, rep.rho))
    result = check_representation(dual)
    if not result.passed:
        raise AxiomViolation(f"dual family fails the representation identity: {result!r}")
    return dual


def check_gen_rep(pair: GenRepPair) -> Report:
    """Defining identity of the pair's kind on all basis pairs."""
    alg = pair.algebra
    report = Report(f"generalized representation ({pair.kind.value})")
    _rep_identity(
        report.clause(f"{pair.kind.value}-identity"),
        alg.table,
        _pulled_back(alg.r, alg.table),
        pair.rho1,
        pair.rho2,
        None if pair.kind is GenRepKind.GEN_I else alg.r,
    )
    if pair.kind is GenRepKind.ASSOCIATED_GEN_II:
        _rho2_from_rho1(report.clause("rho2-from-rho1"), alg.r, pair.rho1, pair.rho2)
    return report


def adjoint_pair(algebra: OmegaLieAlgebra) -> GenRepPair:
    """The pair (x -> [x, .], x -> [x, .] + r(.) x) acting on the algebra."""
    if not algebra.is_multiplicative:
        raise ValueError("the adjoint pair needs the multiplicative flavor")
    n = algebra.dim
    ad1 = tuple(algebra.ad1(i) for i in range(n))
    ad2 = tuple(ad1[i] + Vector.unit(n, i).outer(algebra.r) for i in range(n))
    return GenRepPair(algebra, n, ad1, ad2, GenRepKind.GEN_I)


def generalized_dual_pair(pair: GenRepPair) -> GenRepPair:
    """Dual pair on the dual carrier, second kind.

    Built from a first-kind pair; raises when the input fails its identity.
    On the dual of the algebra itself the result is of the associated kind
    whenever its families satisfy that kind's extra clause.
    """
    if pair.kind is not GenRepKind.GEN_I:
        raise ValueError("the dual construction starts from a first-kind pair")
    if not check_gen_rep(pair).passed:
        raise AxiomViolation("input pair fails the first-kind identity")
    alg = pair.algebra
    rho1, rho2 = _dual_family(alg, pair.rho1), _dual_family(alg, pair.rho2)
    dual = GenRepPair(alg, pair.carrier_dim, rho1, rho2, GenRepKind.GEN_II)
    result = check_gen_rep(dual)
    if not result.passed:
        raise AxiomViolation(f"dual pair fails the second-kind identity: {result!r}")
    if pair.carrier_dim == alg.dim:
        # the associated kind is the second kind plus this one clause
        linked = Clause("rho2-from-rho1")
        _rho2_from_rho1(linked, alg.r, rho1, rho2)
        if linked.passed:
            return GenRepPair(alg, pair.carrier_dim, rho1, rho2, GenRepKind.ASSOCIATED_GEN_II)
    return dual


def _semidirect_table(table, left: tuple, right: tuple) -> list:
    """Bracket table on the algebra of ``table`` plus an abelian carrier:
    [e_i, v] = left_i v and [v, e_i] = -right_i v."""
    n, m = len(table), left[0].shape[0]
    total = n + m
    zero_l, zero_v = Vector.zero(n), Vector.zero(m)
    out = [[Vector.zero(total) for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            out[i][j] = pad(table[i][j], zero_v)
        for b in range(m):
            out[i][n + b] = pad(zero_l, left[i].column(b))
            out[n + b][i] = pad(zero_l, -right[i].column(b))
    return out


def semidirect_rep(rep: Representation, label: str = "") -> OmegaLieAlgebra:
    """Semidirect product of the algebra with the carrier of a representation.

    Bracket ([x,y], rho(x)v - rho(y)u) with the linear form pulled back from
    the algebra factor.
    """
    if not check_representation(rep).passed:
        raise AxiomViolation("input does not satisfy the representation identity")
    return _semidirect_rep(rep, label)


def _semidirect_rep(rep: Representation, label: str) -> OmegaLieAlgebra:
    """``semidirect_rep`` for a representation verified already; the axioms
    of the product are still checked."""
    alg = rep.algebra
    if not alg.is_multiplicative:
        raise AxiomViolation("semidirect product needs the multiplicative flavor")
    out = OmegaLieAlgebra(
        alg.dim + rep.carrier_dim,
        _semidirect_table(alg.table, rep.rho, rep.rho),
        r=pad(alg.r, Vector.zero(rep.carrier_dim)),
        label=label or "semidirect",
    )
    result = check_omega_lie(out)
    if not result.passed:
        raise AxiomViolation(f"semidirect product fails its axioms: {result!r}")
    return out


def check_rep_i_generalized(
    algebra: GeneralizedOmegaLieAlgebra, rho1: tuple, rho2: tuple
) -> Report:
    """First-kind identity over the first bracket of a two-bracket algebra."""
    n = algebra.dim
    m = rho1[0].shape[0]
    rho1 = _check_operator_family(n, m, rho1, "rho1")
    rho2 = _check_operator_family(n, m, rho2, "rho2")
    report = Report("representation-i (two-bracket)")
    _rep_identity(
        report.clause("rep-i-identity"),
        algebra.table1,
        _pulled_back(algebra.r, algebra.table1),
        rho1,
        rho2,
    )
    return report


def check_special_rep_ii(data: SpecialRepII) -> Report:
    """Second-kind identity plus the f-identity of a special second-kind tuple."""
    alg, n = data.algebra, data.algebra.dim
    report = Report("special representation-ii")
    _rep_identity(
        report.clause("rep-ii-identity"),
        alg.table1,
        _pulled_back(alg.r, alg.table1),
        data.rho1,
        data.rho2,
        alg.r,
    )
    f_clause = report.clause("f-identity")
    for i in range(n):
        for j in range(n):
            lhs = combine(data.f, alg.table1[i][j])
            rhs = _correction(alg.r, data.rho1, data.rho2, i, j)
            if lhs != rhs:
                f_clause.add((i, j), lhs, rhs)
    return report


def _semidirect_generalized(
    algebra: GeneralizedOmegaLieAlgebra,
    left1: tuple,
    right1: tuple,
    left2: tuple,
    right2: tuple,
    label: str,
) -> GeneralizedOmegaLieAlgebra:
    m = left1[0].shape[0]
    return GeneralizedOmegaLieAlgebra(
        algebra.dim + m,
        _semidirect_table(algebra.table1, left1, right1),
        _semidirect_table(algebra.table2, left2, right2),
        r=pad(algebra.r, Vector.zero(m)),
        label=label,
    )


def semidirect_gen_i(
    algebra: GeneralizedOmegaLieAlgebra, rho1: tuple, rho2: tuple, label: str = ""
) -> tuple[GeneralizedOmegaLieAlgebra, Report]:
    """Semidirect product for a first-kind pair on a two-bracket algebra.

    The structure is returned together with its axiom report; by the
    equivalence with the first-kind identity, the report fails exactly when
    the input pair does.
    """
    m = rho1[0].shape[0]
    rho1 = _check_operator_family(algebra.dim, m, rho1, "rho1")
    rho2 = _check_operator_family(algebra.dim, m, rho2, "rho2")
    out = _semidirect_generalized(algebra, rho1, rho1, rho1, rho2, label or "semidirect-gen-i")
    return out, check_generalized(out)


def semidirect_special_ii(
    data: SpecialRepII, label: str = ""
) -> tuple[GeneralizedOmegaLieAlgebra, Report]:
    """Semidirect product for a special second-kind tuple.

    Second bracket acts by rho1 minus the one-sided f-correction on the
    left slot only, exactly as the construction prescribes.
    """
    shifted = tuple(a - f for a, f in zip(data.rho1, data.f))
    out = _semidirect_generalized(
        data.algebra, data.rho2, data.rho2, shifted, data.rho1, label or "semidirect-special-ii"
    )
    return out, check_generalized(out)


def solve_f_for_special_ii(
    algebra: GeneralizedOmegaLieAlgebra, rho1: tuple, rho2: tuple
):
    """Solve the f-identity for a linear family f, entry by entry.

    Returns the pivot-convention solution as a matrix family, or None when
    the identity admits no linear f.
    """
    n = algebra.dim
    m = rho1[0].shape[0]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    coeff = Matrix([[algebra.table1[i][j][k] for k in range(n)] for (i, j) in pairs])
    targets = {(i, j): _correction(algebra.r, rho1, rho2, i, j) for (i, j) in pairs}
    solution = [[[Fraction(0)] * m for _ in range(m)] for _ in range(n)]
    for p in range(m):
        for q in range(m):
            rhs = Vector([targets[pair][p, q] for pair in pairs])
            x = solve_linear(coeff, rhs)
            if x is None:
                return None
            for k in range(n):
                solution[k][p][q] = x[k]
    return tuple(Matrix(mat) for mat in solution)
