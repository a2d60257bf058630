"""Intertwining operators into the algebra and the left-symmetric pipeline.

An operator here is a linear map from a carrier space into the algebra that
transports the carrier action to the bracket, up to the multiplicative
correction terms.  Such operators tie together left-symmetric products,
representations, and skew solutions of the twisted Yang-Baxter equation on
a semidirect product.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .algebras import (
    LeftSymmetricAlgebra,
    OmegaLieAlgebra,
    check_lsa,
    check_omega_lie,
    subadjacent,
)
from .errors import AxiomViolation, DimensionMismatch
from .linalg import Matrix, Subspace, Vector, combine, rref, solve_linear
from .reports import Report
from .representations import (
    GenRepKind,
    GenRepPair,
    Representation,
    check_gen_rep,
    _semidirect_rep,
    check_representation,
    dual_representation,
)

if TYPE_CHECKING:
    from .yang_baxter import TwoTensor


def _operator_shapes(algebra: OmegaLieAlgebra, carrier_dim: int, t: Matrix) -> None:
    if t.shape != (algebra.dim, carrier_dim):
        raise DimensionMismatch(
            f"operator must map the {carrier_dim}-dim carrier into the {algebra.dim}-dim algebra"
        )


def check_o_operator(algebra: OmegaLieAlgebra, rep: Representation, t: Matrix) -> Report:
    """Bracket-transport identity of an operator against a representation,
    on all carrier basis pairs."""
    if rep.algebra is not algebra and rep.algebra != algebra:
        raise ValueError("representation acts on a different algebra")
    if not check_representation(rep).passed:
        raise AxiomViolation("representation fails its defining identity")
    return _check_transport(algebra, rep.rho, rep.carrier_dim, t, "operator-identity")


def check_o_operator_gen(algebra: OmegaLieAlgebra, pair: GenRepPair, t: Matrix) -> Report:
    """Same transport identity, with the first family of a first-kind pair
    carrying the action."""
    if pair.kind is not GenRepKind.GEN_I:
        raise ValueError("the transport identity uses a first-kind pair")
    if not check_gen_rep(pair).passed:
        raise AxiomViolation("pair fails the first-kind identity")
    return _check_transport(algebra, pair.rho1, pair.carrier_dim, t, "operator-identity-gen")


def _check_transport(
    algebra: OmegaLieAlgebra, rho: tuple, carrier_dim: int, t: Matrix, clause_name: str
) -> Report:
    _operator_shapes(algebra, carrier_dim, t)
    m = carrier_dim
    report = Report("operator transport identity")
    clause = report.clause(clause_name)
    r = algebra.r
    t_cols = [t.column(b) for b in range(m)]
    for a in range(m):
        for b in range(m):
            tu, tv = t_cols[a], t_cols[b]
            lhs = algebra.bracket(tu, tv)
            inner = combine(rho, tu).column(b) - combine(rho, tv).column(a)
            rhs = t.apply(inner) + (2 * r.dot(tv)) * tu - (2 * r.dot(tu)) * tv
            if lhs != rhs:
                clause.add((a, b), lhs, rhs)
    return report


def lsa_from_o_operator(
    algebra: OmegaLieAlgebra, rep: Representation, t: Matrix, label: str = ""
) -> LeftSymmetricAlgebra:
    """Left-symmetric product on the carrier induced by a valid operator.

    Product u * v acts through the operator image of u; the induced twist is
    stored as an explicit form (it is generally not of pullback shape).
    """
    result = check_o_operator(algebra, rep, t)
    if not result.passed:
        raise AxiomViolation(f"operator fails the transport identity: {result!r}")
    m = rep.carrier_dim
    r = algebra.r
    t_cols = [t.column(b) for b in range(m)]
    carrier_basis = [Vector.unit(m, b) for b in range(m)]
    table = []
    for a in range(m):
        rho_tu = rep.rho_of(t_cols[a])
        row = []
        for b in range(m):
            row.append(rho_tu.apply(carrier_basis[b]) - (2 * r.dot(t_cols[a])) * carrier_basis[b])
        table.append(row)
    omega_rows = []
    for a in range(m):
        row = []
        for b in range(m):
            val = (
                2 * r.dot(t.apply(rep.rho_of(t_cols[b]).apply(carrier_basis[a])))
                - 2 * r.dot(t.apply(rep.rho_of(t_cols[a]).apply(carrier_basis[b])))
                + r.dot(algebra.bracket(t_cols[a], t_cols[b]))
            )
            row.append(val)
        omega_rows.append(row)
    out = LeftSymmetricAlgebra(m, table, omega=Matrix(omega_rows), label=label or "from-operator")
    check = check_lsa(out)
    if not check.passed:
        raise AxiomViolation(f"induced product fails left-symmetry: {check!r}")
    return out


def genrep_from_lsa(lsa: LeftSymmetricAlgebra) -> GenRepPair:
    """First-kind pair on the commutator algebra of a multiplicative
    left-symmetric product: left multiplications, one of them shifted by
    the linear form.  The identity map is then a valid operator for it."""
    if not lsa.is_multiplicative:
        raise ValueError("the construction needs the multiplicative flavor")
    if not check_lsa(lsa).passed:
        raise AxiomViolation("input fails the left-symmetric axioms")
    n = lsa.dim
    sub = subadjacent(lsa)
    r = lsa.r
    l1, l2 = [], []
    for i in range(n):
        cols1, cols2 = [], []
        for j in range(n):
            prod = lsa.table[i][j]
            cols2.append(prod)
            cols1.append(prod - (2 * r[j]) * Vector.unit(n, i))
        l1.append(Matrix.from_columns(cols1))
        l2.append(Matrix.from_columns(cols2))
    pair = GenRepPair(sub, n, tuple(l1), tuple(l2), GenRepKind.GEN_I)
    result = check_gen_rep(pair)
    if not result.passed:
        raise AxiomViolation(f"induced pair fails the first-kind identity: {result!r}")
    ident = _check_transport(sub, pair.rho1, n, Matrix.identity(n), "operator-identity-gen")
    if not ident.passed:
        raise AxiomViolation(f"identity map fails the transport identity: {ident!r}")
    return pair


def commutator_complement(lsa: LeftSymmetricAlgebra) -> tuple[Subspace, list[int]]:
    """Span of all product commutators and the deterministic complement
    choice: the standard basis vectors at the non-pivot positions."""
    n = lsa.dim
    commutators = [
        lsa.table[i][j] - lsa.table[j][i] for i in range(n) for j in range(i + 1, n)
    ]
    span = Subspace.from_vectors(n, commutators)
    _, pivots = rref([list(v.entries) for v in span.basis]) if span.basis else ([], [])
    complement = [j for j in range(n) if j not in pivots]
    return span, complement


def omega_lie_from_lsa(
    lsa: LeftSymmetricAlgebra, c: Fraction, label: str = ""
) -> OmegaLieAlgebra:
    """Commutator bracket of a plain left-symmetric product, made
    multiplicative by the linear form vanishing on commutators and taking
    the value c on each complement basis vector."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("the scale must be nonzero")
    if not lsa.is_plain:
        raise ValueError("the construction starts from the plain flavor")
    if not check_lsa(lsa).passed:
        raise AxiomViolation("input fails the left-symmetric axioms")
    n = lsa.dim
    span, complement = commutator_complement(lsa)
    rows = [list(v.entries) for v in span.basis]
    rhs = [Fraction(0)] * len(rows)
    for j in complement:
        rows.append([Fraction(1) if t == j else Fraction(0) for t in range(n)])
        rhs.append(c)
    r = solve_linear(Matrix(rows), Vector(rhs)) if rows else Vector.zero(n)
    if r is None:
        raise AxiomViolation("no linear form vanishes on commutators with the required values")
    table = [
        [lsa.table[i][j] - lsa.table[j][i] for j in range(n)] for i in range(n)
    ]
    out = OmegaLieAlgebra(n, table, r=r, label=label or f"commutator({lsa.label or 'A'})")
    result = check_omega_lie(out)
    if not result.passed:
        raise AxiomViolation(f"commutator algebra fails its axioms: {result!r}")
    return out


def rep_from_lsa(algebra: OmegaLieAlgebra, lsa: LeftSymmetricAlgebra) -> Representation:
    """Left multiplication shifted by twice the linear form, as a
    representation of the commutator algebra on the product's own space."""
    n = lsa.dim
    if algebra.dim != n or not algebra.is_multiplicative:
        raise ValueError("expected the multiplicative commutator algebra of the product")
    r = algebra.r
    mats = []
    for i in range(n):
        left = Matrix.from_columns([lsa.table[i][j] for j in range(n)])
        mats.append(left + (2 * r[i]) * Matrix.identity(n))
    rep = Representation(algebra, n, tuple(mats))
    result = check_representation(rep)
    if not result.passed:
        raise AxiomViolation(f"shifted left multiplication fails the identity: {result!r}")
    ident = _check_transport(algebra, rep.rho, n, Matrix.identity(n), "operator-identity")
    if not ident.passed:
        raise AxiomViolation(f"identity map fails the transport identity: {ident!r}")
    return rep


def lift_o_operator(
    algebra: OmegaLieAlgebra, rep: Representation, t: Matrix
) -> tuple[OmegaLieAlgebra, TwoTensor]:
    """View an operator as a skew two-tensor on the semidirect product with
    the dual carrier.

    The lifted tensor solves the twisted Yang-Baxter equation (with zero
    distinguished element) exactly when the operator satisfies its
    transport identity; callers verify via the residual.
    """
    from .yang_baxter import TwoTensor

    _operator_shapes(algebra, rep.carrier_dim, t)
    dual = dual_representation(rep)
    ambient = _semidirect_rep(dual, label=f"lift({algebra.label or 'L'})")
    n, m = algebra.dim, rep.carrier_dim
    total = n + m
    rows = [[Fraction(0)] * total for _ in range(total)]
    for i in range(n):
        for b in range(m):
            rows[i][n + b] = t[i, b]
            rows[n + b][i] = -t[i, b]
    return ambient, TwoTensor(total, Matrix(rows))
