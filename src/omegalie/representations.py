"""Representations of omega-Lie algebras, their duals, and semidirect products.

A representation is stored as one carrier-space matrix per basis element of
the acting algebra.  Defining identities are bilinear in the acting slots,
so all checkers quantify over basis pairs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import NamedTuple

from .algebras import (
    GeneralizedOmegaLieAlgebra,
    IntTable,
    OmegaLieAlgebra,
    _pullback,
    _twist,
    check_generalized,
    check_omega_lie,
)
from .errors import AxiomViolation, DimensionMismatch
from .linalg import Matrix, Vector, _int_matmul, _integer_numerators, combine, pad, solve_linear
from .reports import Clause, Report


def _check_operator_family(algebra_dim: int, carrier_dim: int, mats, what: str) -> tuple:
    mats = tuple(mats)
    if len(mats) != algebra_dim:
        raise DimensionMismatch(f"{what} needs one matrix per basis element")
    for m in mats:
        if m.shape != (carrier_dim, carrier_dim):
            raise DimensionMismatch(f"{what} matrices must be {carrier_dim} x {carrier_dim}")
    return mats


class IntFamilies(NamedTuple):
    """Operator families on an m-dim carrier as integer numerators over one
    denominator: ``mats[f][k][p*m + q] / den`` is entry (p, q) of the k-th
    matrix of family f."""

    mats: tuple
    den: int
    m: int


def _int_families(m: int, *families) -> IntFamilies:
    """The integer view of operator families on an m-dim carrier.

    A representation or pair builds it once, on first use, unless it was
    built from one (``_built``); the identity sweeps read it and build
    Fractions again only for what they report or return.
    """
    nums, den = _integer_numerators(
        [e for row in mat.rows for e in row] for fam in families for mat in fam
    )
    it = iter(nums)
    return IntFamilies(tuple(tuple(next(it) for _ in fam) for fam in families), den, m)


def _matrices(fams: IntFamilies) -> tuple:
    """The families of an integer view as tuples of rational matrices."""
    m, den = fams.m, fams.den
    return tuple(tuple(_matrix(mat, den, m) for mat in fam) for fam in fams.mats)


def _matrix(flat: list, den: int, m: int) -> Matrix:
    """An m x m rational matrix from numerators flat in C order."""
    return Matrix([[Fraction(x, den) for x in flat[p * m : p * m + m]] for p in range(m)])


def _built(obj, view):
    """``obj``, built from the values of an integer view (an ``IntFamilies``
    or an ``IntTable``), keeping ``view`` as its integer view."""
    obj.__dict__["_ints"] = view
    return obj


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

    @cached_property
    def _ints(self) -> IntFamilies:
        return _int_families(self.carrier_dim, self.rho)

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

    @cached_property
    def _ints(self) -> IntFamilies:
        return _int_families(self.carrier_dim, self.rho1, self.rho2)


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

    @cached_property
    def _ints(self) -> IntFamilies:
        return _int_families(self.carrier_dim, self.rho1, self.rho2, self.f)


def _correction(r: list, rho1: tuple, rho2: tuple, i: int, j: int) -> list:
    """Second-kind correction 2r_i rho1_j - 2r_j rho1_i - 2r_i rho2_j + 2r_j rho2_i,
    flat in C order, from the numerators of r and of the two families; its
    denominator is the product of theirs."""
    return [
        2 * (r[i] * (a - b) - r[j] * (c - d))
        for a, b, c, d in zip(rho1[j], rho2[j], rho1[i], rho2[i])
    ]


def _rep_identity(
    clause: Clause, table: IntTable, twist: tuple, fams: IntFamilies, second_kind: bool = False
) -> None:
    """rho1([e_i, e_j]) = rho2_i rho1_j - rho2_j rho1_i + w(e_i, e_j) id on all
    basis pairs in C order, where ``table`` is the integer view of the
    bracket, ``twist`` = (w, dw) the twist on basis pairs and ``fams`` the
    integer view of (rho1, rho2, ...); a representation is the case
    rho1 = rho2, given as its one family.

    The second kind multiplies rho1_i rho2_j - rho1_j rho2_i instead and adds
    the correction term, with the form r of ``table``.  Each side is scaled
    to one common denominator.
    """
    rho1 = fams.mats[0]
    rho2 = fams.mats[1] if len(fams.mats) > 1 else rho1
    n, m, d = len(rho1), fams.m, fams.den
    w, dw = twist
    # lhs[i*n + j] is rho1([e_i, e_j]) over table.den * d; prod[a*m + p][b*m + q]
    # is entry (p, q) of left_a right_b over d * d
    lhs_all = _int_matmul(table.c, rho1)
    left, right = (rho1, rho2) if second_kind else (rho2, rho1)
    prod = _int_matmul(
        [mat[p * m : p * m + m] for mat in left for p in range(m)],
        [[x for mat in right for x in mat[p * m : p * m + m]] for p in range(m)],
    )
    den = lcm(table.den * d, d * d, dw)
    scale_lhs, scale_prod, scale_w = den // (table.den * d), den // (d * d), den // dw
    for i in range(n):
        for j in range(n):
            lhs = [x * scale_lhs for x in lhs_all[i * n + j]]
            rhs = [
                (prod[i * m + p][j * m + q] - prod[j * m + p][i * m + q]) * scale_prod
                for p in range(m)
                for q in range(m)
            ]
            for p in range(m):
                rhs[p * m + p] += w[i][j] * scale_w
            if second_kind:
                corr = _correction(table.r, rho1, rho2, i, j)
                rhs = [x + y * scale_lhs for x, y in zip(rhs, corr)]
            if lhs != rhs:
                clause.add((i, j), _matrix(lhs, den, m), _matrix(rhs, den, m))


def _rho2_from_rho1(clause: Clause, table: IntTable, fams: IntFamilies) -> None:
    """rho2(x)(xi) = rho1(x)(xi) - xi(x) r, checked per dual basis vector."""
    (rho1, rho2), n = fams.mats, fams.m
    den = lcm(fams.den, table.den)
    scale, scale_r = den // fams.den, den // table.den
    for i in range(n):
        for k in range(n):
            lhs = [rho2[i][p * n + k] * scale for p in range(n)]
            rhs = [rho1[i][p * n + k] * scale for p in range(n)]
            if k == i:
                rhs = [x - y * scale_r for x, y in zip(rhs, table.r)]
            if lhs != rhs:
                clause.add(
                    (i, k),
                    Vector(Fraction(x, den) for x in lhs),
                    Vector(Fraction(x, den) for x in rhs),
                )


def _dual_family(algebra: OmegaLieAlgebra, fams: IntFamilies) -> IntFamilies:
    """The families on the dual carrier: in dual-basis coordinates each matrix
    is the negated transpose shifted by twice the r-value of its basis
    element."""
    t, m = algebra._ints, fams.m
    den = lcm(fams.den, t.den)
    scale, scale_r = den // fams.den, den // t.den
    dual = []
    for fam in fams.mats:
        out = []
        for i, mat in enumerate(fam):
            flat = [-mat[q * m + p] * scale for p in range(m) for q in range(m)]
            for p in range(m):
                flat[p * m + p] += 2 * t.r[i] * scale_r
            out.append(flat)
        dual.append(tuple(out))
    return IntFamilies(tuple(dual), den, m)


def check_representation(rep: Representation) -> Report:
    """rho([x,y]) = rho(x)rho(y) - rho(y)rho(x) + omega(x,y) id, on basis pairs."""
    alg = rep.algebra
    report = Report("representation identity")
    _rep_identity(report.clause("representation"), alg._ints, _twist(alg), rep._ints)
    return report


def dual_representation(rep: Representation) -> Representation:
    """Dual family xi -> -xi o rho(x) + 2 r(x) xi on the dual carrier."""
    alg = rep.algebra
    if not alg.is_multiplicative:
        raise AxiomViolation("dual representation needs the multiplicative flavor")
    if not check_representation(rep).passed:
        raise AxiomViolation("input does not satisfy the representation identity")
    fams = _dual_family(alg, rep._ints)
    dual = _built(Representation(alg, rep.carrier_dim, *_matrices(fams)), fams)
    result = check_representation(dual)
    if not result.passed:
        raise AxiomViolation(f"dual family fails the representation identity: {result!r}")
    return dual


def check_gen_rep(pair: GenRepPair) -> Report:
    """Defining identity of the pair's kind on all basis pairs."""
    t = pair.algebra._ints
    report = Report(f"generalized representation ({pair.kind.value})")
    _rep_identity(
        report.clause(f"{pair.kind.value}-identity"),
        t,
        _pullback(t),
        pair._ints,
        pair.kind is not GenRepKind.GEN_I,
    )
    if pair.kind is GenRepKind.ASSOCIATED_GEN_II:
        _rho2_from_rho1(report.clause("rho2-from-rho1"), t, pair._ints)
    return report


def _pair(algebra: OmegaLieAlgebra, fams: IntFamilies, kind: GenRepKind) -> GenRepPair:
    """The pair with the families of an integer view, keeping the view."""
    return _built(GenRepPair(algebra, fams.m, *_matrices(fams), kind), fams)


def adjoint_pair(algebra: OmegaLieAlgebra) -> GenRepPair:
    """The pair (x -> [x, .], x -> [x, .] + r(.) x) acting on the algebra."""
    if not algebra.is_multiplicative:
        raise ValueError("the adjoint pair needs the multiplicative flavor")
    n, (c, r, den) = algebra.dim, algebra._ints
    # entry (k, j) of ad_i is the e_k coefficient of [e_i, e_j]
    ad1 = tuple([c[i * n + j][k] for k in range(n) for j in range(n)] for i in range(n))
    ad2 = tuple(
        a[: i * n] + [x + y for x, y in zip(a[i * n : i * n + n], r)] + a[i * n + n :]
        for i, a in enumerate(ad1)
    )
    return _pair(algebra, IntFamilies((ad1, ad2), den, n), GenRepKind.GEN_I)


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
    fams = _dual_family(alg, pair._ints)
    dual = _pair(alg, fams, GenRepKind.GEN_II)
    result = check_gen_rep(dual)
    if not result.passed:
        raise AxiomViolation(f"dual pair fails the second-kind identity: {result!r}")
    if pair.carrier_dim == alg.dim:
        # the associated kind is the second kind plus this one clause
        linked = Clause("rho2-from-rho1")
        _rho2_from_rho1(linked, alg._ints, fams)
        if linked.passed:
            return _built(
                GenRepPair(alg, fams.m, dual.rho1, dual.rho2, GenRepKind.ASSOCIATED_GEN_II), fams
            )
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
    t = algebra._ints1
    _rep_identity(report.clause("rep-i-identity"), t, _pullback(t), _int_families(m, rho1, rho2))
    return report


def check_special_rep_ii(data: SpecialRepII) -> Report:
    """Second-kind identity plus the f-identity of a special second-kind tuple."""
    n, m, t, fams = data.algebra.dim, data.carrier_dim, data.algebra._ints1, data._ints
    report = Report("special representation-ii")
    _rep_identity(report.clause("rep-ii-identity"), t, _pullback(t), fams, True)
    f_clause = report.clause("f-identity")
    rho1, rho2, f = fams.mats
    # both sides over t.den * fams.den
    lhs_all = _int_matmul(t.c, f)
    den = t.den * fams.den
    for i in range(n):
        for j in range(n):
            lhs, rhs = lhs_all[i * n + j], _correction(t.r, rho1, rho2, i, j)
            if lhs != rhs:
                f_clause.add((i, j), _matrix(lhs, den, m), _matrix(rhs, den, m))
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
    t, fams = algebra._ints1, _int_families(m, rho1, rho2)
    den = t.den * fams.den
    targets = [_correction(t.r, *fams.mats, i, j) for (i, j) in pairs]
    solution = [[[Fraction(0)] * m for _ in range(m)] for _ in range(n)]
    for p in range(m):
        for q in range(m):
            rhs = Vector([Fraction(target[p * m + q], den) for target in targets])
            x = solve_linear(coeff, rhs)
            if x is None:
                return None
            for k in range(n):
                solution[k][p][q] = x[k]
    return tuple(Matrix(mat) for mat in solution)
