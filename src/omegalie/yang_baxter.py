"""Residuals of the twisted Yang-Baxter equation and the structures built
from its solutions.

The quadratic residual is always computed from the coordinate matrix of the
two-tensor, never from a chosen decomposition; the literal symbol-by-symbol
tensor form is kept as a separate, deliberately decomposition-sensitive
operation so the two routes can be compared.  The dual read off a tensor,
an integer view built by the slot action of each adjoint operator, is the
one source of the induced cobracket, the hypothesis and the cocycle check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from .algebras import IntTable, OmegaLieAlgebra, admissible_subspace, central_elements
from .errors import DimensionMismatch, EmptyDecomposition
from .linalg import (
    Matrix,
    Subspace,
    ThreeTensor,
    Vector,
    _built,
    _int_matmul,
    _integer_numerators,
    _matrix,
    _slot_action,
    rank_one,
)
from .reports import Report

if TYPE_CHECKING:
    from .bialgebra import CobracketDelta

# Scope of the cyclic sum in the co-Jacobiator: "all" rotates the whole
# four-term expression (the reading under which the derivation identity of
# the dual bracket closes, including for nonzero central elements); "first"
# rotates only the iterated-cobracket term.
JAC_SCOPES = ("all", "first")


class TwoTensor:
    """Element of the tensor square of the algebra, in coordinates."""

    def __init__(self, dim: int, entries: Matrix):
        if entries.shape != (dim, dim):
            raise DimensionMismatch("two-tensor entries must be dim x dim")
        self.__dict__.update(dim=dim, entries=entries)

    def __setattr__(self, name, value):
        raise AttributeError("TwoTensor is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoTensor) and (self.dim, self.entries) == (
            other.dim, other.entries
        )

    @staticmethod
    def zero(n: int) -> "TwoTensor":
        return TwoTensor(n, Matrix.zero(n, n))

    @staticmethod
    def wedge(u: Vector, v: Vector) -> "TwoTensor":
        """u tensor v minus v tensor u."""
        return TwoTensor(len(u), u.outer(v) - v.outer(u))

    def swap(self) -> "TwoTensor":
        return TwoTensor(self.dim, self.entries.transpose())

    def is_skew(self) -> bool:
        return self.entries == -self.entries.transpose()

    def __add__(self, other: "TwoTensor") -> "TwoTensor":
        return TwoTensor(self.dim, self.entries + other.entries)

    def __sub__(self, other: "TwoTensor") -> "TwoTensor":
        return TwoTensor(self.dim, self.entries - other.entries)

    def scale(self, c) -> "TwoTensor":
        return TwoTensor(self.dim, self.entries.scale(c))

    def column_span(self) -> Subspace:
        """Span of the first-slot components over all rank-one pieces."""
        return Subspace.from_vectors(
            self.dim, [self.entries.column(b) for b in range(self.dim)]
        )

    def row_span(self) -> Subspace:
        """Span of the second-slot components."""
        return Subspace.from_vectors(self.dim, [self.entries.row(a) for a in range(self.dim)])


class YbeContext:
    """A multiplicative algebra with a fixed distinguished element."""

    def __init__(self, algebra: OmegaLieAlgebra, u_r: Vector):
        if not algebra.is_multiplicative:
            raise ValueError("the residual machinery needs the multiplicative flavor")
        if len(u_r) != algebra.dim:
            raise DimensionMismatch("distinguished element must live in the algebra")
        self.__dict__.update(algebra=algebra, u_r=u_r)

    def __setattr__(self, name, value):
        raise AttributeError("YbeContext is immutable")


def check_r_admissible(ctx: YbeContext, tensor: TwoTensor, central_rule: str = "center") -> Report:
    """Component conditions on the two-tensor plus eligibility of the
    distinguished element.

    The per-summand component conditions are decomposition-independent:
    they amount to both slot spans lying in the admissible subspace.
    """
    if tensor.dim != ctx.algebra.dim:
        raise DimensionMismatch("tensor and algebra dimensions differ")
    report = Report("admissibility")
    report.meta["central_rule"] = central_rule
    w = admissible_subspace(ctx.algebra)
    membership = report.clause("components-in-admissible-subspace")
    if not w.contains_subspace(tensor.column_span()):
        membership.add((0,), tensor.column_span(), w)
    if not w.contains_subspace(tensor.row_span()):
        membership.add((1,), tensor.row_span(), w)
    eligible = report.clause("distinguished-element-eligible")
    pool = central_elements(ctx.algebra, central_rule)
    if not pool.contains(ctx.u_r):
        eligible.add((), ctx.u_r, pool)
    return report


def yb_residual(ctx: YbeContext, tensor: TwoTensor) -> ThreeTensor:
    """Quadratic residual of the two-tensor, an order-3 tensor.

    Three bracket blocks (one per slot pairing) plus three placements of the
    distinguished element weighted by 3.  Admissibility is reported
    separately and deliberately not required here.
    """
    nums, den = _residual_numerators(ctx, tensor)
    return _three_tensor(nums, den, ctx.algebra.dim)


def _three_tensor(nums: list, den: int, n: int) -> ThreeTensor:
    """Order-3 tensor from numerators flat in C order over one denominator."""
    return ThreeTensor(
        [
            [[Fraction(nums[(i * n + j) * n + k], den) for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )


def _residual_numerators(ctx: YbeContext, tensor: TwoTensor) -> tuple[list, int]:
    """The residual as numerators flat in C order over one denominator.

    With C_p the matrix of the p-th structure constants and R the tensor's
    coordinate matrix, the three bracket blocks at output index p are
    R^T C_p R (slot 1), R C_p R (slot 2) and R C_p R^T (slot 3).
    """
    alg = ctx.algebra
    n = alg.dim
    if tensor.dim != n:
        raise DimensionMismatch("tensor and algebra dimensions differ")
    pairs, dc = alg._ints.c, alg._ints.den
    r_rows, dr = _integer_numerators(tensor.entries.rows)
    (u,), du = _integer_numerators([ctx.u_r])
    r_cols = [list(col) for col in zip(*r_rows)]
    nn = n * n
    out = [0] * (n * nn)
    for p in range(n):
        c_p = [[pairs[a * n + b][p] * du for b in range(n)] for a in range(n)]
        if not any(map(any, c_p)):
            continue
        c_r = _int_matmul(c_p, r_rows)
        slot1 = _int_matmul(r_cols, c_r)
        slot2 = _int_matmul(r_rows, c_r)
        slot3 = _int_matmul(r_rows, _int_matmul(c_p, r_cols))
        for i in range(n):
            for j in range(n):
                out[p * nn + i * n + j] += slot1[i][j]
                out[i * nn + p * n + j] += slot2[i][j]
                out[i * nn + j * n + p] += slot3[i][j]
    if any(u):
        scale = 3 * dc * dr
        for p in range(n):
            for q in range(n):
                rpq = r_rows[p][q]
                if not rpq:
                    continue
                for k in range(n):
                    if u[k]:
                        v = scale * rpq * u[k]
                        out[q * nn + p * n + k] += v
                        out[p * nn + k * n + q] += v
                        out[k * nn + q * n + p] += v
    return out, dc * dr * dr * du


def delta_from_r(ctx: YbeContext, tensor: TwoTensor) -> CobracketDelta:
    """Cobracket induced by the two-tensor: the derivation action of each
    basis element on it, shifted by u; the cobracket of the dual read off it."""
    from .bialgebra import _cobracket

    return _cobracket(dual_structure_from_r(ctx, tensor))


def jac_delta(
    ctx: YbeContext, delta: CobracketDelta, x_index: int, scope: str = "all"
) -> ThreeTensor:
    """Co-Jacobiator of a cobracket at one basis element."""
    if scope not in JAC_SCOPES:
        raise ValueError(f"unknown cyclic-sum scope {scope!r}")
    n = ctx.algebra.dim
    if delta.dim != n:
        raise DimensionMismatch("cobracket and algebra dimensions differ")
    if not 0 <= x_index < n:
        raise DimensionMismatch("basis index out of range")
    flat = [[e for row in m.rows for e in row] for m in delta.component]
    (*comps, u), den = _integer_numerators(flat + [ctx.u_r])
    d_x = comps[x_index]
    cube = list(product(range(n), repeat=3))
    # all terms are numerators over den**2, flat in C order; the iterated
    # term at (a, p, q) is the sum over b of delta_x[a, b] delta_b[p, q]
    first = sum(_int_matmul([d_x[a * n : a * n + n] for a in range(n)], comps), [])
    rest = [
        2 * d_x[j * n + i] * u[k] + u[i] * d_x[j * n + k] + (2 * u[i] * u[j] if k == x_index else 0)
        for i, j, k in cube
    ]
    if scope == "all":
        first, rest = [a + b for a, b in zip(first, rest)], [0] * len(cube)
    # the cyclic sum over the rotations (i, j, k), (j, k, i) and (k, i, j)
    total = [
        first[m] + first[(j * n + k) * n + i] + first[(k * n + i) * n + j] + rest[m]
        for m, (i, j, k) in enumerate(cube)
    ]
    return _three_tensor(total, den * den, n)


def ad_x_t3(algebra: OmegaLieAlgebra, x_index: int, tensor: ThreeTensor) -> ThreeTensor:
    """Slot-wise derivation action of one adjoint operator on an order-3 tensor."""
    n = algebra.dim
    if tensor.dim != n:
        raise DimensionMismatch("tensor and algebra dimensions differ")
    if not 0 <= x_index < n:
        raise DimensionMismatch("basis index out of range")
    pairs, dc = algebra._ints.c, algebra._ints.den
    t_rows, dt = _integer_numerators(row for plane in tensor.entries for row in plane)
    t = [e for row in t_rows for e in row]
    acted = _slot_action(pairs[x_index * n : x_index * n + n], t, n, 3)
    return _three_tensor(acted, dc * dt, n)


def _moved_symmetrized(ctx: YbeContext, tensor: TwoTensor) -> tuple[list, int]:
    """The invariance hypothesis: ad_x sym + sym ad_x^T, sym = R + R^T, for
    each e_x as numerators flat in C order over one denominator.  It is the
    symmetric part of the dual's bracket read off R: the form terms cancel."""
    (c, _, den), n = _dual_ints(ctx, tensor), ctx.algebra.dim
    mirrored = [(i * n + j, j * n + i) for i in range(n) for j in range(n)]
    return [[c[ij][x] + c[ji][x] for ij, ji in mirrored] for x in range(n)], den


def check_derivation_identity(
    ctx: YbeContext, tensor: TwoTensor, scope: str = "all"
) -> Report:
    """If the symmetrized tensor commutes with every adjoint operator, the
    co-Jacobiator of the induced cobracket equals the adjoint action on the
    residual, at every basis element.

    The hypothesis is global: the underlying cancellation substitutes other
    elements into the invariance equation, so holding at the conclusion's
    own index is not enough (an admissible non-skew tensor witnessing this
    exists in dimension 3).  When the hypothesis fails anywhere, the failing
    indices are recorded in the report metadata and the equality is not
    asserted.
    """
    alg = ctx.algebra
    n = alg.dim
    report = Report("derivation identity")
    report.meta["jac_scope"] = scope
    moved, _ = _moved_symmetrized(ctx, tensor)
    failing = [x + 1 for x in range(n) if any(moved[x])]
    report.meta["hypothesis_fails_at"] = failing
    equality = report.clause("cojacobiator-matches-adjoint-action")
    if not failing:
        delta = delta_from_r(ctx, tensor)
        residual = yb_residual(ctx, tensor)
        for x in range(n):
            lhs = jac_delta(ctx, delta, x, scope=scope)
            rhs = ad_x_t3(alg, x, residual)
            if lhs != rhs:
                equality.add((x,), lhs - rhs, ThreeTensor.zero(n))
    return report


def dual_structure_from_r(ctx: YbeContext, tensor: TwoTensor) -> OmegaLieAlgebra:
    """Bracket and linear form on the dual space read off from the tensor,
    keeping the integer view it is built from.

    No axiom is asserted: whether the result satisfies the twisted axioms is
    exactly the content of the two solution conditions, checked separately.
    """
    t, n = _dual_ints(ctx, tensor), ctx.algebra.dim
    table = [[[Fraction(x, t.den) for x in v] for v in t.c[i * n : i * n + n]] for i in range(n)]
    dual = OmegaLieAlgebra(n, table, r=ctx.u_r, label=f"dual-of({ctx.algebra.label or 'L'})")
    return _built(dual, t)


def _dual_ints(ctx: YbeContext, tensor: TwoTensor) -> IntTable:
    """The integer view of the dual read off the tensor R: the e_k
    coefficient of [e_i, e_j] is the slot action of ad e_k on R at (i, j),
    minus 3 delta_ik u_j, plus 3 delta_jk u_i; the form is u."""
    alg = ctx.algebra
    n = alg.dim
    if tensor.dim != n:
        raise DimensionMismatch("tensor and algebra dimensions differ")
    r_rows, dr = _integer_numerators(tensor.entries.rows)
    (u,), du = _integer_numerators([ctx.u_r])
    flat = [x for row in r_rows for x in row]
    pairs, dc = alg._ints.c, alg._ints.den
    acted = [_slot_action(pairs[k * n : k * n + n], flat, n, 2) for k in range(n)]
    c = [[acted[k][ij] * du for k in range(n)] for ij in range(n * n)]
    scale = dc * dr
    for k in range(n):
        for m in range(n):
            c[k * n + m][k] -= 3 * scale * u[m]
            c[m * n + k][k] += 3 * scale * u[m]
    return IntTable(c, [x * scale for x in u], scale * du)


def solution_conditions(ctx: YbeContext, tensor: TwoTensor) -> Report:
    """The two conditions under which the dual structure is valid: the
    symmetrized tensor commutes with every adjoint operator, and the adjoint
    action annihilates the residual."""
    alg = ctx.algebra
    n = alg.dim
    report = Report("solution conditions")
    residual, d_res = _residual_numerators(ctx, tensor)
    moved, d_moved = _moved_symmetrized(ctx, tensor)
    pairs, dc = alg._ints.c, alg._ints.den
    cond_i = report.clause("symmetrized-tensor-invariant")
    cond_ii = report.clause("adjoint-action-annihilates-residual")
    for x in range(n):
        if any(moved[x]):
            cond_i.add((x,), _matrix(moved[x], d_moved, n), Matrix.zero(n, n))
        acted = _slot_action(pairs[x * n : x * n + n], residual, n, 3)
        if any(acted):
            cond_ii.add((x,), _three_tensor(acted, dc * d_res, n), ThreeTensor.zero(n))
    return report


def check_yb_bialgebra(ctx: YbeContext, tensor: TwoTensor) -> Report:
    """Compatibility of the induced cobracket with the bracket, in the form
    that holds for solutions coming from a two-tensor."""
    from .bialgebra import _cocycle_terms, _int_cobracket

    alg = ctx.algebra
    n = alg.dim
    dual = _dual_ints(ctx, tensor)
    c, r, dc = alg._ints
    r_rows, dr = _integer_numerators(tensor.entries.rows)
    (u,), du = _integer_numerators([ctx.u_r])
    r_u = sum(a * b for a, b in zip(r, u))
    scale = dc * dr  # both sides are over dc * dual.den = dc^2 dr du
    report = Report("cobracket compatibility from a two-tensor")
    clause = report.clause("cocycle-with-tensor-terms")
    for i, j, lhs, rhs in _cocycle_terms(alg._ints, _int_cobracket(dual)):
        t_ji = 2 * du * sum(a * b for a, b in zip(r, c[j * n + i]))  # 2 du r([e_j, e_i])
        w = list(c[i * n + j])  # [e_i, e_j] + r_j e_i - r_i e_j
        w[i] += r[j]
        w[j] -= r[i]
        for a in range(n):
            for b in range(n):
                rhs[a * n + b] += scale * (2 * w[a] * u[b] - u[a] * w[b]) - t_ji * r_rows[a][b]
        rhs[j * n + i] += 3 * scale * r_u
        rhs[i * n + j] -= 3 * scale * r_u
        if lhs != rhs:
            clause.add((i, j), _matrix(lhs, dc * dual.den, n), _matrix(rhs, dc * dual.den, n))
    return report


class SymbolicTerm:
    """One summand of the literal tensor-form expansion: a coefficient and
    three slots, each either a vector or the formal unit (None)."""

    def __init__(self, coefficient: Fraction, slots: tuple):
        self.__dict__.update(coefficient=coefficient, slots=slots)

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicTerm is immutable")


def tensor_form_residual(
    ctx: YbeContext, tensor: TwoTensor, decomposition: list
) -> tuple[ThreeTensor, list]:
    """Literal expansion of the three slot-pairing brackets of the placed
    tensor copies, using the formal-unit substitution rules.

    The substitution rules are element-sensitive rather than linear, so the
    expansion is performed symbolically on the given summands.  Terms whose
    slots are all in the algebra are accumulated into an exact order-3
    tensor; terms retaining a formal unit slot are returned separately.
    Rules: a unit bracketed from the left with the distinguished element
    yields that element, with anything else yields zero; a unit on the
    right side of a bracket yields zero.
    """
    alg = ctx.algebra
    n = alg.dim
    if tensor.dim != n:
        raise DimensionMismatch("tensor and algebra dimensions differ")
    pairs = [(x if isinstance(x, Vector) else Vector(x), y if isinstance(y, Vector) else Vector(y)) for x, y in decomposition]
    if not pairs:
        raise EmptyDecomposition("the tensor form needs at least one summand")
    total = Matrix.zero(n, n)
    for x, y in pairs:
        total = total + x.outer(y)
    if total != tensor.entries:
        raise ValueError("decomposition does not sum to the given tensor")
    s = len(pairs)
    u = ctx.u_r
    unit_weight = Fraction(3, 2 * s)

    def br(a, b):
        """Bracket on algebra elements extended by the formal unit."""
        if a is None and b is None:
            raise ValueError("bracket of two formal units is undefined")
        if a is None:
            return u if b == u else Vector.zero(n)
        if b is None:
            return Vector.zero(n)
        return alg.bracket(a, b)

    placements = {
        "12": lambda x, y: (x, y, None),
        "13": lambda x, y: (x, None, y),
        "23": lambda x, y: (None, x, y),
    }

    pure = ThreeTensor.zero(n)
    unit_terms: list[SymbolicTerm] = []

    def emit(coefficient: Fraction, slots: tuple):
        nonlocal pure
        if coefficient == 0:
            return
        if any(s is not None and s.is_zero() for s in slots):
            return
        if any(s is None for s in slots):
            unit_terms.append(SymbolicTerm(coefficient, slots))
            return
        pure = pure + coefficient * rank_one(*slots)

    for left, right in (("12", "13"), ("12", "23"), ("13", "23")):
        for xi, yi in pairs:
            a, b, c = placements[left](xi, yi)
            for xj, yj in pairs:
                d, e, f = placements[right](xj, yj)
                emit(Fraction(1), (br(a, d), b, f))
                emit(Fraction(1), (a, br(b, e), f))
                emit(Fraction(1), (a, e, br(c, f)))
                emit(unit_weight, (br(a, u), b, c))
                emit(unit_weight, (a, br(b, u), c))
                emit(unit_weight, (b, a, br(c, u)))
                emit(unit_weight, (br(d, u), f, e))
                emit(unit_weight, (d, br(e, u), f))
                emit(unit_weight, (d, e, br(f, u)))
    return pure, unit_terms
