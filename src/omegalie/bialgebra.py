"""Double constructions on an algebra and its dual.

Everything here works with a pair (L, L*) of multiplicative structures: the
assembled bracket on their direct sum, the compatibility conditions that
make it well-behaved, invariant pairings, and the cobracket obtained by
dualizing the bracket of L*.  The compatibility conditions are implemented
verbatim as independent residual evaluators; agreement with the assembled
double is itself a checked property, not an assumption.  Cobrackets and
their cocycle terms are built on integer views, through one slot action.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebras import IntTable, OmegaLieAlgebra, check_omega_lie
from .errors import AxiomViolation, DimensionMismatch
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _int_matmul,
    _integer_numerators,
    _matrix,
    _slot_action,
    combine,
    pad,
)
from .reports import Report
from .representations import (
    GenRepPair,
    _dual_family,
    _matrices,
    adjoint_pair,
    check_gen_rep,
    generalized_dual_pair,
)


class DualPair:
    """An algebra, a partner structure on its dual space, and the two
    operator pairs through which each acts on the other.

    ``u_r`` is the element of the algebra representing the partner's linear
    form under the canonical pairing; its coordinates equal that form's
    coefficients in the dual basis.

    ``dual_pair`` is the verifying constructor: it checks both algebras and
    every operator pair it builds.  A pair built directly is not verified,
    and the checkers that take a pair assume ``dual_pair`` verified it.
    """

    def __init__(
        self,
        algebra: OmegaLieAlgebra,
        dual: OmegaLieAlgebra,
        pair_on_dual: GenRepPair,
        pair_on_algebra: GenRepPair,
        u_r: Vector,
    ):
        if dual.dim != algebra.dim:
            raise DimensionMismatch("algebra and dual must have equal dimension")
        if u_r != u_r_of(dual):
            raise AxiomViolation("u_r must carry the coefficients of the dual linear form")
        self.__dict__.update(
            algebra=algebra, dual=dual, pair_on_dual=pair_on_dual,
            pair_on_algebra=pair_on_algebra, u_r=u_r,
        )

    def __setattr__(self, name, value):
        raise AttributeError("DualPair is immutable")


def u_r_of(dual: OmegaLieAlgebra) -> Vector:
    """Element of the primal space with the dual form's coefficients."""
    if not dual.is_multiplicative:
        raise ValueError("the dual structure must be multiplicative")
    return dual.r


def dual_pair(algebra: OmegaLieAlgebra, dual: OmegaLieAlgebra) -> DualPair:
    """Standard pair: each side acts through the dual of its adjoint pair."""
    for side in (algebra, dual):
        if not check_omega_lie(side).passed:
            raise AxiomViolation(f"invalid algebra in dual pair: {side.label!r}")
    pair_on_dual = generalized_dual_pair(adjoint_pair(algebra))
    pair_on_algebra = generalized_dual_pair(adjoint_pair(dual))
    return DualPair(algebra, dual, pair_on_dual, pair_on_algebra, u_r_of(dual))


def _coadjoint_families(algebra: OmegaLieAlgebra) -> tuple:
    """The two families of the dual of the adjoint pair, unverified."""
    return _matrices(_dual_family(algebra, adjoint_pair(algebra)._ints))


def uses_standard_pairs(dp: DualPair) -> bool:
    """Whether both operator pairs are the ones ``dual_pair`` builds."""
    on_dual = (dp.pair_on_dual.rho1, dp.pair_on_dual.rho2)
    on_algebra = (dp.pair_on_algebra.rho1, dp.pair_on_algebra.rho2)
    return (
        on_dual == _coadjoint_families(dp.algebra)
        and on_algebra == _coadjoint_families(dp.dual)
    )


def check_dual_pair(dp: DualPair) -> Report:
    """Axioms of both sides plus both associated-pair identities."""
    report = Report("dual-pair invariants")
    report.extend(check_omega_lie(dp.algebra), "algebra:")
    report.extend(check_omega_lie(dp.dual), "dual:")
    report.extend(check_gen_rep(dp.pair_on_dual), "pair-on-dual:")
    report.extend(check_gen_rep(dp.pair_on_algebra), "pair-on-algebra:")
    return report


def double_bracket(dp: DualPair) -> OmegaLieAlgebra:
    """Candidate bracket on the direct sum of the pair.

    Anticommutativity of the assembled table is asserted (it encodes the
    consistency of the two operator pairs); the twisted Jacobi identity is
    deliberately left to the caller's checker.
    """
    n = dp.algebra.dim
    total = 2 * n
    L, Ls = dp.algebra, dp.dual
    rho1, rho2 = dp.pair_on_dual.rho1, dp.pair_on_dual.rho2
    pi1, pi2 = dp.pair_on_algebra.rho1, dp.pair_on_algebra.rho2
    r_vec, u = L.r, dp.u_r
    zero = Vector.zero(n)
    table = [[Vector.zero(total) for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            table[i][j] = pad(L.table[i][j], zero)
            table[n + i][n + j] = pad(zero, Ls.table[i][j])
    for i in range(n):
        for b in range(n):
            delta = Fraction(1) if i == b else Fraction(0)
            head = -pi2[b].column(i)
            tail = rho1[i].column(b) - delta * r_vec
            table[i][n + b] = pad(head, tail)
            head2 = pi1[b].column(i) - delta * u
            tail2 = -rho2[i].column(b)
            table[n + b][i] = pad(head2, tail2)
    for i in range(total):
        for j in range(total):
            if table[i][j] != -table[j][i]:
                raise AxiomViolation(
                    "assembled double bracket is not anticommutative; pair data inconsistent"
                )
    r_bar = pad(r_vec, u)
    label = f"double({L.label or 'L'}, {Ls.label or 'L*'})"
    return OmegaLieAlgebra(total, table, r=r_bar, label=label)


def _mirror(dp: DualPair) -> DualPair:
    """The pair seen from the other side: (L*, L), each still acting on the
    other through its own operator pair.  For a pair built by ``dual_pair``
    this is ``dual_pair(dp.dual, dp.algebra)``, without verifying again."""
    return DualPair(dp.dual, dp.algebra, dp.pair_on_algebra, dp.pair_on_dual, u_r_of(dp.algebra))


def _columns(mats: tuple) -> list:
    """cols[i][k] is column k of mats[i]."""
    return [[m.column(k) for k in range(m.shape[1])] for m in mats]


def _mixed_derivation(dp: DualPair):
    """Residual at (w, i, j) of the operator pair on L acting by derivations
    of the bracket of L, up to the mixed and form terms."""
    n = dp.algebra.dim
    L, u, r_vec = dp.algebra, dp.u_r, dp.algebra.r
    pi1, pi2 = dp.pair_on_algebra.rho1, dp.pair_on_algebra.rho2
    basis = [Vector.unit(n, i) for i in range(n)]
    rho2_col = _columns(dp.pair_on_dual.rho2)  # in L*
    pi2_col = _columns(pi2)  # in L
    # acting[j][w] is the pi1 family combined along column w of rho2_j
    acting = [[combine(pi1, col) for col in cols] for cols in rho2_col]

    def residual(w: int, i: int, j: int) -> Vector:
        rho2_i_w, rho2_j_w = rho2_col[i][w], rho2_col[j][w]
        return (
            pi2[w].apply(L.table[i][j])
            - L.bracket(pi2_col[w][i], basis[j])
            - L.bracket(basis[i], pi2_col[w][j])
            - acting[j][w].column(i)
            + acting[i][w].column(j)
            - rho2_i_w[j] * u
            + rho2_j_w[i] * u
            - r_vec.dot(pi2_col[w][j]) * basis[i]
            + r_vec.dot(pi2_col[w][i]) * basis[j]
            - rho2_i_w.dot(u) * basis[j]
            + rho2_j_w.dot(u) * basis[i]
        )

    return residual


def _pairing_with_u(dp: DualPair):
    """Residual at (a, b, k) of the bracket of L* paired with u against the
    operator pair on L.  It takes k first, as the mirror's form-compatibility
    loop runs k-major."""
    u, Ls = dp.u_r, dp.dual
    pi1_col = _columns(dp.pair_on_algebra.rho1)  # in L
    pi2_col = _columns(dp.pair_on_algebra.rho2)

    def residual(k: int, a: int, b: int) -> Vector:
        pi2_b_k, pi2_a_k = pi2_col[b][k], pi2_col[a][k]
        return (
            Ls.table[b][a][k] * u
            - 2 * u[a] * pi2_b_k
            - 2 * u[b] * pi1_col[a][k]
            + 2 * u[a] * pi1_col[b][k]
            + 2 * u[b] * pi2_a_k
            + pi2_b_k[a] * u
            - pi2_a_k[b] * u
        )

    return residual


def check_matched_pair(dp: DualPair) -> Report:
    """The four compatibility conditions of the two operator pairs,
    evaluated on all relevant basis tuples.

    The conditions are symmetric under swapping L and L*: the last two are
    the first two evaluated on the mirrored pair.
    """
    n = dp.algebra.dim
    mirror = _mirror(dp)
    pairing = _pairing_with_u(dp)
    zero = Vector.zero(n)
    report = Report("matched-pair conditions")
    for name, residual in (
        ("mixed-derivation-on-algebra", _mixed_derivation(dp)),
        ("dual-bracket-pairing-with-u", lambda a, b, k: pairing(k, a, b)),
        ("mixed-derivation-on-dual", _mixed_derivation(mirror)),
        ("form-compatibility", _pairing_with_u(mirror)),
    ):
        clause = report.clause(name)
        for index in product(range(n), repeat=3):
            res = residual(*index)
            if not res.is_zero():
                clause.add(index, res, zero)
    return report


class BilinearForm:
    """Symmetric pairing candidate on an algebra, stored as its Gram matrix."""

    def __init__(self, matrix: Matrix):
        self.__dict__["matrix"] = matrix

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def symmetric(self) -> bool:
        return self.matrix.is_symmetric()

    @property
    def nondegenerate(self) -> bool:
        return self.matrix.rank() == self.dim

    def value(self, x: Vector, y: Vector) -> Fraction:
        return x.dot(self.matrix.apply(y))


def standard_form(n: int) -> BilinearForm:
    """Canonical pairing on a space plus its dual: each half isotropic, the
    cross block the identity pairing."""
    rows = []
    for i in range(2 * n):
        row = [0] * (2 * n)
        row[(i + n) % (2 * n)] = 1
        rows.append(row)
    return BilinearForm(Matrix(rows))


def check_invariant_form(algebra: OmegaLieAlgebra, form: BilinearForm) -> Report:
    """Twisted invariance of a bilinear form over all basis triples."""
    if not algebra.is_multiplicative:
        raise ValueError("invariance is defined for the multiplicative flavor")
    n = algebra.dim
    if form.dim != n:
        raise DimensionMismatch("form and algebra dimensions differ")
    pairs, r, dc = algebra._ints
    gram, dg = _integer_numerators(form.matrix.rows)
    # left[i*n + j][k] = B([e_i, e_j], e_k) and right[i][j*n + k] = B(e_i, [e_j, e_k]),
    # both over dc * dg, as are the form terms
    left = _int_matmul(pairs, gram)
    right = _int_matmul(gram, [list(col) for col in zip(*pairs)])
    den = dc * dg
    report = Report("invariant bilinear form")
    clause = report.clause("twisted-invariance")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = left[i * n + j][k]
                rhs = right[i][j * n + k] + (
                    -2 * r[j] * gram[i][k] + r[i] * gram[j][k] + r[k] * gram[i][j]
                )
                if lhs != rhs:
                    clause.add((i, j, k), Fraction(lhs, den), Fraction(rhs, den))
    return report


def check_manin_triple(
    ambient: OmegaLieAlgebra,
    first: Subspace,
    second: Subspace,
    form: BilinearForm,
) -> Report:
    """All clauses of the triple decomposition with an invariant pairing."""
    n = ambient.dim
    if first.ambient != n or second.ambient != n or form.dim != n:
        raise DimensionMismatch("components must share the ambient dimension")
    report = Report("manin triple")
    report.extend(check_omega_lie(ambient), "ambient:")

    sym = report.clause("form-symmetric")
    if not form.symmetric:
        sym.add((), form.matrix, form.matrix.transpose())
    nondeg = report.clause("form-nondegenerate")
    if not form.nondegenerate:
        nondeg.add((), form.matrix.rank(), n)
    report.extend(check_invariant_form(ambient, form), "")

    for name, sub in (("first", first), ("second", second)):
        closed = report.clause(f"{name}-subalgebra-closed")
        for a, va in enumerate(sub.basis):
            for b, vb in enumerate(sub.basis):
                w = ambient.bracket(va, vb)
                if not sub.contains(w):
                    closed.add((a, b), w, sub)
        isotropic = report.clause(f"{name}-isotropic")
        for a, va in enumerate(sub.basis):
            for b, vb in enumerate(sub.basis):
                val = form.value(va, vb)
                if val != 0:
                    isotropic.add((a, b), val, Fraction(0))

    decomp = report.clause("direct-sum-decomposition")
    meet = first.intersect(second)
    if first.dim + second.dim != n or meet.dim != 0:
        decomp.add((), (first.dim, second.dim, meet.dim), (n, 0))
    return report


class CobracketDelta:
    """Linear map from the algebra into its twofold tensor square, stored as
    one coefficient matrix per basis element."""

    def __init__(self, dim: int, component: tuple):
        comps = tuple(component)
        if len(comps) != dim:
            raise DimensionMismatch("one component matrix per basis element required")
        for m in comps:
            if m.shape != (dim, dim):
                raise DimensionMismatch("component matrices must be dim x dim")
        self.__dict__.update(dim=dim, component=comps)

    def __setattr__(self, name, value):
        raise AttributeError("CobracketDelta is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CobracketDelta) and (self.dim, self.component) == (
            other.dim, other.component
        )


def _int_cobracket(t: IntTable) -> list:
    """The cobracket dualizing a multiplicative integer view, one component
    per e_k, flat in C order over ``t.den``: entry (i, j) is c_ij^k plus the
    form terms delta_ik rho_j - 2 delta_jk rho_i."""
    n = len(t.r)
    comps = [[row[k] for row in t.c] for k in range(n)]
    for k, m in product(range(n), repeat=2):
        comps[k][k * n + m] += t.r[m]
        comps[k][m * n + k] -= 2 * t.r[m]
    return comps


def _cobracket(dual: OmegaLieAlgebra) -> CobracketDelta:
    """``cobracket_of_dual`` for a multiplicative structure that has been
    verified already."""
    n, den = dual.dim, dual._ints.den
    return CobracketDelta(n, tuple(_matrix(comp, den, n) for comp in _int_cobracket(dual._ints)))


def _ad2_columns(t: IntTable, x: int) -> list:
    """The columns of the second adjoint operator of e_x over ``t.den``:
    column p is [e_x, e_p] + r(e_p) e_x."""
    n = len(t.r)
    return [[a + (t.r[p] if i == x else 0) for i, a in enumerate(t.c[x * n + p])] for p in range(n)]


def _cocycle_terms(t: IntTable, delta: list):
    """The terms every cocycle check shares, at each basis pair (i, j):
    numerators of delta([e_i, e_j]) and of S(ad2_i, delta_j) - S(ad2_j, delta_i)
    over ``t.den`` times the denominator of ``delta``, the cobracket's
    components flat in C order; S is the slot action."""
    n = len(delta)
    d_brackets = _int_matmul(t.c, delta)
    ad2 = [_ad2_columns(t, x) for x in range(n)]
    acted = [[_slot_action(cols, d, n, 2) for d in delta] for cols in ad2]
    for i in range(n):
        for j in range(n):
            moved = [a - b for a, b in zip(acted[i][j], acted[j][i])]
            yield i, j, d_brackets[i * n + j], moved


def cobracket_of_dual(dual: OmegaLieAlgebra) -> CobracketDelta:
    """Dualize the bracket of the partner structure, with its form shifts."""
    if not dual.is_multiplicative:
        raise ValueError("the dual structure must be multiplicative")
    if not check_omega_lie(dual).passed:
        raise AxiomViolation("dual structure fails its axioms")
    return _cobracket(dual)


def check_mult_bialgebra(dp: DualPair) -> Report:
    """Cobracket compatibility conditions for the pair and for its mirror.

    The two cobracket conditions on (L, L*) alone are strictly weaker than
    the matched-pair conditions: they capture only two of the four, and the
    missing two are exactly the same conditions applied to the swapped pair
    (L*, L).  A dim-2 instance separating the one-sided set from the full
    set exists, so both sides are checked here; that keeps this checker
    equivalent to the matched-pair and triple checkers.

    Supported operator binding: both pairs must be the duals of the two
    adjoint pairs (the standard coadjoint-style action).  Like every checker
    that takes a pair, this one assumes ``dual_pair`` verified both algebras.
    """
    if not uses_standard_pairs(dp):
        raise ValueError("only the standard coadjoint-style operator binding is supported")
    report = _check_bialgebra_side(dp, prefix="")
    report.extend(_check_bialgebra_side(_mirror(dp), prefix="mirror-"), "")
    return report


def _check_bialgebra_side(dp: DualPair, prefix: str) -> Report:
    n = dp.algebra.dim
    t, dual = dp.algebra._ints, dp.dual._ints
    r, delta, rho = t.r, _int_cobracket(dual), dual.r  # rho: u over dual.den
    pi1, pi2 = dp.pair_on_algebra.rho1, dp.pair_on_algebra.rho2
    u = dp.u_r
    ad2_u = [_slot_action(_ad2_columns(t, x), rho, n, 1) for x in range(n)]
    report = Report("bialgebra conditions")
    cond1 = report.clause(prefix + "cobracket-cocycle")
    for i, j, d_bracket, moved in _cocycle_terms(t, delta):
        res = [
            b - m - 2 * r[j] * di + 2 * r[i] * dj
            for b, m, di, dj in zip(d_bracket, moved, delta[i], delta[j])
        ]
        for a in range(n):  # the terms (ad2_x u - 2 r_x u) (x) e_y
            res[a * n + j] -= ad2_u[i][a] - 2 * r[i] * rho[a]
            res[a * n + i] += ad2_u[j][a] - 2 * r[j] * rho[a]
        if any(res):
            cond1.add((i, j), _matrix(res, t.den * dual.den, n), Matrix.zero(n, n))

    cond2 = report.clause(prefix + "cobracket-pairing-with-u")
    for a in range(n):
        for b in range(n):
            for k in range(n):
                pi2_b_k = pi2[b].column(k)
                pi2_a_k = pi2[a].column(k)
                res = (
                    Fraction(delta[k][a * n + b], dual.den) * u
                    + 2 * u[a] * pi2_b_k
                    + 2 * u[b] * pi1[a].column(k)
                    - 2 * u[a] * pi1[b].column(k)
                    - 2 * u[b] * pi2_a_k
                    - pi2_b_k[a] * u
                    + pi2_a_k[b] * u
                    - u[b] * (Fraction(1) if a == k else Fraction(0)) * u
                    + 2 * u[a] * (Fraction(1) if b == k else Fraction(0)) * u
                )
                if not res.is_zero():
                    cond2.add((a, b, k), res, Vector.zero(n))
    return report


def embedded_halves(n: int) -> tuple[Subspace, Subspace]:
    """The two canonical halves of a doubled space."""
    first = Subspace.from_vectors(2 * n, [Vector.unit(2 * n, i) for i in range(n)])
    second = Subspace.from_vectors(2 * n, [Vector.unit(2 * n, n + i) for i in range(n)])
    return first, second


def crosscheck_equivalence(dp: DualPair) -> Report:
    """Run the bialgebra, matched-pair, and triple checkers on one pair and
    demand a unanimous verdict.

    The three routes are implemented independently, so a disagreement is a
    toolkit-level inconsistency, reported as such.
    """
    n = dp.algebra.dim
    bialg = check_mult_bialgebra(dp)
    matched = check_matched_pair(dp)
    double = double_bracket(dp)
    first, second = embedded_halves(n)
    manin = check_manin_triple(double, first, second, standard_form(n))

    report = Report("three-way equivalence")
    report.meta["bialgebra_verdict"] = bialg.verdict
    report.meta["matched_pair_verdict"] = matched.verdict
    report.meta["manin_triple_verdict"] = manin.verdict
    agreement = report.clause("three-way-agreement")
    verdicts = (bialg.passed, matched.passed, manin.passed)
    if len(set(verdicts)) != 1:
        agreement.add((), (bialg.verdict, matched.verdict, manin.verdict), "unanimous")
    return report
