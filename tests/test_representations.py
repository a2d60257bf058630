import hashlib
import json
import random
from fractions import Fraction

import pytest

from omegalie.algebras import (
    GeneralizedOmegaLieAlgebra,
    OmegaLieAlgebra,
    abelian,
    check_omega_lie,
    omega_lie,
)
from omegalie.errors import AxiomViolation
from omegalie.linalg import Matrix, Vector
from omegalie.representations import (
    GenRepKind,
    GenRepPair,
    Representation,
    SpecialRepII,
    adjoint_pair,
    check_gen_rep,
    check_rep_i_generalized,
    check_representation,
    check_special_rep_ii,
    dual_representation,
    generalized_dual_pair,
    semidirect_gen_i,
    semidirect_rep,
    semidirect_special_ii,
    solve_f_for_special_ii,
)

from conftest import (
    antisymmetrize,
    corpus_algebras,
    make_ax2,
    make_b2,
    raw_table,
    vectors_from_raw,
)
from oracles import (
    classical_semidirect,
    f_identity_sides,
    rep_identity_sides,
    rho2_from_rho1_sides,
)


def scalar_rep(algebra) -> Representation:
    """The linear form itself acts as a one-dimensional representation."""
    return Representation(
        algebra, 1, tuple(Matrix([[algebra.r[i]]]) for i in range(algebra.dim))
    )


def test_zero_rep_on_lie_algebra_passes(b2):
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    assert check_representation(rep).passed


def test_ax2_scalar_rep_passes(ax2):
    rep = Representation(ax2, 1, (Matrix([[1]]), Matrix([[0]])))
    assert check_representation(rep).passed


def test_ax2_zero_rep_fails(ax2):
    rep = Representation(ax2, 1, (Matrix([[0]]), Matrix([[0]])))
    report = check_representation(rep)
    assert {v.indices for c in report.clauses for v in c.violations} == {(0, 1), (1, 0)}


def test_scalar_rep_valid_on_corpus():
    for algebra in corpus_algebras():
        assert check_representation(scalar_rep(algebra)).passed, algebra.label


def test_dual_of_zero_rep_is_zero(b2):
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    dual = dual_representation(rep)
    assert all(m.is_zero() for m in dual.rho)


def test_dual_of_ax2_scalar_rep(ax2):
    dual = dual_representation(Representation(ax2, 1, (Matrix([[1]]), Matrix([[0]]))))
    assert dual.rho[0] == Matrix([[1]])
    assert dual.rho[1] == Matrix([[0]])


def test_dual_reduces_to_classical_transpose(b2):
    # the adjoint action is a representation in the untwisted case
    rho = (b2.ad1(0), b2.ad1(1))
    rep = Representation(b2, 2, rho)
    assert check_representation(rep).passed
    dual = dual_representation(rep)
    assert dual.rho[0] == -rho[0].transpose()
    assert dual.rho[1] == -rho[1].transpose()


def test_dual_rejects_invalid_rep(ax2):
    with pytest.raises(AxiomViolation):
        dual_representation(Representation(ax2, 1, (Matrix([[0]]), Matrix([[0]]))))


def test_equal_pair_reduces_to_representation(ax2):
    rep = Representation(ax2, 1, (Matrix([[1]]), Matrix([[0]])))
    for kind in (GenRepKind.GEN_I, GenRepKind.GEN_II):
        pair = GenRepPair(ax2, 1, rep.rho, rep.rho, kind)
        assert check_gen_rep(pair).passed


def test_adjoint_pair_values(ax2):
    pair = adjoint_pair(ax2)
    assert check_gen_rep(pair).passed
    # second family sends e1 -> e1 and e2 -> e1 under the first basis element
    assert pair.rho2[0] == Matrix([[1, 1], [0, 0]])


def test_adjoint_pair_lie_case_is_classical(b2):
    pair = adjoint_pair(b2)
    assert pair.rho1 == pair.rho2
    assert pair.rho1[0] == b2.ad1(0)


def test_adjoint_pair_abelian():
    alg = abelian(2, Vector([1, 0]))
    pair = adjoint_pair(alg)
    assert all(m.is_zero() for m in pair.rho1)
    # [x, y] + r(y) x with zero bracket: e_i column j picks up r_j
    assert pair.rho2[0] == Matrix([[1, 0], [0, 0]])


def test_zero_pair_fails_gen_i(ax2):
    z = (Matrix([[0]]), Matrix([[0]]))
    assert not check_gen_rep(GenRepPair(ax2, 1, z, z, GenRepKind.GEN_I)).passed


def test_generalized_dual_of_adjoint_is_associated():
    for algebra in corpus_algebras():
        dual = generalized_dual_pair(adjoint_pair(algebra))
        assert dual.kind is GenRepKind.ASSOCIATED_GEN_II, algebra.label
        assert check_gen_rep(dual).passed, algebra.label


def test_generalized_dual_coadjoint_on_lie(b2):
    dual = generalized_dual_pair(adjoint_pair(b2))
    assert dual.rho1[0] == -b2.ad1(0).transpose()
    assert dual.rho1 == dual.rho2


def test_generalized_dual_zero_algebra():
    alg = abelian(2, Vector([1, 0]))
    dual = generalized_dual_pair(adjoint_pair(alg))
    # first family becomes twice the form value on the identity
    assert dual.rho1[0] == Matrix([[2, 0], [0, 2]])
    assert dual.rho1[1].is_zero()


def test_semidirect_zero_rep_adds_central_line(b2):
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    out = semidirect_rep(rep)
    assert out.dim == 3
    assert out.table[0][2].is_zero() and out.table[1][2].is_zero()


def test_semidirect_ax2_scalar(ax2):
    rep = Representation(ax2, 1, (Matrix([[1]]), Matrix([[0]])))
    out = semidirect_rep(rep)
    assert out.dim == 3
    assert check_omega_lie(out).passed
    assert out.r == Vector([1, 0, 0])


def test_semidirect_classical_reduction(b2):
    rho = (b2.ad1(0), b2.ad1(1))
    rep = Representation(b2, 2, rho)
    assert check_representation(rep).passed
    out = semidirect_rep(rep)
    raw_rho = [[[rho[i][p, b] for b in range(2)] for p in range(2)] for i in range(2)]
    expected = classical_semidirect(raw_table(b2), raw_rho)
    assert raw_table(out) == expected


def test_semidirect_rejects_invalid(ax2):
    with pytest.raises(AxiomViolation):
        semidirect_rep(Representation(ax2, 1, (Matrix([[0]]), Matrix([[0]]))))


def _ax2_generalized():
    ax2 = make_ax2()
    return GeneralizedOmegaLieAlgebra(2, ax2.table, ax2.table, r=ax2.r), ax2


def test_semidirect_gen_i_classical(b2):
    g = GeneralizedOmegaLieAlgebra(2, b2.table, b2.table, r=b2.r)
    rho = (Matrix([[0]]), Matrix([[0]]))
    out, report = semidirect_gen_i(g, rho, rho)
    assert report.passed
    assert out.dim == 3


def test_semidirect_gen_i_adjoint_pair():
    g, ax2 = _ax2_generalized()
    pair = adjoint_pair(ax2)
    assert check_rep_i_generalized(g, pair.rho1, pair.rho2).passed
    out, report = semidirect_gen_i(g, pair.rho1, pair.rho2)
    assert out.dim == 4
    assert report.passed


def test_semidirect_gen_i_iff():
    g, ax2 = _ax2_generalized()
    pair = adjoint_pair(ax2)
    # perturb one operator; the input identity and the output axioms must
    # fail together
    broken = (pair.rho1[0] + Matrix.identity(2), pair.rho1[1])
    assert not check_rep_i_generalized(g, broken, pair.rho2).passed
    _, report = semidirect_gen_i(g, broken, pair.rho2)
    assert not report.passed


def test_special_ii_from_dual_adjoint():
    g, ax2 = _ax2_generalized()
    dual = generalized_dual_pair(adjoint_pair(ax2))
    f = solve_f_for_special_ii(g, dual.rho1, dual.rho2)
    assert f is not None
    data = SpecialRepII(g, 2, dual.rho1, dual.rho2, f)
    assert check_special_rep_ii(data).passed
    out, report = semidirect_special_ii(data)
    assert report.passed
    assert out.dim == 4


def test_special_ii_classical_f_zero(b2):
    g = GeneralizedOmegaLieAlgebra(2, b2.table, b2.table, r=b2.r)
    rho = (Matrix([[0]]), Matrix([[0]]))
    data = SpecialRepII(g, 1, rho, rho, (Matrix([[0]]), Matrix([[0]])))
    assert check_special_rep_ii(data).passed
    out, report = semidirect_special_ii(data)
    assert report.passed


def test_special_ii_bad_f_fails():
    g, ax2 = _ax2_generalized()
    dual = generalized_dual_pair(adjoint_pair(ax2))
    f = solve_f_for_special_ii(g, dual.rho1, dual.rho2)
    bad_f = tuple(m + Matrix.identity(2) for m in f)
    data = SpecialRepII(g, 2, dual.rho1, dual.rho2, bad_f)
    assert not check_special_rep_ii(data).passed
    _, report = semidirect_special_ii(data)
    assert not report.passed


def test_constructions_classical_reduction_entrywise():
    """With a vanishing linear form every construction matches its
    classical counterpart computed independently."""
    b2 = make_b2()
    pair = adjoint_pair(b2)
    assert pair.rho1 == pair.rho2  # the shift vanishes
    dual = generalized_dual_pair(pair)
    for i in range(2):
        assert dual.rho1[i] == -b2.ad1(i).transpose()


def _raw(mats):
    return [[list(row) for row in m.rows] for m in mats]


def _assert_clause(clause, sides, as_value):
    """The clause lists exactly the oracle's index pairs, in C order, each
    with the oracle's values of both sides."""
    assert [v.indices for v in clause.violations] == sorted(sides)
    for v in clause.violations:
        lhs, rhs = sides[v.indices]
        assert (v.lhs, v.rhs) == (repr(as_value(lhs)), repr(as_value(rhs)))


def _random_case(rng):
    """An algebra of dim n and two families on an m-dim carrier, entries in
    -2..2 over 1 or a per-case denominator.  Half the algebras satisfy the
    axioms (a corpus algebra with table and r scaled by one rational), and
    half the families satisfy the identities before one member is perturbed
    or not."""
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    den = rng.randint(2, 7)

    def entry():
        return Fraction(rng.randint(-2, 2), rng.choice((1, den)))

    def family():
        return tuple(Matrix([[entry() for _ in range(m)] for _ in range(m)]) for _ in range(n))

    valid = [a for a in corpus_algebras() if a.dim == n]
    if rng.random() < 0.5:
        base = rng.choice(valid)
        scale = Fraction(rng.choice((1, -1, 2)), rng.choice((1, den)))
        raw = [[[scale * x for x in base.table[i][j]] for j in range(n)] for i in range(n)]
        r = [scale * x for x in base.r]
    else:
        raw = antisymmetrize([[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)])
        r = [entry() for _ in range(n)]
    alg = OmegaLieAlgebra(n, vectors_from_raw(raw), r=Vector(r))
    choice = rng.randrange(4)
    if choice == 0:
        rho1 = rho2 = tuple(alg.r[i] * Matrix.identity(m) for i in range(n))
    elif choice == 1 and m == n:
        pair = adjoint_pair(alg)
        rho1, rho2 = pair.rho1, pair.rho2
    elif choice == 2 and m == n:
        # the dual of the adjoint pair, built by hand
        ident = Matrix.identity(n)
        pair = adjoint_pair(alg)
        rho1 = tuple(-a.transpose() + (2 * r[i]) * ident for i, a in enumerate(pair.rho1))
        rho2 = tuple(-a.transpose() + (2 * r[i]) * ident for i, a in enumerate(pair.rho2))
    else:
        rho1, rho2 = family(), family()
    if rng.random() < 0.5:
        k = rng.randrange(n)
        bump = family()[0]
        rho1 = tuple(a + bump if i == k else a for i, a in enumerate(rho1))
    return alg, raw, r, m, rho1, rho2, family()


def test_rep_identities_match_oracle():
    """check_representation, check_gen_rep of every kind,
    check_rep_i_generalized and check_special_rep_ii report the oracle's
    violations, in C order, with its values."""
    rng = random.Random(2718)
    verdicts = set()
    for _ in range(150):
        alg, raw, r, m, rho1, rho2, f = _random_case(rng)
        n = alg.dim
        twist = [
            [sum((r[k] * raw[i][j][k] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
        first = rep_identity_sides(raw, twist, _raw(rho1), _raw(rho2))
        second = rep_identity_sides(raw, twist, _raw(rho1), _raw(rho2), r)

        report = check_representation(Representation(alg, m, rho1))
        own = rep_identity_sides(raw, twist, _raw(rho1), _raw(rho1))
        _assert_clause(report.clauses[0], own, Matrix)
        verdicts.add(report.passed)
        kinds = [GenRepKind.GEN_I, GenRepKind.GEN_II] + [GenRepKind.ASSOCIATED_GEN_II] * (m == n)
        for kind in kinds:
            report = check_gen_rep(GenRepPair(alg, m, rho1, rho2, kind))
            _assert_clause(report.clauses[0], first if kind is GenRepKind.GEN_I else second, Matrix)
            if kind is GenRepKind.ASSOCIATED_GEN_II:
                linked = rho2_from_rho1_sides(r, _raw(rho1), _raw(rho2))
                _assert_clause(report.clauses[1], linked, Vector)
            verdicts.add(report.passed)

        g = GeneralizedOmegaLieAlgebra(n, alg.table, alg.table, r=alg.r)
        _assert_clause(check_rep_i_generalized(g, rho1, rho2).clauses[0], first, Matrix)
        report = check_special_rep_ii(SpecialRepII(g, m, rho1, rho2, f))
        _assert_clause(report.clauses[0], second, Matrix)
        f_sides = f_identity_sides(raw, r, _raw(rho1), _raw(rho2), _raw(f))
        _assert_clause(report.clauses[1], f_sides, Matrix)
    assert verdicts == {True, False}


def test_rep_identity_with_explicit_omega_matches_oracle():
    rng = random.Random(3141)
    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 3)

        def entry():
            return Fraction(rng.randint(-2, 2), rng.choice((1, 3)))

        raw = antisymmetrize([[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)])
        omega = [[entry() for _ in range(n)] for _ in range(n)]
        alg = OmegaLieAlgebra(n, vectors_from_raw(raw), omega=Matrix(omega))
        rho = tuple(Matrix([[entry() for _ in range(m)] for _ in range(m)]) for _ in range(n))
        sides = rep_identity_sides(raw, omega, _raw(rho), _raw(rho))
        _assert_clause(check_representation(Representation(alg, m, rho)).clauses[0], sides, Matrix)


# SHA-256 of the reports below, rendered as sorted JSON.  It was recorded from
# the rational-matrix evaluation of the identities; any exact evaluation must
# reproduce it byte for byte.
REP_REPORTS_SHA256 = "ddf516aa8abab815bc896ce932f37ce6723977be66daec7736af9c01c655a3d0"


def _report_case(rng, t):
    """An algebra of dim n = 1-4 and one pair of families on an m-dim
    carrier, m = 1-4, cycling through the constructions that pass: the form
    acting as scalars, the adjoint pair, and its dual built by hand (the last
    two with m = n), and random families.  Algebras are valid (a corpus
    algebra or a dim-4 direct sum, scaled by one rational) or random; every
    other case perturbs one member of the first family."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    den = rng.randint(2, 9)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, den)))

    if rng.random() < 0.6:
        valid = corpus_algebras() + [
            omega_lie(4, {(0, 1): [1, 0, 0, 0], (2, 3): [0, 0, 1, 0]}, r=[0] * 4),
            abelian(4, Vector([1, 0, 0, 0])),
        ]
        base = rng.choice([a for a in valid if a.dim == n])
        s = Fraction(rng.choice((1, -1, 3)), rng.choice((1, den)))
        raw = [[[s * x for x in base.table[i][j]] for j in range(n)] for i in range(n)]
        r = [s * x for x in base.r]
    else:
        raw = antisymmetrize([[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)])
        r = [entry() for _ in range(n)]
    alg = OmegaLieAlgebra(n, vectors_from_raw(raw), r=Vector(r))
    construction = t % 4
    if construction == 0:
        rho1 = rho2 = tuple(alg.r[i] * Matrix.identity(m) for i in range(n))
    elif construction in (1, 2):
        m, pair = n, adjoint_pair(alg)
        rho1, rho2 = pair.rho1, pair.rho2
        if construction == 2:
            ident = Matrix.identity(n)
            rho1 = tuple(-a.transpose() + (2 * r[i]) * ident for i, a in enumerate(rho1))
            rho2 = tuple(-a.transpose() + (2 * r[i]) * ident for i, a in enumerate(rho2))
    else:
        rho1, rho2 = (
            tuple(Matrix([[entry() for _ in range(m)] for _ in range(m)]) for _ in range(n))
            for _ in range(2)
        )
    if t % 2:
        k = rng.randrange(n)
        bump = Matrix([[entry() for _ in range(m)] for _ in range(m)])
        rho1 = tuple(a + bump if i == k else a for i, a in enumerate(rho1))
    return alg, m, rho1, rho2


def test_rep_reports_byte_stable():
    """check_representation (multiplicative and explicit-omega flavors) and
    check_gen_rep of every kind, over seeded cases at n, m = 1-4, render the
    recorded bytes; every kind both passes and fails among them."""
    rng = random.Random(1618)
    digest = hashlib.sha256()
    seen = set()
    for t in range(160):
        alg, m, rho1, rho2 = _report_case(rng, t)
        n = alg.dim
        omega = Matrix([[Fraction(rng.randint(-2, 2), 2) for _ in range(n)] for _ in range(n)])
        reports = [
            check_representation(Representation(alg, m, rho1)),
            check_representation(
                Representation(OmegaLieAlgebra(n, alg.table, omega=omega), m, rho1)
            ),
        ]
        for kind in GenRepKind:
            if kind is GenRepKind.ASSOCIATED_GEN_II and m != n:
                continue
            reports.append(check_gen_rep(GenRepPair(alg, m, rho1, rho2, kind)))
            seen.add((kind, reports[-1].passed))
        for report in reports:
            digest.update(json.dumps(report.to_document(), sort_keys=True).encode())
    assert seen == {(kind, verdict) for kind in GenRepKind for verdict in (True, False)}
    assert digest.hexdigest() == REP_REPORTS_SHA256
