import random
from itertools import product

import pytest

from omegalie.algebras import OmegaLieAlgebra, abelian, check_omega_lie, omega_lie
from omegalie.bialgebra import (
    BilinearForm,
    DualPair,
    check_invariant_form,
    check_manin_triple,
    check_matched_pair,
    check_mult_bialgebra,
    cobracket_of_dual,
    crosscheck_equivalence,
    double_bracket,
    dual_pair,
    embedded_halves,
    standard_form,
    u_r_of,
)
from omegalie.errors import AxiomViolation
from omegalie.linalg import Matrix, Subspace, Vector
from omegalie.representations import GenRepKind, GenRepPair, check_gen_rep

from conftest import (
    antisymmetrize,
    make_b2,
    rational_entry,
    rational_matrix,
    rational_raw_tensor,
    raw_table,
    vectors_from_raw,
)
from oracles import adjoint, invariant_form_sides, matched_pair_residuals


def classical_pair():
    return dual_pair(make_b2(), abelian(2, label="ab*"))


def test_u_r_of_zero():
    assert u_r_of(abelian(2)) == Vector([0, 0])


def test_u_r_of_coefficients():
    assert u_r_of(abelian(2, Vector([2, 3]))) == Vector([2, 3])


def test_u_r_round_trip():
    dual = abelian(3, Vector([1, "1/2", -2]))
    u = u_r_of(dual)
    for a in range(3):
        assert u[a] == dual.r[a]


def test_double_of_classical_pair_passes():
    dp = classical_pair()
    dbl = double_bracket(dp)
    assert dbl.dim == 4
    assert check_omega_lie(dbl).passed
    assert dbl.r == Vector([0, 0, 0, 0])


def test_double_of_abelian_pair_is_abelian():
    dp = dual_pair(abelian(2), abelian(2))
    dbl = double_bracket(dp)
    assert all(dbl.table[i][j].is_zero() for i in range(4) for j in range(4))


def test_double_bracket_mixed_terms():
    # with the untwisted pair the mixed bracket is the coadjoint action
    dp = classical_pair()
    dbl = double_bracket(dp)
    b2 = dp.algebra
    coad = [-Matrix(adjoint(raw_table(b2), i)).transpose() for i in range(2)]
    for i in range(2):
        for b in range(2):
            expected_tail = coad[i].column(b)
            assert dbl.table[i][2 + b] == Vector([0, 0] * 1 + list(expected_tail))


def test_matched_pair_classical_passes():
    assert check_matched_pair(classical_pair()).passed


def test_matched_pair_abelian_passes():
    assert check_matched_pair(dual_pair(abelian(2), abelian(2))).passed


def test_matched_pair_verdict_tracks_double():
    dp = dual_pair(make_b2(), omega_lie(2, {(0, 1): [1, 0]}, r=[0, 0]))
    assert check_matched_pair(dp).passed == check_omega_lie(double_bracket(dp)).passed


def _raw_family(mats):
    return [[list(row) for row in m.rows] for m in mats]


def _assert_matched_pair_matches_oracle(dp):
    expected = matched_pair_residuals(
        raw_table(dp.algebra),
        raw_table(dp.dual),
        list(dp.algebra.r),
        list(dp.u_r),
        _raw_family(dp.pair_on_dual.rho1),
        _raw_family(dp.pair_on_dual.rho2),
        _raw_family(dp.pair_on_algebra.rho1),
        _raw_family(dp.pair_on_algebra.rho2),
    )
    report = check_matched_pair(dp)
    assert [c.name for c in report.clauses] == list(expected)
    zero = repr(Vector.zero(dp.algebra.dim))
    for clause in report.clauses:
        assert [(v.indices, v.lhs, v.rhs) for v in clause.violations] == [
            (indices, repr(Vector(res)), zero) for indices, res in expected[clause.name]
        ]
    return report.passed


def test_matched_pair_matches_oracle():
    """Clause by clause, the violation indices in order and the residuals
    are those of an oracle that writes all four conditions out in full: on
    the dim-2 bridge grid, and on hand-built pairs with random families."""
    failing = 0
    for a, b in product((-1, 0, 1), repeat=2):
        for r in ((0, 0), (1, 0)):
            lhs = omega_lie(2, {(0, 1): [a, b]}, r=list(r))
            for al, be in product((-1, 0, 1), repeat=2):
                for rs in ((0, 0), (0, 1)):
                    rhs = omega_lie(2, {(0, 1): [al, be]}, r=list(rs))
                    failing += not _assert_matched_pair_matches_oracle(dual_pair(lhs, rhs))
    assert failing > 0

    rng = random.Random(3838)
    for trial in range(60):
        n = rng.randint(1, 3)
        den = rng.randint(2, 12)

        def algebra():
            raw = rational_raw_tensor(rng, n, den)
            if trial % 2:
                raw = antisymmetrize(raw)
            r = Vector([rational_entry(rng, den) for _ in range(n)])
            return OmegaLieAlgebra(n, vectors_from_raw(raw), r=r)

        def family():
            return tuple(Matrix(rational_matrix(rng, n, den)) for _ in range(n))

        L, Ls = algebra(), algebra()
        on_dual = GenRepPair(L, n, family(), family(), GenRepKind.GEN_I)
        on_algebra = GenRepPair(Ls, n, family(), family(), GenRepKind.GEN_I)
        _assert_matched_pair_matches_oracle(DualPair(L, Ls, on_dual, on_algebra, Ls.r))


def test_standard_form_dim1():
    form = standard_form(1)
    assert form.matrix == Matrix([[0, 1], [1, 0]])
    assert form.symmetric and form.nondegenerate


def test_standard_form_pairing_values():
    form = standard_form(2)
    e1 = Vector.unit(4, 0)
    e1s, e2 = Vector.unit(4, 2), Vector.unit(4, 1)
    assert form.value(e1, e1s) == 1
    assert form.value(e1, e2) == 0


def test_invariant_form_zero_is_invariant(b2):
    assert check_invariant_form(b2, BilinearForm(Matrix.zero(2, 2))).passed


def test_invariant_form_matches_oracle():
    """Rational tables, forms and r, each with its own denominators: the
    violations are the oracle's triples in C order, with its values."""
    rng = random.Random(808)
    for trial in range(40):
        n = rng.randint(1, 3)
        d_table, d_r, d_form = rng.sample(range(2, 13), 3)
        raw = rational_raw_tensor(rng, n, d_table)
        if trial % 2:
            raw = antisymmetrize(raw)
        r = [rational_entry(rng, d_r) for _ in range(n)]
        gram = rational_matrix(rng, n, d_form)
        if trial % 3 == 0:
            gram = [[gram[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        alg = OmegaLieAlgebra(n, vectors_from_raw(raw), r=Vector(r))
        clause = check_invariant_form(alg, BilinearForm(Matrix(gram))).clauses[0]
        sides = invariant_form_sides(raw, gram, r)
        assert [v.indices for v in clause.violations] == sorted(sides)
        for v in clause.violations:
            assert (v.lhs, v.rhs) == tuple(repr(x) for x in sides[v.indices])


def test_invariant_form_identity_fails_on_b2(b2):
    report = check_invariant_form(b2, BilinearForm(Matrix.identity(2)))
    assert not report.passed
    assert (0, 1, 0) in {v.indices for c in report.clauses for v in c.violations}


def test_standard_form_invariant_on_classical_double():
    dbl = double_bracket(classical_pair())
    assert check_invariant_form(dbl, standard_form(2)).passed


def test_manin_triple_classical_double_passes():
    dbl = double_bracket(classical_pair())
    first, second = embedded_halves(2)
    assert check_manin_triple(dbl, first, second, standard_form(2)).passed


def test_manin_triple_diagonal_not_isotropic():
    # two commuting copies of the same algebra with the cross pairing
    h = omega_lie(
        4, {(0, 1): [1, 0, 0, 0], (2, 3): [0, 0, 1, 0]}, r=[0, 0, 0, 0]
    )
    diagonal = Subspace.from_vectors(
        4, [Vector([1, 0, 1, 0]), Vector([0, 1, 0, 1])]
    )
    first_half, _ = embedded_halves(2)
    report = check_manin_triple(h, diagonal, first_half, standard_form(2))
    assert not report.passed
    failing = {c.name for c in report.clauses if not c.passed}
    assert "first-isotropic" in failing


def test_manin_triple_zero_form_fails_nondegeneracy():
    dbl = double_bracket(classical_pair())
    first, second = embedded_halves(2)
    report = check_manin_triple(dbl, first, second, BilinearForm(Matrix.zero(4, 4)))
    assert not report.passed
    assert "form-nondegenerate" in {c.name for c in report.clauses if not c.passed}


def test_cobracket_of_abelian_dual_is_zero():
    delta = cobracket_of_dual(abelian(2))
    assert all(m.is_zero() for m in delta.component)


def test_cobracket_matches_hand_expansion():
    dual = omega_lie(2, {(0, 1): [0, -1]}, r=[0, 0])
    delta = cobracket_of_dual(dual)
    assert delta.component[0].is_zero()
    assert delta.component[1] == Matrix([[0, -1], [1, 0]])


def test_cobracket_of_abelian_dual_with_form():
    delta = cobracket_of_dual(abelian(2, Vector([1, 0])))
    assert delta.component[0] == Matrix([[-1, 0], [0, 0]])
    assert delta.component[1] == Matrix([[0, -2], [1, 0]])


def test_bialgebra_classical_and_abelian_pass():
    assert check_mult_bialgebra(classical_pair()).passed
    assert check_mult_bialgebra(dual_pair(abelian(2), abelian(2))).passed


def test_bialgebra_verdict_tracks_matched_pair():
    dp = dual_pair(make_b2(), omega_lie(2, {(0, 1): [1, 0]}, r=[0, 0]))
    assert check_mult_bialgebra(dp).passed == check_matched_pair(dp).passed


def test_one_sided_conditions_are_not_enough():
    """Regression: the one-sided cobracket conditions hold on this instance
    while the double genuinely fails its axioms, so the checker must also
    evaluate the mirrored pair."""
    lhs = omega_lie(2, {(0, 1): [-1, -1]}, r=[1, 0])
    dp = dual_pair(lhs, abelian(2))
    report = check_mult_bialgebra(dp)
    one_sided = [c for c in report.clauses if not c.name.startswith("mirror-")]
    assert all(c.passed for c in one_sided)
    assert not report.passed
    assert not check_omega_lie(double_bracket(dp)).passed


@pytest.mark.parametrize("change", ["swapped", "rho1-on-dual", "rho2-on-algebra"])
def test_bialgebra_rejects_nonstandard_pairs(change):
    dp = classical_pair()
    on_dual, on_algebra = dp.pair_on_dual, dp.pair_on_algebra
    bump = Matrix.identity(2)
    if change == "swapped":
        on_dual, on_algebra = on_algebra, on_dual
    elif change == "rho1-on-dual":
        rho1 = (on_dual.rho1[0] + bump, on_dual.rho1[1])
        on_dual = GenRepPair(dp.algebra, 2, rho1, on_dual.rho2, on_dual.kind)
    else:
        rho2 = (on_algebra.rho2[0], on_algebra.rho2[1] + bump)
        on_algebra = GenRepPair(dp.dual, 2, on_algebra.rho1, rho2, on_algebra.kind)
    assert check_mult_bialgebra(dp).passed
    with pytest.raises(ValueError, match="standard"):
        check_mult_bialgebra(DualPair(dp.algebra, dp.dual, on_dual, on_algebra, dp.u_r))


def test_crosscheck_verifies_each_algebra_once(monkeypatch):
    """``dual_pair`` verified both sides, so of the three routes only the
    triple's check of the double runs the axiom checker."""
    import omegalie.bialgebra as bialgebra

    dp = dual_pair(make_b2(), abelian(2))
    checked = []
    real = bialgebra.check_omega_lie
    monkeypatch.setattr(
        bialgebra, "check_omega_lie", lambda alg: checked.append(alg.dim) or real(alg)
    )
    assert crosscheck_equivalence(dp).passed
    assert checked == [4]


def test_dual_pair_builds_each_integer_view_once(monkeypatch):
    """``dual_pair`` reads one integer view per algebra and per operator
    family, each built at most once: the constructions seed the views of the
    pairs they return."""
    import omegalie.algebras as algebras
    import omegalie.representations as representations

    built = []

    def counted(real):
        return lambda *args: built.append(tuple(map(id, args))) or real(*args)

    monkeypatch.setattr(algebras, "_int_table", counted(algebras._int_table))
    monkeypatch.setattr(representations, "_int_families", counted(representations._int_families))
    lhs, rhs = make_b2(), abelian(2)
    dp = dual_pair(lhs, rhs)
    assert sorted(built) == sorted([(id(lhs.table), id(lhs.r)), (id(rhs.table), id(rhs.r))])
    # the returned pairs carry their views: checking them builds nothing
    for pair in (dp.pair_on_dual, dp.pair_on_algebra):
        assert check_gen_rep(pair).passed
    assert len(built) == 2


def test_crosscheck_classical_and_abelian():
    assert crosscheck_equivalence(classical_pair()).passed
    assert crosscheck_equivalence(dual_pair(abelian(2), abelian(2))).passed


def test_crosscheck_random_dim2_instances_agree():
    rng = random.Random(31)
    for _ in range(25):
        lhs = omega_lie(
            2,
            {(0, 1): [rng.randint(-1, 1), rng.randint(-1, 1)]},
            r=[rng.randint(-1, 1), rng.randint(-1, 1)],
        )
        rhs = omega_lie(
            2,
            {(0, 1): [rng.randint(-1, 1), rng.randint(-1, 1)]},
            r=[rng.randint(-1, 1), rng.randint(-1, 1)],
        )
        assert crosscheck_equivalence(dual_pair(lhs, rhs)).passed


def test_dual_pair_rejects_invalid_algebra():
    bad = omega_lie(3, {(0, 1): [0, 1, 0], (1, 2): [1, 0, 0]}, r=[0, 0, 0])
    with pytest.raises(AxiomViolation):
        dual_pair(bad, abelian(3))


def test_untwisted_bialgebra_matches_classical_cocycle_oracle():
    """With both linear forms zero, the checker verdict must equal the
    classical cocycle condition computed by an independent raw-loop oracle."""
    from itertools import product

    from conftest import make_b2_plus_line, make_heisenberg, raw_table
    from oracles import classical_cocycle_holds

    # dimension 2: exhaustive over both brackets
    for a, b in product((-1, 0, 1), repeat=2):
        lhs = omega_lie(2, {(0, 1): [a, b]}, r=[0, 0])
        for al, be in product((-1, 0, 1), repeat=2):
            rhs = omega_lie(2, {(0, 1): [al, be]}, r=[0, 0])
            dp = dual_pair(lhs, rhs)
            expected = classical_cocycle_holds(raw_table(lhs), raw_table(rhs))
            assert check_mult_bialgebra(dp).passed == expected, (a, b, al, be)

    # dimension 3: the untwisted corpus algebras against each other
    dim3 = [abelian(3, label="ab3"), make_b2_plus_line(), make_heisenberg()]
    for lhs in dim3:
        for rhs in dim3:
            dp = dual_pair(lhs, rhs)
            expected = classical_cocycle_holds(raw_table(lhs), raw_table(rhs))
            assert check_mult_bialgebra(dp).passed == expected, (lhs.label, rhs.label)


def test_four_way_agreement_in_dimension_three():
    """All four routes agree beyond dimension 2, where alternating
    expressions no longer vanish for free."""
    from conftest import corpus_algebras

    dim3 = [a for a in corpus_algebras() if a.dim == 3]
    dim3.append(abelian(3, label="ab3"))
    assert len(dim3) >= 5
    passing = failing = 0
    for lhs in dim3:
        for rhs in dim3:
            dp = dual_pair(lhs, rhs)
            matched = check_matched_pair(dp).passed
            double = double_bracket(dp)
            axioms = check_omega_lie(double).passed
            bialgebra = check_mult_bialgebra(dp).passed
            first, second = embedded_halves(3)
            manin = check_manin_triple(double, first, second, standard_form(3)).passed
            assert matched == axioms == bialgebra == manin, (lhs.label, rhs.label)
            passing += matched
            failing += not matched
    assert passing >= 3 and failing >= 3
