import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.algebras import (
    GeneralizedOmegaLieAlgebra,
    abelian,
    admissible_subspace,
    center,
    check_generalized,
    check_lsa,
    check_omega_lie,
    infer_r,
    left_symmetric,
    omega_lie,
    subadjacent,
)
from omegalie.errors import AxiomViolation
from omegalie.linalg import Matrix, Subspace, Vector

from conftest import (
    antisymmetrize,
    make_b2,
    make_e1_lsa,
    make_kt2_lsa,
    make_nc2_lsa,
    rational_entry,
    rational_matrix,
    rational_raw_tensor,
    raw_omega,
    raw_table,
    vectors_from_raw,
)
from oracles import (
    generalized_violations,
    lsa_sides,
    lsa_violations,
    omega_lie_violations,
    twisted_jacobi_sides,
)


def test_bracket_eval_reads_structure_constants(b2):
    e1, e2 = Vector.unit(2, 0), Vector.unit(2, 1)
    assert b2.bracket(e1, e2) == e1
    assert b2.bracket(e1, e1) == Vector.zero(2)


def test_bracket_eval_bilinear(ax2):
    e1, e2 = Vector.unit(2, 0), Vector.unit(2, 1)
    assert ax2.bracket(e1 + e2, e2) == e1


def test_b2_and_ax2_pass(b2, ax2):
    assert check_omega_lie(b2).passed
    assert check_omega_lie(ax2).passed


def test_jacobi_failure_reported():
    # [e1,e2]=e2, [e2,e3]=e1 breaks the Jacobi identity at (e1,e2,e3)
    bad = omega_lie(3, {(0, 1): [0, 1, 0], (1, 2): [1, 0, 0]}, r=[0, 0, 0])
    report = check_omega_lie(bad)
    assert not report.passed
    violated = {v.indices for c in report.clauses for v in c.violations}
    assert (0, 1, 2) in violated
    # cross-checked against the raw-loop oracle
    anti, jac = omega_lie_violations(raw_table(bad), raw_omega(bad))
    assert not anti and (0, 1, 2) in jac


def test_anticommutativity_failure_reported():
    table = [[Vector([0, 1]), Vector.zero(2)], [Vector.zero(2), Vector.zero(2)]]
    bad = omega_lie(2, {}, r=[0, 0])
    bad = type(bad)(2, table, r=Vector([0, 0]))
    report = check_omega_lie(bad)
    assert [c.name for c in report.clauses if not c.passed] == ["anticommutativity"]


def _random_raw_tensor(rng, n, lo=-2, hi=2):
    return [
        [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        for _ in range(n)
    ]


def _assert_sides(clause, sides):
    """The clause lists exactly the oracle's triples, in C order, and each
    violation carries the oracle's values of both sides."""
    assert [v.indices for v in clause.violations] == sorted(sides)
    for v in clause.violations:
        lhs, rhs = sides[v.indices]
        assert v.lhs == repr(Vector(lhs))
        assert v.rhs == repr(Vector(rhs))


def _pulled_back(r, c):
    n = len(c)
    return [[sum((a * b for a, b in zip(r, c[i][j])), Fraction(0)) for j in range(n)] for i in range(n)]


def test_checker_matches_oracle_on_random_tensors():
    rng = random.Random(20240601)
    for _ in range(120):
        n = rng.randint(1, 4)
        raw = _random_raw_tensor(rng, n)
        r = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        alg = type(make_b2())(
            n,
            [[Vector(raw[i][j]) for j in range(n)] for i in range(n)],
            r=Vector(r),
        )
        report = check_omega_lie(alg)
        anti, jac = omega_lie_violations(raw_table(alg), raw_omega(alg))
        got_anti = {v.indices for v in report.clauses[0].violations}
        got_jac = {v.indices for v in report.clauses[1].violations}
        assert got_anti == anti
        assert got_jac == jac
    for trial in range(40):
        n = rng.randint(1, 4)
        d_table, d_r, d_omega = rng.sample(range(2, 13), 3)
        raw = rational_raw_tensor(rng, n, d_table)
        if trial % 2:
            raw = antisymmetrize(raw)
        r = [rational_entry(rng, d_r) for _ in range(n)]
        omega = rational_matrix(rng, n, d_omega)
        for alg, twist in (
            (type(make_b2())(n, vectors_from_raw(raw), r=Vector(r)), _pulled_back(r, raw)),
            (type(make_b2())(n, vectors_from_raw(raw), omega=Matrix(omega)), omega),
        ):
            report = check_omega_lie(alg)
            anti, _ = omega_lie_violations(raw, twist)
            assert {v.indices for v in report.clauses[0].violations} == anti
            _assert_sides(report.clauses[1], twisted_jacobi_sides(raw, raw, twist))


def test_every_dim2_anticommutative_bracket_passes():
    rng = random.Random(7)
    for _ in range(50):
        v = [rng.randint(-3, 3), rng.randint(-3, 3)]
        r = [rng.randint(-3, 3), rng.randint(-3, 3)]
        alg = omega_lie(2, {(0, 1): v}, r=r)
        assert check_omega_lie(alg).passed


@given(
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=2),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), min_size=2, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_dim2_theorem_property(bracket, r):
    # both sides of the twisted Jacobi identity are alternating trilinear,
    # hence vanish identically on a 2-dim space
    assert check_omega_lie(omega_lie(2, {(0, 1): bracket}, r=r)).passed


def test_infer_r_zero_omega():
    alg = omega_lie(2, {(0, 1): [1, 0]}, omega=Matrix.zero(2, 2))
    assert infer_r(alg) == Vector([0, 0])


def test_infer_r_forced_value():
    alg = omega_lie(2, {(0, 1): [1, 0]}, omega=Matrix([[0, 1], [-1, 0]]))
    assert infer_r(alg) == Vector([1, 0])


def test_infer_r_no_solution():
    alg = omega_lie(2, {}, omega=Matrix([[0, 1], [-1, 0]]))
    assert infer_r(alg) is None


def test_generalized_lie_both_brackets(b2):
    g = GeneralizedOmegaLieAlgebra(2, b2.table, b2.table, r=Vector([0, 0]))
    assert check_generalized(g).passed


def test_generalized_ax2_passes(ax2):
    g = GeneralizedOmegaLieAlgebra(2, ax2.table, ax2.table, r=Vector([1, 0]))
    report = check_generalized(g)
    assert report.passed
    anti, jac = generalized_violations(raw_table(ax2), raw_table(ax2), list(ax2.r))
    assert not anti and not jac


def test_generalized_anticommutativity_failure():
    t1 = [[Vector([0, 1]), Vector.zero(2)], [Vector.zero(2), Vector.zero(2)]]
    t2 = [[Vector.zero(2)] * 2] * 2
    g = GeneralizedOmegaLieAlgebra(2, t1, t2, r=Vector([0, 0]))
    report = check_generalized(g)
    assert not report.clauses[0].passed


def test_generalized_checker_matches_oracle():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 3)
        raw1 = _random_raw_tensor(rng, n, -1, 1)
        raw2 = _random_raw_tensor(rng, n, -1, 1)
        r = [Fraction(rng.randint(-1, 1)) for _ in range(n)]
        g = GeneralizedOmegaLieAlgebra(
            n,
            [[Vector(raw1[i][j]) for j in range(n)] for i in range(n)],
            [[Vector(raw2[i][j]) for j in range(n)] for i in range(n)],
            r=Vector(r),
        )
        report = check_generalized(g)
        anti, jac = generalized_violations(raw1, raw2, r)
        assert {v.indices for v in report.clauses[0].violations} == anti
        assert {v.indices for v in report.clauses[1].violations} == jac
    for trial in range(40):
        n = rng.randint(1, 3)
        d1, d2, d_r = rng.sample(range(2, 13), 3)
        raw1 = rational_raw_tensor(rng, n, d1)
        if trial % 2:
            raw1 = antisymmetrize(raw1)
        r = [rational_entry(rng, d_r) for _ in range(n)]
        for raw2 in (rational_raw_tensor(rng, n, d2), raw1):
            g = GeneralizedOmegaLieAlgebra(n, vectors_from_raw(raw1), vectors_from_raw(raw2), r=Vector(r))
            report = check_generalized(g)
            anti, _ = generalized_violations(raw1, raw2, r)
            assert {v.indices for v in report.clauses[0].violations} == anti
            _assert_sides(report.clauses[1], twisted_jacobi_sides(raw1, raw2, _pulled_back(r, raw1)))


def test_center_abelian_is_full():
    assert center(abelian(2)) == Subspace.full(2)


def test_center_b2_is_zero(b2):
    assert center(b2).dim == 0


def test_center_of_direct_sum():
    alg = omega_lie(3, {(0, 1): [1, 0, 0]}, r=[0, 0, 0])
    assert center(alg) == Subspace.from_vectors(3, [Vector([0, 0, 1])])


def test_admissible_subspace_b2_full(b2):
    assert admissible_subspace(b2).is_full()


def test_admissible_subspace_ax2_zero(ax2):
    # ker r = span{e2} but r([e2, e1]) = -1
    assert admissible_subspace(ax2).dim == 0


def test_admissible_subspace_abelian_with_r():
    alg = abelian(2, Vector([1, 0]))
    assert admissible_subspace(alg) == Subspace.from_vectors(2, [Vector([0, 1])])


def test_lsa_fixtures_pass():
    for lsa in (make_e1_lsa(), make_nc2_lsa(), make_kt2_lsa()):
        report = check_lsa(lsa)
        assert report.passed, lsa.label
        raw = raw_table(lsa)
        omega = [[lsa.omega_basis(i, j) for j in range(lsa.dim)] for i in range(lsa.dim)]
        assert not lsa_violations(raw, omega)


def test_lsa_twist_mismatch_fails():
    bad = left_symmetric(1, {(0, 0): [1]}, omega=Matrix([[1]]))
    assert not check_lsa(bad).passed


def test_lsa_checker_matches_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 3)
        raw = _random_raw_tensor(rng, n, -1, 1)
        omega = [[Fraction(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
        lsa = left_symmetric(n, {}, omega=Matrix(omega))
        lsa = type(lsa)(
            n,
            [[Vector(raw[i][j]) for j in range(n)] for i in range(n)],
            omega=Matrix(omega),
        )
        report = check_lsa(lsa)
        assert {v.indices for c in report.clauses for v in c.violations} == lsa_violations(
            raw, omega
        )
    for _ in range(40):
        n = rng.randint(1, 3)
        d_table, d_r, d_omega = rng.sample(range(2, 13), 3)
        raw = rational_raw_tensor(rng, n, d_table)
        r = [rational_entry(rng, d_r) for _ in range(n)]
        omega = rational_matrix(rng, n, d_omega)
        pulled = _pulled_back(r, raw)
        r_twist = [[pulled[i][j] - pulled[j][i] for j in range(n)] for i in range(n)]
        for lsa, twist in (
            (left_symmetric(n, {}, omega=Matrix(omega)), omega),
            (left_symmetric(n, {}, r=Vector(r)), r_twist),
        ):
            lsa = type(lsa)(n, vectors_from_raw(raw), r=lsa.r, omega=lsa.omega)
            _assert_sides(check_lsa(lsa).clauses[0], lsa_sides(raw, twist))


def test_subadjacent_e1_is_abelian():
    sub = subadjacent(type(make_e1_lsa())(1, make_e1_lsa().table, r=Vector([1])))
    assert sub.table[0][0].is_zero()
    assert sub.r == Vector([1])
    assert check_omega_lie(sub).passed


def test_subadjacent_nc2():
    lsa = type(make_nc2_lsa())(2, make_nc2_lsa().table, r=Vector([1, 0]))
    sub = subadjacent(lsa)
    assert sub.table[0][1] == Vector([0, 1])
    assert sub.r == Vector([1, 0])
    assert check_omega_lie(sub).passed


def test_subadjacent_commutative_is_abelian():
    sub = subadjacent(make_kt2_lsa())
    assert all(sub.table[i][j].is_zero() for i in range(2) for j in range(2))


def test_subadjacent_rejects_invalid():
    bad = left_symmetric(1, {(0, 0): [1]}, omega=Matrix([[1]]))
    with pytest.raises(AxiomViolation):
        subadjacent(bad)
