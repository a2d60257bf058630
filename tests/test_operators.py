import random
from itertools import product

import pytest

from omegalie.algebras import abelian, check_lsa, check_omega_lie, left_symmetric
from omegalie.errors import AxiomViolation
from omegalie.linalg import Matrix, ThreeTensor, Vector
from omegalie.operators import (
    check_o_operator,
    check_o_operator_gen,
    commutator_complement,
    genrep_from_lsa,
    lift_o_operator,
    lsa_from_o_operator,
    omega_lie_from_lsa,
    rep_from_lsa,
)
from omegalie.representations import Representation, check_representation
from omegalie.yang_baxter import YbeContext, yb_residual

from conftest import make_e1_lsa, make_kt2_lsa, make_nc2_lsa, raw_table
from oracles import classical_cybe, classical_semidirect


def e1_pipeline():
    algebra = omega_lie_from_lsa(make_e1_lsa(), 1)
    rep = rep_from_lsa(algebra, make_e1_lsa())
    return algebra, rep


def transport_residual(algebra, rho, t):
    """Independent evaluation of the transport identity, raw loops."""
    n, m = algebra.dim, rho[0].shape[0]
    out = {}
    for a in range(m):
        for b in range(m):
            tu = t.column(a)
            tv = t.column(b)
            rho_tu = Matrix.zero(m, m)
            rho_tv = Matrix.zero(m, m)
            for i in range(n):
                rho_tu = rho_tu + tu[i] * rho[i]
                rho_tv = rho_tv + tv[i] * rho[i]
            inner = rho_tu.column(b) - rho_tv.column(a)
            rhs = t.apply(inner) + (2 * algebra.r.dot(tv)) * tu - (2 * algebra.r.dot(tu)) * tv
            out[(a, b)] = algebra.bracket(tu, tv) - rhs
    return out


def test_zero_operator_passes(b2):
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    assert check_o_operator(b2, rep, Matrix.zero(2, 1)).passed


def test_e1_identity_operator_passes():
    algebra, rep = e1_pipeline()
    assert rep.rho[0] == Matrix([[3]])
    assert check_o_operator(algebra, rep, Matrix.identity(1)).passed


def test_b2_zero_rep_identity_fails(b2):
    rep = Representation(b2, 2, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    report = check_o_operator(b2, rep, Matrix.identity(2))
    assert {v.indices for c in report.clauses for v in c.violations} == {(0, 1), (1, 0)}


def test_gen_operator_identity_on_nc2():
    lsa = left_symmetric(
        2, {(0, 0): [1, 0], (0, 1): [0, 1]}, r=[1, 0], label="NC2m"
    )
    pair = genrep_from_lsa(lsa)
    assert check_o_operator_gen(pair.algebra, pair, Matrix.identity(2)).passed
    assert check_o_operator_gen(pair.algebra, pair, Matrix.zero(2, 2)).passed


def test_gen_operator_verdict_matches_brute_force():
    lsa = left_symmetric(
        2, {(0, 0): [1, 0], (0, 1): [0, 1]}, r=[1, 0], label="NC2m"
    )
    pair = genrep_from_lsa(lsa)
    for diag in product((-1, 0, 1, 2), repeat=2):
        t = Matrix([[diag[0], 0], [0, diag[1]]])
        report = check_o_operator_gen(pair.algebra, pair, t)
        residuals = transport_residual(pair.algebra, pair.rho1, t)
        assert report.passed == all(v.is_zero() for v in residuals.values()), diag


def test_lsa_from_operator_e1():
    algebra, rep = e1_pipeline()
    lsa = lsa_from_o_operator(algebra, rep, Matrix.identity(1))
    assert lsa.table[0][0] == Vector([1])  # 3e - 2e
    assert lsa.omega == Matrix([[0]])
    assert check_lsa(lsa).passed


def test_lsa_from_zero_operator(b2):
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    lsa = lsa_from_o_operator(b2, rep, Matrix.zero(2, 1))
    assert lsa.table[0][0].is_zero()
    assert lsa.omega.is_zero()


def test_lsa_from_invalid_operator_raises(b2):
    rep = Representation(b2, 2, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    with pytest.raises(AxiomViolation):
        lsa_from_o_operator(b2, rep, Matrix.identity(2))


def test_genrep_from_e1():
    lsa = left_symmetric(1, {(0, 0): [1]}, r=[1])
    pair = genrep_from_lsa(lsa)
    assert pair.rho1[0] == Matrix([[-1]])
    assert pair.rho2[0] == Matrix([[1]])


def test_genrep_commutative_no_form_is_left_multiplication():
    lsa = left_symmetric(
        2,
        {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]},
        r=[0, 0],
        label="K[t]/(t^2), r=0",
    )
    pair = genrep_from_lsa(lsa)
    assert pair.rho1 == pair.rho2


def test_omega_lie_from_lsa_fixtures():
    alg_e1 = omega_lie_from_lsa(make_e1_lsa(), 1)
    assert alg_e1.table[0][0].is_zero() and alg_e1.r == Vector([1])

    alg_nc2 = omega_lie_from_lsa(make_nc2_lsa(), 1)
    assert alg_nc2.table[0][1] == Vector([0, 1])
    assert alg_nc2.r == Vector([1, 0])
    span, complement = commutator_complement(make_nc2_lsa())
    assert span.basis == (Vector([0, 1]),)
    assert complement == [0]

    alg_kt2 = omega_lie_from_lsa(make_kt2_lsa(), 1)
    assert all(alg_kt2.table[i][j].is_zero() for i in range(2) for j in range(2))
    assert alg_kt2.r == Vector([1, 1])


def test_omega_lie_from_lsa_scale_two():
    alg = omega_lie_from_lsa(make_nc2_lsa(), 2)
    assert alg.r == Vector([2, 0])
    assert check_omega_lie(alg).passed


def test_omega_lie_from_lsa_rejects_zero_scale():
    with pytest.raises(ValueError):
        omega_lie_from_lsa(make_e1_lsa(), 0)


def test_rep_from_lsa_values():
    algebra, rep = e1_pipeline()
    assert rep.rho[0] == Matrix([[3]])

    alg_nc2 = omega_lie_from_lsa(make_nc2_lsa(), 1)
    rep_nc2 = rep_from_lsa(alg_nc2, make_nc2_lsa())
    left = Matrix.from_columns([make_nc2_lsa().table[0][j] for j in range(2)])
    assert rep_nc2.rho[0] == left + Matrix.identity(2).scale(2)
    assert check_representation(rep_nc2).passed
    assert check_o_operator(alg_nc2, rep_nc2, Matrix.identity(2)).passed


def test_lift_checks_each_representation_once(monkeypatch):
    """The lift checks the input and its dual once each; the semidirect
    product takes the dual as verified and checks only its own axioms."""
    import omegalie.operators as operators
    import omegalie.representations as representations
    from omegalie import bundles

    from conftest import FIXTURES

    ob = bundles.parse_o_operator(bundles.load_path(str(FIXTURES / "good_t.json")))
    calls = []

    def counted(rep):
        calls.append(rep.carrier_dim)
        return check_representation(rep)

    for module in (operators, representations):
        monkeypatch.setattr(module, "check_representation", counted)
    lift_o_operator(ob.algebra, ob.rep, ob.t)
    assert len(calls) == 2


def test_lift_e1_fixture():
    algebra, rep = e1_pipeline()
    ambient, tensor = lift_o_operator(algebra, rep, Matrix.identity(1))
    assert ambient.dim == 2
    assert ambient.table[0][1] == Vector([0, -1])
    assert ambient.r == Vector([1, 0])
    assert tensor.entries == Matrix([[0, 1], [-1, 0]])
    assert yb_residual(YbeContext(ambient, Vector.zero(2)), tensor).is_zero()


def test_lift_zero_operator(b2):
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    ambient, tensor = lift_o_operator(b2, rep, Matrix.zero(2, 1))
    assert tensor.entries.is_zero()
    assert yb_residual(YbeContext(ambient, Vector.zero(3)), tensor).is_zero()


def test_lift_invalid_operator_nonzero_residual(b2):
    rep = Representation(b2, 2, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    ambient, tensor = lift_o_operator(b2, rep, Matrix.identity(2))
    assert not yb_residual(YbeContext(ambient, Vector.zero(4)), tensor).is_zero()


def test_dimension_one_every_operator_passes():
    for r_val in (0, 1, 2):
        algebra = abelian(1, Vector([r_val]))
        rep = Representation(algebra, 1, (Matrix([[3 * r_val]]),))
        if not check_representation(rep).passed:
            continue
        for t_val in (-2, -1, 0, 1, 2):
            assert check_o_operator(algebra, rep, Matrix([[t_val]])).passed


def test_lift_equivalence_grid(b2, ax2):
    """Residual-zero of the lift tracks the transport identity exactly."""
    cases = []
    cases.append((b2, Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))))
    cases.append((ax2, Representation(ax2, 1, (Matrix([[1]]), Matrix([[0]])))))
    for algebra, rep in cases:
        for t_entries in product((-1, 0, 1), repeat=2):
            t = Matrix([[t_entries[0]], [t_entries[1]]])
            passed = check_o_operator(algebra, rep, t).passed
            ambient, tensor = lift_o_operator(algebra, rep, t)
            residual = yb_residual(YbeContext(ambient, Vector.zero(ambient.dim)), tensor)
            assert residual.is_zero() == passed, (algebra.label, t_entries)


def test_lift_matches_classical_oracle(b2):
    """Untwisted case: the lift equals the classical construction computed
    with raw-loop oracles end to end."""
    rep = Representation(b2, 2, (b2.ad1(0), b2.ad1(1)))
    rng = random.Random(17)
    for _ in range(10):
        t = Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
        ambient, tensor = lift_o_operator(b2, rep, t)
        dual_rho_raw = [
            [[-rep.rho[i][q, p] for q in range(2)] for p in range(2)] for i in range(2)
        ]
        oracle_table = classical_semidirect(raw_table(b2), dual_rho_raw)
        raw_tensor = [[tensor.entries[i, j] for j in range(4)] for i in range(4)]
        oracle_res = classical_cybe(oracle_table, raw_tensor)
        ours = yb_residual(YbeContext(ambient, Vector.zero(4)), tensor)
        assert ours == ThreeTensor(oracle_res)
        assert raw_table(ambient) == oracle_table
