import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from omegalie.algebras import (
    LeftSymmetricAlgebra,
    abelian,
    check_lsa,
    check_omega_lie,
    left_symmetric,
)
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
from omegalie.representations import (
    GenRepKind,
    GenRepPair,
    Representation,
    adjoint_pair,
    check_representation,
)
from omegalie.yang_baxter import YbeContext, yb_residual

from conftest import corpus_lsas, make_e1_lsa, make_kt2_lsa, make_nc2_lsa, raw_table
from oracles import adjoint, classical_cybe, classical_semidirect, transport_sides


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
    rep = Representation(b2, 2, tuple(Matrix(adjoint(raw_table(b2), i)) for i in range(2)))
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


SCALES = (1, 2, -1, Fraction(1, 2), Fraction(3, 7))


def _direct_sum(a, b):
    p, q = a.shape[0], b.shape[0]
    return Matrix([list(row) + [0] * q for row in a.rows] + [[0] * p + list(row) for row in b.rows])


def _operators(rng, n, m):
    """The zero operator, the identity when square, and two random n x m
    operators with p/q entries."""
    den = rng.choice((2, 3, 5))
    ops = [Matrix.zero(n, m)] + ([Matrix.identity(n)] if n == m else [])
    for _ in range(2):
        ops.append(
            Matrix([[Fraction(rng.randint(-3, 3), rng.choice((1, den))) for _ in range(m)] for _ in range(n)])
        )
    return ops


def _transport_cases(rng):
    """(algebra, family object, operator) triples: the representation of
    rep_from_lsa (left multiplication plus 2 r_i I, built here) for each
    corpus product at each scale, the scalar representation r_i I on a 1-dim
    carrier and their direct sum, and the first-kind pairs made the same way
    from the adjoint pair, so that T is square and non-square."""
    for lsa in corpus_lsas():
        for scale in SCALES:
            alg = omega_lie_from_lsa(lsa, scale)
            n = alg.dim
            shifted = tuple(
                Matrix([[lsa.table[i][j][k] + (2 * alg.r[i] if j == k else 0) for j in range(n)] for k in range(n)])
                for i in range(n)
            )
            rep = Representation(alg, n, shifted)
            scalar = tuple(alg.r[i] * Matrix.identity(1) for i in range(n))
            ad = adjoint_pair(alg)
            families = [
                rep,
                Representation(alg, 1, scalar),
                Representation(alg, n + 1, tuple(map(_direct_sum, rep.rho, scalar))),
                ad,
                GenRepPair(alg, 1, scalar, scalar, GenRepKind.GEN_I),
                GenRepPair(
                    alg, n + 1, tuple(map(_direct_sum, ad.rho1, scalar)),
                    tuple(map(_direct_sum, ad.rho2, scalar)), GenRepKind.GEN_I,
                ),
            ]
            for fam in families:
                for t in _operators(rng, n, fam.carrier_dim):
                    yield alg, fam, t


def _check(alg, fam, t):
    if isinstance(fam, Representation):
        return check_o_operator(alg, fam, t), fam.rho
    return check_o_operator_gen(alg, fam, t), fam.rho1


def _vec_str(v):
    return "(" + ", ".join(str(x) for x in v) + ")"


def test_transport_matches_oracle():
    """check_o_operator and check_o_operator_gen report the oracle's
    violations, in its order and with its values, on square and non-square
    operators; both verdicts occur for both checkers."""
    rng = random.Random(2501)
    seen = set()
    for alg, fam, t in _transport_cases(rng):
        report, rho = _check(alg, fam, t)
        n, m = alg.dim, fam.carrier_dim
        raw_rho = [[[mat[p, q] for q in range(m)] for p in range(m)] for mat in rho]
        raw_t = [[t[i, a] for a in range(m)] for i in range(n)]
        expected = transport_sides(raw_table(alg), list(alg.r), raw_rho, raw_t)
        (clause,) = report.clauses
        got = [(v.indices, v.lhs, v.rhs) for v in clause.violations]
        assert got == [(ab, _vec_str(l), _vec_str(r)) for ab, (l, r) in expected.items()]
        seen.add((clause.name, report.passed))
    assert seen == {
        (name, verdict) for name in ("operator-identity", "operator-identity-gen") for verdict in (True, False)
    }


OPERATOR_REPORTS_SHA256 = "b632521e5248753a0994fccde35912f6410cee163c6b9bc458afe34a9d857f9b"


def _outcome(build, render):
    try:
        return render(build())
    except (ValueError, AxiomViolation) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_operator_reports_byte_stable():
    """The transport reports of check_o_operator and check_o_operator_gen,
    and the outputs or error messages of rep_from_lsa, genrep_from_lsa and
    lsa_from_o_operator over seeded cases, render the recorded bytes."""
    rng = random.Random(2502)
    digest = hashlib.sha256()
    seen = set()

    def record(name, text):
        seen.add((name, text.startswith(("ValueError", "AxiomViolation"))))
        digest.update(f"{name}:{text}\n".encode())

    families = lambda x: " ".join(map(repr, x))
    for alg, fam, t in _transport_cases(rng):
        report = _check(alg, fam, t)[0]
        seen.add(("verdict", report.passed))
        record("check", json.dumps(report.to_document(), sort_keys=True))
        if isinstance(fam, Representation):
            record("lsa", _outcome(
                lambda: lsa_from_o_operator(alg, fam, t),
                lambda out: f"{families(r for row in out.table for r in row)} {out.omega!r}",
            ))
    for lsa in corpus_lsas():
        n = lsa.dim
        for scale in SCALES:
            alg = omega_lie_from_lsa(lsa, scale)
            r = [Fraction(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(n)]
            for target in (alg, abelian(n, Vector(r)), omega_lie_from_lsa(make_e1_lsa(), scale)):
                record("rep", _outcome(lambda: rep_from_lsa(target, lsa), lambda out: families(out.rho)))
            for form in (alg.r, Vector(r)):
                mult = LeftSymmetricAlgebra(n, lsa.table, r=form)
                record("genrep", _outcome(
                    lambda: genrep_from_lsa(mult), lambda out: f"{families(out.rho1)} {families(out.rho2)}"
                ))
        record("genrep", _outcome(lambda: genrep_from_lsa(lsa), repr))
    assert seen == {
        (name, flag) for name in ("verdict", "lsa", "rep", "genrep") for flag in (True, False)
    } | {("check", False)}
    assert digest.hexdigest() == OPERATOR_REPORTS_SHA256
