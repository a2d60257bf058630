import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from omegalie.algebras import (
    OmegaLieAlgebra,
    abelian,
    admissible_subspace,
    center,
    check_omega_lie,
    omega_lie,
)
from omegalie.bialgebra import CobracketDelta, check_mult_bialgebra, dual_pair
from omegalie.errors import EmptyDecomposition
from omegalie.linalg import Matrix, ThreeTensor, Vector, rank_one, rat_str
from omegalie.yang_baxter import (
    TwoTensor,
    YbeContext,
    ad_x_t3,
    check_derivation_identity,
    check_r_admissible,
    check_yb_bialgebra,
    delta_from_r,
    dual_structure_from_r,
    jac_delta,
    solution_conditions,
    tensor_form_residual,
    yb_residual,
)

from conftest import (
    antisymmetrize,
    corpus_algebras,
    make_ax2,
    make_b2,
    make_b2_plus_line,
    rational_entry,
    rational_matrix,
    rational_raw_tensor,
    raw_table,
    vectors_from_raw,
)
from oracles import adjoint, classical_cybe, matmul, residual_unit_terms, solution_condition_failures

E1, E2 = Vector.unit(2, 0), Vector.unit(2, 1)
WEDGE = TwoTensor.wedge(E1, E2)
ZERO_DELTA = CobracketDelta(2, (Matrix.zero(2, 2),) * 2)


def ctx0(algebra):
    return YbeContext(algebra, Vector.zero(algebra.dim))


def test_admissible_b2_any_tensor(b2):
    assert check_r_admissible(ctx0(b2), WEDGE).passed


def test_admissible_ax2_wedge_fails(ax2):
    report = check_r_admissible(ctx0(ax2), WEDGE)
    assert not report.passed


def test_admissible_abelian_with_form():
    alg = abelian(2, Vector([1, 0]))
    tensor = TwoTensor(2, E2.outer(E2))
    assert check_r_admissible(YbeContext(alg, Vector.zero(2)), tensor).passed


def test_admissible_zero_rule_rejects_nonzero_u():
    alg = abelian(2, Vector([0, 0]))
    ctx = YbeContext(alg, Vector([1, 0]))
    assert check_r_admissible(ctx, TwoTensor.zero(2), central_rule="center").passed
    assert not check_r_admissible(ctx, TwoTensor.zero(2), central_rule="zero").passed


def test_residual_wedge_is_zero(b2):
    assert yb_residual(ctx0(b2), WEDGE).is_zero()


def test_residual_zero_tensor(b2):
    assert yb_residual(ctx0(b2), TwoTensor.zero(2)).is_zero()


def test_residual_non_skew_fixture(b2):
    tensor = TwoTensor(2, E1.outer(E2))
    expected = rank_one(E1, E1, E2).scale(-1)
    assert yb_residual(ctx0(b2), tensor) == expected


def test_residual_scaling_quadratic_when_u_zero(b2):
    rng = random.Random(11)
    for lam in (Fraction(2), Fraction(-3)):
        entries = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        tensor = TwoTensor(2, entries)
        base = yb_residual(ctx0(b2), tensor)
        scaled = yb_residual(ctx0(b2), tensor.scale(lam))
        assert scaled == base.scale(lam * lam)


def test_residual_matches_classical_oracle():
    rng = random.Random(23)
    for algebra in (make_b2(), make_b2_plus_line()):
        n = algebra.dim
        for _ in range(20):
            rmat = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            tensor = TwoTensor(n, Matrix(rmat))
            ours = yb_residual(ctx0(algebra), tensor)
            oracle = classical_cybe(raw_table(algebra), rmat)
            assert ours == ThreeTensor(oracle)
    # rational tables, tensors and distinguished elements, each with its own
    # denominators; the distinguished element is never zero here
    for trial in range(30):
        n = rng.randint(1, 3)
        d_table, d_r, d_tensor, d_u = rng.sample(range(2, 13), 4)
        raw = rational_raw_tensor(rng, n, d_table)
        if trial % 2:
            raw = antisymmetrize(raw)
        algebra = OmegaLieAlgebra(
            n, vectors_from_raw(raw), r=Vector([rational_entry(rng, d_r) for _ in range(n)])
        )
        rmat = rational_matrix(rng, n, d_tensor)
        u = [rational_entry(rng, d_u) for _ in range(n)]
        u[0] = Fraction(rng.choice((-5, -1, 1, 7)), d_u)
        ours = yb_residual(YbeContext(algebra, Vector(u)), TwoTensor(n, Matrix(rmat)))
        assert ours == ThreeTensor(_oracle_residual(raw, rmat, u))


def _oracle_residual(raw, rmat, u):
    n = len(raw)
    bracket_part = classical_cybe(raw, rmat)
    unit_part = residual_unit_terms(rmat, u)
    return [
        [[bracket_part[i][j][k] + unit_part[i][j][k] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def test_solution_conditions_match_oracle():
    """Failing indices of both conditions on the corpus rescaled by p/q,
    with admissible and arbitrary rational tensors."""
    rng = random.Random(41)
    for algebra in corpus_algebras():
        n = algebra.dim
        if n > 3:
            continue
        d_scale, d_tensor, d_u = rng.sample(range(2, 13), 3)
        s = Fraction(rng.randint(1, 6), d_scale)
        # scaling the bracket and r together keeps the twisted axioms
        scaled = OmegaLieAlgebra(
            n, [[v.scale(s) for v in row] for row in algebra.table], r=algebra.r.scale(s)
        )
        raw = raw_table(scaled)
        w = admissible_subspace(scaled)
        z = center(scaled)
        for trial in range(6):
            if trial % 2 and w.dim:
                entries = Matrix.zero(n, n)
                for a in range(w.dim):
                    for b in range(w.dim):
                        entries = entries + rational_entry(rng, d_tensor) * w.basis[a].outer(
                            w.basis[b]
                        )
                rmat = [list(row) for row in entries.rows]
            else:
                rmat = rational_matrix(rng, n, d_tensor)
            u = [Fraction(0)] * n
            if z.dim and trial >= 3:
                u = list(z.basis[0].scale(rational_entry(rng, d_u)))
            report = solution_conditions(YbeContext(scaled, Vector(u)), TwoTensor(n, Matrix(rmat)))
            moved, acted = solution_condition_failures(raw, rmat, _oracle_residual(raw, rmat, u))
            assert {v.indices[0] for v in report.clauses[0].violations} == moved
            assert {v.indices[0] for v in report.clauses[1].violations} == acted


def test_delta_from_wedge(b2):
    delta = delta_from_r(ctx0(b2), WEDGE)
    assert delta.component[0].is_zero()
    assert delta.component[1] == Matrix([[0, -1], [1, 0]])


def test_delta_zero_tensor(b2):
    delta = delta_from_r(ctx0(b2), TwoTensor.zero(2))
    assert all(m.is_zero() for m in delta.component)


def test_delta_abelian_with_u():
    alg = abelian(2)
    ctx = YbeContext(alg, Vector.unit(2, 0))
    delta = delta_from_r(ctx, TwoTensor.zero(2))
    assert delta.component[0] == Matrix([[-1, 0], [0, 0]])


def test_jac_delta_zero(b2):
    assert jac_delta(ctx0(b2), ZERO_DELTA, 0).is_zero()


def test_jac_delta_b2_wedge_vanishes(b2):
    delta = delta_from_r(ctx0(b2), WEDGE)
    for x in range(2):
        assert jac_delta(ctx0(b2), delta, x).is_zero()


def test_jac_delta_abelian_scopes():
    ctx = YbeContext(abelian(2), Vector.unit(2, 0))
    first = jac_delta(ctx, ZERO_DELTA, 0, scope="first")
    assert first == rank_one(E1, E1, E1).scale(2)
    everything = jac_delta(ctx, ZERO_DELTA, 0, scope="all")
    assert everything == rank_one(E1, E1, E1).scale(6)


def test_ad_x_t3_zero(b2):
    assert ad_x_t3(b2, 0, ThreeTensor.zero(2)).is_zero()


def test_ad_x_t3_abelian_annihilates():
    t = rank_one(E1, E2, E1)
    assert ad_x_t3(abelian(2), 1, t).is_zero()


def test_ad_x_t3_b2_diagonal(b2):
    t = rank_one(E1, E1, E1)
    assert ad_x_t3(b2, 1, t) == t.scale(-3)


def test_derivation_identity_b2_wedge(b2):
    assert check_derivation_identity(ctx0(b2), WEDGE).passed


def test_derivation_identity_ax2_zero(ax2):
    assert check_derivation_identity(ctx0(ax2), TwoTensor.zero(2)).passed


def test_derivation_identity_random_skew(b2):
    rng = random.Random(3)
    for _ in range(20):
        t = rng.randint(-2, 2)
        tensor = WEDGE.scale(t)
        assert check_derivation_identity(ctx0(b2), tensor).passed


def test_derivation_identity_hypothesis_is_global():
    """Counterexample found by exhaustive search: the equality can fail at
    an index where the invariance hypothesis holds locally, because the
    cancellation needs the hypothesis at other elements too."""
    from conftest import make_b2_line_r3

    L = make_b2_line_r3()
    tensor = TwoTensor(3, Matrix([[0, 1, 0], [-1, -1, 0], [0, 0, 0]]))
    ctx = YbeContext(L, Vector.zero(3))
    assert check_r_admissible(ctx, tensor).passed
    sym = (tensor.entries + tensor.entries.transpose()).rows
    a2 = Matrix(adjoint(raw_table(L), 1))
    moved = Matrix(matmul(a2.rows, sym)) + Matrix(matmul(sym, a2.transpose().rows))
    assert moved.is_zero()  # holds at e2 ...
    lhs = jac_delta(ctx, delta_from_r(ctx, tensor), 1)
    rhs = ad_x_t3(L, 1, yb_residual(ctx, tensor))
    assert lhs != rhs  # ... yet the equality fails there
    report = check_derivation_identity(ctx, tensor)
    assert report.meta["hypothesis_fails_at"] == [1]
    assert report.passed  # the identity is not asserted under a partial hypothesis


def test_derivation_identity_random_admissible_non_skew():
    """With the global hypothesis in force the equality holds even for
    non-skew admissible tensors, across the corpus."""
    import random as _random
    from fractions import Fraction as _F

    from omegalie.algebras import admissible_subspace, center

    rng = _random.Random(777)
    for algebra in corpus_algebras():
        n = algebra.dim
        w = admissible_subspace(algebra)
        if w.dim == 0:
            continue
        u_choices = [Vector.zero(n)]
        z = center(algebra)
        if z.dim:
            u_choices.append(z.basis[0])
        for _ in range(25):
            entries = Matrix.zero(n, n)
            for a in range(w.dim):
                for b in range(w.dim):
                    c = rng.randint(-2, 2)
                    if c:
                        entries = entries + _F(c) * w.basis[a].outer(w.basis[b])
            tensor = TwoTensor(n, entries)
            for u in u_choices:
                report = check_derivation_identity(YbeContext(algebra, u), tensor)
                assert report.passed, (algebra.label, list(u), entries)


def test_derivation_identity_needs_full_scope():
    alg = abelian(2, Vector([0, 0]))
    ctx = YbeContext(alg, Vector.unit(2, 0))
    assert check_derivation_identity(ctx, TwoTensor.zero(2), scope="all").passed
    assert not check_derivation_identity(ctx, TwoTensor.zero(2), scope="first").passed


def test_dual_structure_b2_wedge(b2):
    dual = dual_structure_from_r(ctx0(b2), WEDGE)
    assert dual.table[0][1] == Vector([0, -1])
    assert dual.r == Vector([0, 0])
    assert check_omega_lie(dual).passed


def test_dual_structure_zero_tensor(b2):
    dual = dual_structure_from_r(ctx0(b2), TwoTensor.zero(2))
    assert all(dual.table[i][j].is_zero() for i in range(2) for j in range(2))
    assert check_omega_lie(dual).passed


def test_dual_structure_non_skew_tracks_conditions(b2):
    tensor = TwoTensor(2, E1.outer(E2))
    conditions = solution_conditions(ctx0(b2), tensor)
    assert not conditions.clauses[0].passed  # symmetrized part moves
    dual = dual_structure_from_r(ctx0(b2), tensor)
    assert check_omega_lie(dual).passed == conditions.passed


def test_dual_structure_equivalence_on_full_grid(b2):
    """Over every tensor with entries in {-1, 0, 1} the dual structure is
    valid exactly when both solution conditions hold."""
    ctx = ctx0(b2)
    for entries in product((-1, 0, 1), repeat=4):
        tensor = TwoTensor(2, Matrix([entries[:2], entries[2:]]))
        conditions = solution_conditions(ctx, tensor)
        dual = dual_structure_from_r(ctx, tensor)
        assert check_omega_lie(dual).passed == conditions.passed, entries


def test_yb_bialgebra_wedge_passes(b2):
    assert check_yb_bialgebra(ctx0(b2), WEDGE).passed


def test_yb_bialgebra_zero_tensor(b2):
    assert check_yb_bialgebra(ctx0(b2), TwoTensor.zero(2)).passed


def test_yb_bialgebra_abelian_any_skew():
    alg = abelian(2)
    assert check_yb_bialgebra(ctx0(alg), WEDGE.scale(3)).passed


def test_yb_bialgebra_admissible_with_twisted_form():
    # admissible tensor, nonzero form, distinguished element with nonzero
    # form value: all the correction terms of the identity are live
    alg = abelian(3, Vector([1, 0, 0]))
    tensor = TwoTensor.wedge(Vector.unit(3, 1), Vector.unit(3, 2))
    ctx = YbeContext(alg, Vector.unit(3, 0))
    assert check_r_admissible(ctx, tensor).passed
    assert check_yb_bialgebra(ctx, tensor).passed

    from conftest import make_b2_line_r3

    twisted = make_b2_line_r3()
    tensor2 = TwoTensor.wedge(Vector.unit(3, 0), Vector.unit(3, 1))
    ctx2 = YbeContext(twisted, Vector.unit(3, 2))
    assert check_r_admissible(ctx2, tensor2).passed
    assert check_yb_bialgebra(ctx2, tensor2).passed
    # the same instance fails the annihilation condition, and the induced
    # dual structure fails its axioms in lockstep
    conditions = solution_conditions(ctx2, tensor2)
    assert not conditions.passed
    assert not check_omega_lie(dual_structure_from_r(ctx2, tensor2)).passed
    # while the derivation identity still holds exactly
    assert check_derivation_identity(ctx2, tensor2).passed


def test_yb_bialgebra_needs_component_conditions():
    # components outside ker r leave cross terms in the identity; the
    # checker reports the failure rather than assuming the premise
    ax2 = make_ax2()
    tensor = TwoTensor(2, Matrix([[1, 2], [-1, 1]]))
    ctx = YbeContext(ax2, Vector.zero(2))
    assert not check_r_admissible(ctx, tensor).passed
    assert not check_yb_bialgebra(ctx, tensor).passed


def row_decomposition(tensor: TwoTensor) -> list:
    n = tensor.dim
    return [
        (Vector.unit(n, i), tensor.entries.row(i))
        for i in range(n)
        if not tensor.entries.row(i).is_zero()
    ]


def column_decomposition(tensor: TwoTensor) -> list:
    n = tensor.dim
    return [
        (tensor.entries.column(j), Vector.unit(n, j))
        for j in range(n)
        if not tensor.entries.column(j).is_zero()
    ]


def split_decomposition(tensor: TwoTensor) -> list:
    pairs = row_decomposition(tensor)
    x, y = pairs[0]
    return [(x.scale(Fraction(1, 2)), y), (x.scale(Fraction(1, 2)), y)] + pairs[1:]


def test_tensor_form_equals_residual_with_zero_u(b2):
    ctx = ctx0(b2)
    for entries in product((-1, 0, 1), repeat=4):
        tensor = TwoTensor(2, Matrix([entries[:2], entries[2:]]))
        if tensor.entries.is_zero():
            continue
        expected = yb_residual(ctx, tensor)
        for decomposition in (
            row_decomposition(tensor),
            column_decomposition(tensor),
            split_decomposition(tensor),
        ):
            pure, units = tensor_form_residual(ctx, tensor, decomposition)
            assert pure == expected
            assert not units


def test_tensor_form_empty_decomposition(b2):
    with pytest.raises(EmptyDecomposition):
        tensor_form_residual(ctx0(b2), TwoTensor.zero(2), [])


def test_tensor_form_rejects_wrong_sum(b2):
    with pytest.raises(ValueError):
        tensor_form_residual(ctx0(b2), WEDGE, [(E1, E2)])


def test_tensor_form_central_u_matches_when_no_collision():
    # distinguished element central and distinct from every component
    alg = abelian(2, Vector([1, 0]))
    ctx = YbeContext(alg, Vector.unit(2, 0))
    tensor = TwoTensor(2, E2.outer(E2))
    pure, units = tensor_form_residual(ctx, tensor, [(E2, E2)])
    assert pure == yb_residual(ctx, tensor)
    assert not units


def test_tensor_form_component_collision_leaves_unit_terms():
    # a component equal to the distinguished element triggers the formal
    # substitution rules; the literal expansion then need not match
    alg = abelian(2)
    ctx = YbeContext(alg, Vector.unit(2, 0))
    tensor = TwoTensor(2, E1.outer(E1))
    pure, units = tensor_form_residual(ctx, tensor, [(E1, E1)])
    assert units  # formal-unit leftovers are surfaced, not silently dropped
    assert pure != yb_residual(ctx, tensor)


def test_derivation_identity_grid_on_corpus():
    for algebra in corpus_algebras():
        if algebra.dim > 3:
            continue
        from omegalie.algebras import admissible_subspace, center

        w = admissible_subspace(algebra)
        wedges = [
            TwoTensor.wedge(w.basis[a], w.basis[b])
            for a in range(w.dim)
            for b in range(a + 1, w.dim)
        ]
        u_choices = [Vector.zero(algebra.dim)]
        z = center(algebra)
        if z.dim:
            u_choices.append(z.basis[0])
        for u in u_choices:
            ctx = YbeContext(algebra, u)
            for coeffs in product((-1, 0, 1), repeat=len(wedges)):
                tensor = TwoTensor.zero(algebra.dim)
                for c, wt in zip(coeffs, wedges):
                    if c:
                        tensor = tensor + wt.scale(c)
                assert check_derivation_identity(ctx, tensor).passed, (
                    algebra.label,
                    u,
                    coeffs,
                )


# SHA-256 of the reports and objects below, recorded before the dual, the
# cobracket and the cocycle sweeps moved onto integer numerators.
COBRACKET_REPORTS_SHA256 = "28e441376657f2484ae7e8287ab86104c3a6f50da945d35323cbad76296ce24d"


def _cobracket_case(rng, t):
    """An algebra of dim n = 1-4 (valid: a corpus algebra or a dim-4 direct
    sum scaled by one rational; or a random table and form), a tensor (an
    admissible skew or non-skew combination, a random matrix, or zero) and a
    distinguished element (zero, a scaled central element, or random)."""
    n = rng.randint(1, 4)
    den = rng.randint(2, 9)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.choice((1, den)))

    valid = corpus_algebras() + [
        omega_lie(4, {(0, 1): [1, 0, 0, 0], (2, 3): [0, 0, 1, 0]}, r=[0] * 4),
        abelian(4, Vector([1, 0, 0, 0])),
    ]
    if rng.random() < 0.7:
        base = rng.choice([a for a in valid if a.dim == n])
        s = Fraction(rng.choice((1, -1, 3)), rng.choice((1, den)))
        raw = [[[s * x for x in base.table[i][j]] for j in range(n)] for i in range(n)]
        r = [s * x for x in base.r]
    else:
        raw = antisymmetrize([[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)])
        r = [entry() for _ in range(n)]
    alg = OmegaLieAlgebra(n, vectors_from_raw(raw), r=Vector(r))
    w = admissible_subspace(alg).basis
    shape = t % 4
    entries = Matrix.zero(n, n)
    if shape in (0, 1):
        for a in range(len(w)):
            for b in range(len(w)):
                if shape == 0 and a < b:
                    entries = entries + entry() * (w[a].outer(w[b]) - w[b].outer(w[a]))
                elif shape == 1:
                    entries = entries + entry() * w[a].outer(w[b])
    elif shape == 2:
        entries = Matrix([[entry() for _ in range(n)] for _ in range(n)])
    z = center(alg)
    pick = (t // 4) % 3
    if pick == 1 and z.dim:
        u = z.basis[rng.randrange(z.dim)].scale(entry())
    elif pick == 2:
        u = Vector([entry() for _ in range(n)])
    else:
        u = Vector.zero(n)
    return alg, TwoTensor(n, entries), u, [a for a in valid if a.dim == n]


def test_cobracket_reports_byte_stable():
    """check_yb_bialgebra, check_derivation_identity (both scopes),
    solution_conditions, the dual read off the tensor with its axiom report,
    the induced cobracket and check_mult_bialgebra on the pairs it makes,
    over seeded cases at n = 1-4, render the recorded bytes; every report
    both passes and fails among them."""
    rng = random.Random(2718)
    digest = hashlib.sha256()
    seen = set()

    def record(name, report):
        seen.add((name, report.passed))
        digest.update(json.dumps(report.to_document(), sort_keys=True).encode())

    for t in range(120):
        alg, tensor, u, valid = _cobracket_case(rng, t)
        ctx = YbeContext(alg, u)
        record("yb-bialgebra", check_yb_bialgebra(ctx, tensor))
        record("derivation", check_derivation_identity(ctx, tensor, ("all", "first")[t % 2]))
        record("conditions", solution_conditions(ctx, tensor))
        dual = dual_structure_from_r(ctx, tensor)
        axioms = check_omega_lie(dual)
        record("dual-axioms", axioms)
        table = [[[rat_str(x) for x in v] for v in row] for row in dual.table]
        delta = [repr(m) for m in delta_from_r(ctx, tensor).component]
        digest.update(json.dumps([table, [rat_str(x) for x in dual.r], delta]).encode())
        if check_omega_lie(alg).passed:
            partner = dual if axioms.passed else rng.choice(valid)
            record("mult-bialgebra", check_mult_bialgebra(dual_pair(alg, partner)))
    names = ("yb-bialgebra", "derivation", "conditions", "dual-axioms", "mult-bialgebra")
    assert seen == {(name, verdict) for name in names for verdict in (True, False)}
    assert digest.hexdigest() == COBRACKET_REPORTS_SHA256
