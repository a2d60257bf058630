import hashlib
from fractions import Fraction

import numpy as np
import pytest

from omegalie.algebras import abelian, omega_lie
from omegalie.errors import EmptyParameterSpace
from omegalie.linalg import Vector
from omegalie.solver import (
    SolveOptions,
    build_problem,
    minimize,
    rationalize_verify,
    residual_gradient,
    residual_jacobian,
    residual_norm_sq,
    residual_tensor,
    skew_parameter_basis,
)
from omegalie.yang_baxter import TwoTensor, YbeContext, yb_residual

from conftest import corpus_algebras, make_ax2, make_b2, make_b2_plus_line, make_heisenberg


def _direct_sum(*parts):
    """Block-diagonal bracket of the parts, with r = 0."""
    n = sum(part.dim for part in parts)
    entries = {}
    offset = 0
    for part in parts:
        for i in range(part.dim):
            for j in range(i + 1, part.dim):
                v = part.table[i][j]
                if not v.is_zero():
                    entries[(offset + i, offset + j)] = [0] * offset + list(v) + [0] * (n - offset - part.dim)
        offset += part.dim
    return omega_lie(n, entries, r=[0] * n, label="+".join(part.label for part in parts))


# the direct sums of the solve benchmark, at n = 4, 5, 6, 6
DIRECT_SUMS = [
    (make_b2, make_b2),
    (make_b2, make_heisenberg),
    (make_heisenberg, make_heisenberg),
    (make_b2, make_b2, make_b2),
]


def test_parameter_basis_sizes():
    assert len(skew_parameter_basis(make_b2())) == 1
    assert len(skew_parameter_basis(make_ax2())) == 0
    assert len(skew_parameter_basis(make_b2_plus_line())) == 3


def test_residual_zero_at_origin():
    problem = build_problem(make_b2())
    assert residual_norm_sq(problem, np.zeros(1)) == 0.0


def test_residual_zero_on_wedge_line():
    problem = build_problem(make_b2())
    assert residual_norm_sq(problem, np.array([1.0])) < 1e-24
    assert residual_norm_sq(problem, np.array([2.0])) < 1e-24


def test_gradient_zero_at_origin():
    problem = build_problem(make_b2_plus_line())
    g = residual_gradient(problem, np.zeros(problem.parameter_dim))
    assert np.allclose(g, 0.0)


def test_gradient_small_at_exact_solution():
    problem = build_problem(make_b2())
    g = residual_gradient(problem, np.array([0.7]))
    assert np.linalg.norm(g) < 1e-8


def test_gradient_matches_central_differences():
    problem = build_problem(make_b2_plus_line())
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, problem.parameter_dim)
        g = residual_gradient(problem, x)
        fd = np.zeros_like(g)
        for t in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[t] += h
            xm[t] -= h
            fd[t] = (residual_norm_sq(problem, xp) - residual_norm_sq(problem, xm)) / (2 * h)
        denom = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-8)
        assert np.linalg.norm(g - fd) / denom < 1e-6


def test_gradient_matches_central_differences_fifteen_parameters():
    problem = build_problem(_direct_sum(make_heisenberg(), make_heisenberg()), u_r=Vector([1, 0, -2, 0, 1, 3]))
    assert problem.parameter_dim == 15
    rng = np.random.default_rng(43)
    h = 1e-6
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, problem.parameter_dim)
        g = residual_gradient(problem, x)
        fd = np.zeros_like(g)
        for t in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[t] += h
            xm[t] -= h
            fd[t] = (residual_norm_sq(problem, xp) - residual_norm_sq(problem, xm)) / (2 * h)
        assert np.linalg.norm(g - fd) / max(np.linalg.norm(g), np.linalg.norm(fd), 1e-8) < 1e-6


def test_jacobian_of_empty_parameter_space():
    problem = build_problem(make_ax2())
    assert problem.parameter_dim == 0
    assert residual_jacobian(problem, np.zeros(0)).shape == (8, 0)


def test_float_residual_matches_exact_kernel():
    # the einsum objective and the exact residual are independent paths
    from fractions import Fraction

    from omegalie.solver import residual_tensor
    from omegalie.yang_baxter import TwoTensor

    algebra = make_b2_plus_line()
    problem = build_problem(algebra, u_r=Vector([0, 0, 1]))
    coords = [Fraction(1), Fraction(1, 2), Fraction(-2)]
    exact = TwoTensor.zero(3)
    for q, basis_tensor in zip(coords, skew_parameter_basis(algebra)):
        exact = exact + basis_tensor.scale(q)
    ctx = YbeContext(algebra, problem.u_r)
    expected = yb_residual(ctx, exact)
    got = residual_tensor(problem, np.array([float(c) for c in coords]))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert abs(got[i, j, k] - float(expected[i, j, k])) < 1e-12


@pytest.mark.parametrize("parts", DIRECT_SUMS, ids=lambda parts: "+".join(make().label for make in parts))
def test_float_residual_matches_exact_kernel_on_direct_sums(parts):
    algebra = _direct_sum(*(make() for make in parts))
    n = algebra.dim
    problem = build_problem(algebra, u_r=Vector([(-1) ** i * (i + 1) for i in range(n)]))
    ctx = YbeContext(algebra, problem.u_r)
    basis = skew_parameter_basis(algebra)
    rng = np.random.default_rng(n)
    for _ in range(3):
        coords = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in basis]
        exact = TwoTensor.zero(n)
        for q, basis_tensor in zip(coords, basis):
            exact = exact + basis_tensor.scale(q)
        expected = yb_residual(ctx, exact)
        want = np.array([[[float(expected[i, j, k]) for k in range(n)] for j in range(n)] for i in range(n)])
        got = residual_tensor(problem, np.array([float(c) for c in coords]))
        assert np.abs(got).max() > 0  # a nonzero residual, so the comparison is not vacuous
        assert np.abs(got - want).max() < 1e-12


def test_minimize_b2_converges_seed1():
    problem = build_problem(make_b2(), options=SolveOptions(seed=1))
    result = minimize(problem)
    assert result.converged
    assert result.residual_norm < 1e-10


def test_minimize_ax2_empty_space():
    with pytest.raises(EmptyParameterSpace):
        minimize(build_problem(make_ax2()))


def test_minimize_abelian_immediate():
    problem = build_problem(abelian(2), options=SolveOptions(restarts=2))
    result = minimize(problem)
    assert result.converged
    assert len(result.trace) == 1  # already a solution at the starting point


def test_minimize_deterministic_trace():
    opts = SolveOptions(seed=9, restarts=6)
    r1 = minimize(build_problem(make_b2_plus_line(), options=opts))
    r2 = minimize(build_problem(make_b2_plus_line(), options=opts))
    assert r1.trace == r2.trace
    assert np.array_equal(r1.best_coords, r2.best_coords)


def test_rationalize_requires_convergence():
    problem = build_problem(make_b2())
    result = minimize(problem)
    result.converged = False
    with pytest.raises(ValueError):
        rationalize_verify(problem, result)


def test_rationalize_b2_exact():
    problem = build_problem(make_b2(), options=SolveOptions(seed=1))
    result = rationalize_verify(problem, minimize(problem))
    assert result.exact_verified
    tensor = result.rationalized
    assert tensor.is_skew()
    # soundness gate: recompute in the exact kernel
    ctx = YbeContext(problem.algebra, problem.u_r)
    assert yb_residual(ctx, tensor).is_zero()
    denominators = {e.denominator for row in tensor.entries.rows for e in row}
    assert max(denominators) <= 64


def test_rationalize_abelian_any_candidate():
    problem = build_problem(abelian(3), options=SolveOptions(seed=2, restarts=2))
    result = rationalize_verify(problem, minimize(problem))
    assert result.exact_verified


def test_rationalize_dim3_solution_exact():
    problem = build_problem(make_b2_plus_line(), options=SolveOptions(seed=1))
    result = rationalize_verify(problem, minimize(problem))
    if result.exact_verified:
        ctx = YbeContext(problem.algebra, problem.u_r)
        assert yb_residual(ctx, result.rationalized).is_zero()
    else:
        # a float candidate that fails exact re-verification is preserved
        assert result.rationalized is None


def test_solve_with_denominators_past_float_range():
    # the admissible basis of ker r has common denominator q*s, whose square
    # is past the float range
    p, q, s = 10**99 + 7, 10**99 + 9, 10**99 + 13
    algebra = abelian(3, Vector([Fraction(1, p), Fraction(1, q), Fraction(1, s)]))
    problem = build_problem(algebra, options=SolveOptions(restarts=2))
    assert problem.parameter_dim == 1 and np.isfinite(problem.basis_float).all()
    assert rationalize_verify(problem, minimize(problem)).exact_verified


def test_rationalize_falls_back_to_a_later_converged_restart():
    # b2+heis3 at seed 1: the best restart's point admits no small-denominator
    # fit, a later converged restart's point does
    algebra = _direct_sum(make_b2(), make_heisenberg())
    problem = build_problem(algebra, options=SolveOptions(seed=1, restarts=4))
    result = minimize(problem)
    residuals = [res for _, res, _ in result.converged_restarts]
    assert len(residuals) > 1 and residuals == sorted(residuals)
    assert result.converged_restarts[0][1] == result.residual_norm
    verified = rationalize_verify(problem, result)
    assert verified.exact_verified
    assert not np.array_equal(verified.best_coords, result.best_coords)
    coords, res, trace = next(run for run in result.converged_restarts if run[0] is verified.best_coords)
    assert (verified.residual_norm, verified.trace) == (res, trace)
    assert np.allclose(verified.best_r_float, np.tensordot(coords, problem.basis_float, 1))
    assert yb_residual(YbeContext(algebra, problem.u_r), verified.rationalized).is_zero()
    assert verified.rationalized.is_skew()


# SHA-256 of the search arrays, the best coordinates and the certified
# tensors of the seeded requests below; a change to any float the search
# sees changes it.  Recorded when the zero tensor stopped being certified:
# six requests (ab3r and commutator(K[t]/(t^3)) with u_r = e1, b2+b2+b2 with
# u_r = 0, seeds 1-2) now certify nothing, and every other output is as
# before.
SOLVE_DIGEST = "944181b30cd5e831c5771cf67fd14a592024d829eee78645c40a18ee70aef033"


def test_solve_requests_byte_stable():
    algebras = [alg for alg in corpus_algebras() if skew_parameter_basis(alg)]
    algebras += [_direct_sum(*(make() for make in parts)) for parts in DIRECT_SUMS]
    digest = hashlib.sha256()
    for algebra in algebras:
        n = algebra.dim
        for u_r in (Vector.zero(n), Vector.unit(n, 0)):
            for seed in (1, 2):
                problem = build_problem(algebra, u_r, SolveOptions(seed=seed, restarts=4))
                for array in (problem.structure, problem.basis_float, problem.linear_basis):
                    digest.update(array.tobytes())
                result = minimize(problem)
                digest.update(result.best_coords.tobytes())
                if not result.converged:
                    continue
                verified = rationalize_verify(problem, result)
                # only a tensor certified from the best restart is hashed
                if verified.exact_verified and np.array_equal(verified.best_coords, result.best_coords):
                    digest.update(repr(verified.rationalized.entries.rows).encode())
    assert digest.hexdigest() == SOLVE_DIGEST


def test_solve_never_certifies_the_zero_tensor():
    # the solve benchmark's b2+b2+b2 requests at seed 1: most restarts
    # converge to points that round to zero at denominator 64
    algebra = _direct_sum(make_b2(), make_b2(), make_b2())
    certified = 0
    for k in range(16):
        problem = build_problem(algebra, options=SolveOptions(seed=16 + k, restarts=4))
        result = minimize(problem)
        if not result.converged:
            continue
        verified = rationalize_verify(problem, result)
        if verified.exact_verified:
            certified += 1
            assert not verified.rationalized.entries.is_zero()
            assert yb_residual(YbeContext(algebra, problem.u_r), verified.rationalized).is_zero()
        else:
            assert verified.rationalized is None
    assert certified
