"""Floating-point search for skew solutions of the twisted Yang-Baxter
equation, with exact rationalization and re-verification.

The search space is the span of the wedges W[a] ^ W[b] (a < b) of an
admissible-subspace basis W, so the component conditions and
skew-symmetry hold by construction and the objective is a plain quartic
least-squares problem in the span coordinates.  The search sees only the
float image of the wedges, built in numpy from the float image of W.
Exact tensors are built only when rationalizing: the rationalized
coordinates fill a skew matrix Q, and the candidate is W^T Q W on integer
numerators.  A float result never certifies anything: a candidate counts
as a solution only after its rationalization re-verifies to an
identically zero residual in the exact kernel.

The objective is a few matrix products.  The bilinear part of the residual
pairs the slots of two 2-tensors x, y through the structure constants c in
three ways.  For skew x and y, all three are signed placements of one core

    K(x, y)[i,j,p] = sum_ab x[i,a] y[b,j] c[a,b,p],

and the bilinear part at [i,j,k] is K[i,k,j] - K[i,j,k] - K[j,k,i]: the
first and third blocks contract a transposed x or y, which for a skew
tensor only flips a sign.  So the objective is valid only on skew
tensors, which every point of the search space is.  K(r, r) is two
matrix products.  The Jacobian column of the basis tensor B_s is the
placed K(B_s, r) + K(r, B_s), which for all P columns at once is two
(P*n x n) @ (n x n^2) products, plus the linear part of B_s, tabulated
once per problem as a (P, n, n, n) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebras import OmegaLieAlgebra, admissible_subspace
from .errors import DimensionMismatch, EmptyParameterSpace
from .linalg import Matrix, Vector, _int_matmul, _integer_numerators
from .yang_baxter import TwoTensor, YbeContext, _residual_numerators


@dataclass(frozen=True)
class SolveOptions:
    max_iterations: int = 500
    step_tolerance: float = 1e-12
    residual_tolerance: float = 1e-10
    restarts: int = 32
    seed: int = 1
    max_denominator: int = 64


def skew_parameter_basis(algebra: OmegaLieAlgebra) -> list[TwoTensor]:
    """Linearly independent skew tensors spanning the wedge square of the
    admissible subspace: (u_i v_j - v_i u_j) / den^2 from basis numerators."""
    w, den = _integer_numerators(admissible_subspace(algebra).basis)
    n, d2 = algebra.dim, den * den
    basis = []
    for a, u in enumerate(w):
        for v in w[a + 1 :]:
            rows = [[Fraction(u[i] * v[j] - v[i] * u[j], d2) for j in range(n)] for i in range(n)]
            basis.append(TwoTensor(n, Matrix(rows)))
    return basis


@dataclass(frozen=True)
class SolveProblem:
    """Search problem: algebra, fixed distinguished element, options, the
    admissible basis W (rows of integer numerators over one denominator)
    with the index pairs (a, b), a < b, of the wedges that span the search
    space, and the float image of everything the objective needs."""

    algebra: OmegaLieAlgebra
    u_r: Vector
    options: SolveOptions
    admissible: list
    admissible_den: int
    pairs: tuple
    structure: np.ndarray
    basis_float: np.ndarray
    linear_basis: np.ndarray

    @property
    def parameter_dim(self) -> int:
        return len(self.pairs)


def build_problem(
    algebra: OmegaLieAlgebra,
    u_r: Optional[Vector] = None,
    options: SolveOptions = SolveOptions(),
) -> SolveProblem:
    n = algebra.dim
    if u_r is None:
        u_r = Vector.zero(n)
    if len(u_r) != n:
        raise DimensionMismatch("distinguished element must live in the algebra")
    w, den = _integer_numerators(admissible_subspace(algebra).basis)
    first, second = np.triu_indices(len(w), 1)
    # int / int rounds the exact quotient, however large the common denominator
    w_float = np.array([[x / den for x in row] for row in w]).reshape(len(w), n)
    outer = w_float[first, :, None] * w_float[second, None, :]
    # adding 0.0 turns the -0.0 of a vanishing difference into 0.0
    basis_float = outer - outer.swapaxes(1, 2) + 0.0
    ints = algebra._ints
    structure = np.array([[x / ints.den for x in row] for row in ints.c]).reshape(n, n, n)
    linear_basis = _tensor_linear(np.array([float(c) for c in u_r]), basis_float)
    pairs = tuple(zip(first.tolist(), second.tolist()))
    return SolveProblem(algebra, u_r, options, w, den, pairs, structure, basis_float, linear_basis)


def _tensor_linear(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear part: the three placements of the distinguished element, for
    one tensor or a stack of them along the leading axis."""
    return 3.0 * (
        np.einsum("...ji,k->...ijk", x, u)
        + np.einsum("...ik,j->...ijk", x, u)
        + np.einsum("...kj,i->...ijk", x, u)
    )


def _place(core: np.ndarray) -> np.ndarray:
    """Bilinear part of the residual from its core K (the last three axes):
    K[i,k,j] - K[i,j,k] - K[j,k,i] at [i,j,k]."""
    return core.swapaxes(-1, -2) - core - core.swapaxes(-1, -3).swapaxes(-1, -2)


def _coords_to_tensor(problem: SolveProblem, coords: np.ndarray) -> np.ndarray:
    k, n, _ = problem.basis_float.shape
    return (coords @ problem.basis_float.reshape(k, n * n)).reshape(n, n)


def residual_tensor(problem: SolveProblem, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (problem.parameter_dim,):
        raise DimensionMismatch("coordinate vector has the wrong length")
    r = _coords_to_tensor(problem, coords)
    n = len(r)
    # K(r, r)[i,j,p] = sum_a r[i,a] (r^T c[a])[j,p]
    core = (r @ (r.T @ problem.structure).reshape(n, n * n)).reshape(n, n, n)
    linear = coords @ problem.linear_basis.reshape(len(coords), n**3)
    return _place(core) + linear.reshape(n, n, n)


def residual_norm_sq(problem: SolveProblem, coords: np.ndarray) -> float:
    t = residual_tensor(problem, coords)
    return float(np.sum(t * t))


def residual_jacobian(problem: SolveProblem, coords: np.ndarray) -> np.ndarray:
    """Jacobian of the flattened residual tensor with respect to coords.

    Column s is the derivative along the basis tensor B_s: the placed core
    K(B_s, r) + K(r, B_s) plus the linear part of B_s, all columns at once.
    """
    coords = np.asarray(coords, dtype=float)
    r = _coords_to_tensor(problem, coords)
    c, stack = problem.structure, problem.basis_float
    k, n = stack.shape[0], len(r)
    rows = stack.reshape(k * n, n)
    # K(B_s, r)[i,j,p] = sum_a B_s[i,a] (r^T c[a])[j,p]
    left = (rows @ (r.T @ c).reshape(n, n * n)).reshape(k, n, n, n)
    # K(r, B_s)[i,j,p] = sum_b B_s[b,j] (r c)[i,b,p] = -sum_b B_s[j,b] (r c)[i,b,p]
    rc = (r @ c.reshape(n, n * n)).reshape(n, n, n)
    right = (rows @ rc.swapaxes(0, 1).reshape(n, n * n)).reshape(k, n, n, n)
    core = left - right.swapaxes(1, 2)
    return (_place(core) + problem.linear_basis).reshape(k, n**3).T


def residual_gradient(problem: SolveProblem, coords: np.ndarray) -> np.ndarray:
    """Analytic gradient of the squared residual norm."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (problem.parameter_dim,):
        raise DimensionMismatch("coordinate vector has the wrong length")
    fvec = residual_tensor(problem, coords).ravel()
    jac = residual_jacobian(problem, coords)
    return 2.0 * (jac.T @ fvec)


@dataclass
class SolveResult:
    """The best restart's candidate, and every converged restart as
    ``(coords, residual_norm, trace)`` in the order (residual, then
    coordinates) in which they are rationalized."""

    best_coords: np.ndarray
    best_r_float: np.ndarray
    residual_norm: float
    converged: bool
    trace: list = field(default_factory=list)
    converged_restarts: list = field(default_factory=list)
    rationalized: Optional[TwoTensor] = None
    exact_verified: bool = False


def _single_start(problem: SolveProblem, x0: np.ndarray) -> tuple[np.ndarray, float, list]:
    """Damped Gauss-Newton with step-halving and gradient-descent fallback."""
    opts = problem.options
    x = np.array(x0, dtype=float)
    fvec = residual_tensor(problem, x).ravel()
    cost = float(fvec @ fvec)
    trace = [float(np.sqrt(cost))]
    damping = 1e-3
    for _ in range(opts.max_iterations):
        if np.sqrt(cost) < opts.residual_tolerance:
            break
        jac = residual_jacobian(problem, x)
        grad = 2.0 * (jac.T @ fvec)
        jtj = jac.T @ jac
        k = len(x)
        try:
            step = np.linalg.solve(jtj + damping * np.eye(k), -jac.T @ fvec)
        except np.linalg.LinAlgError:
            step = -grad

        def try_step(direction: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
            alpha = 1.0
            while alpha > 1e-14:
                cand = x + alpha * direction
                fc = residual_tensor(problem, cand).ravel()
                cc = float(fc @ fc)
                if cc < cost:
                    return cc, cand, fc, alpha
                alpha *= 0.5
            return cost, x, fvec, 0.0

        new_cost, new_x, new_fvec, alpha = try_step(step)
        if alpha == 0.0:
            new_cost, new_x, new_fvec, alpha = try_step(-grad)
            if alpha == 0.0:
                break
            damping = min(damping * 10.0, 1e6)
        else:
            damping = max(damping / 3.0, 1e-12)
        moved = float(np.linalg.norm(new_x - x))
        x, cost, fvec = new_x, new_cost, new_fvec
        trace.append(float(np.sqrt(cost)))
        if moved < opts.step_tolerance:
            break
    return x, float(np.sqrt(cost)), trace


def minimize(problem: SolveProblem) -> SolveResult:
    """Best candidate across seeded restarts; deterministic for a fixed seed.

    Restarts are ranked by a lexicographic key (residual, then coordinates)
    so concurrent execution orders cannot change the result.
    """
    if problem.parameter_dim < 1:
        raise EmptyParameterSpace(
            "admissible subspace carries no nonzero skew tensor to search over"
        )
    opts = problem.options
    rng = np.random.default_rng(opts.seed)
    starts = rng.uniform(-1.0, 1.0, size=(opts.restarts, problem.parameter_dim))
    runs = sorted((_single_start(problem, x0) for x0 in starts), key=lambda run: (run[1], tuple(run[0])))
    x, res, trace = runs[0]
    return SolveResult(
        best_coords=x,
        best_r_float=_coords_to_tensor(problem, x),
        residual_norm=res,
        converged=res < opts.residual_tolerance,
        trace=trace,
        converged_restarts=[run for run in runs if run[1] < opts.residual_tolerance],
    )


def _exact_tensor(problem: SolveProblem, coords: np.ndarray) -> TwoTensor:
    """W^T Q W for the skew matrix Q of the coordinates rationalized with
    the denominator bound, on integer numerators over one denominator."""
    bound = problem.options.max_denominator
    (q,), dq = _integer_numerators([[Fraction(float(c)).limit_denominator(bound) for c in coords]])
    w = problem.admissible
    skew = [[0] * len(w) for _ in w]
    for (a, b), x in zip(problem.pairs, q):
        skew[a][b], skew[b][a] = x, -x
    nums = _int_matmul([list(col) for col in zip(*w)], _int_matmul(skew, w))
    den = dq * problem.admissible_den**2
    return TwoTensor(problem.algebra.dim, Matrix([[Fraction(x, den) for x in row] for row in nums]))


def rationalize_verify(problem: SolveProblem, result: SolveResult) -> SolveResult:
    """Continued-fraction rationalization of each converged restart's
    coordinates with a denominator bound, then exact re-verification of the
    residual; the first restart that certifies is reported.

    ``exact_verified`` is set only when the exact tensor is nonzero (zero
    solves the equation for every u_r), its residual vanishes identically
    and it is exactly skew; then the coordinates, residual and trace are
    those of the certified restart.  Otherwise the best float candidate is
    preserved and no rationalization is reported.
    """
    if not result.converged:
        raise ValueError("only converged candidates are rationalized")
    ctx = YbeContext(problem.algebra, problem.u_r)
    for coords, res, trace in result.converged_restarts:
        exact = _exact_tensor(problem, coords)
        if exact.entries.is_zero():
            continue
        if not any(_residual_numerators(ctx, exact)[0]) and exact.is_skew():
            return replace(
                result,
                best_coords=coords,
                best_r_float=_coords_to_tensor(problem, coords),
                residual_norm=res,
                trace=trace,
                rationalized=exact,
                exact_verified=True,
            )
    return replace(result, rationalized=None, exact_verified=False)
