from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie.errors import DimensionMismatch
from omegalie.linalg import Matrix, Subspace, Vector, nullspace, rat, rat_str, solve_linear

small_rat = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_rat, min_size=n, max_size=n), min_size=m, max_size=m
            ).map(Matrix)
        )
    )


def test_rat_parsing_and_rendering():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 2)) == "4"


def test_solve_identity():
    a = Matrix([[1, 0], [0, 1]])
    assert solve_linear(a, Vector([3, 4])) == Vector([3, 4])


def test_solve_free_variable_zeroed():
    assert solve_linear(Matrix([[1, 1]]), Vector([2])) == Vector([2, 0])


def test_solve_inconsistent():
    assert solve_linear(Matrix([[1], [1]]), Vector([0, 1])) is None


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear(Matrix([[1, 0]]), Vector([1, 2]))


def test_nullspace_zero_matrix_is_full():
    assert nullspace(Matrix([[0, 0]])) == Subspace.full(2)


def test_nullspace_single_pivot():
    assert nullspace(Matrix([[1, 0]])) == Subspace.from_vectors(2, [Vector([0, 1])])


def test_nullspace_dependent_rows_canonical():
    # x + y = 0 twice; canonical echelon basis is the normalized (1, -1)
    space = nullspace(Matrix([[1, 1], [2, 2]]))
    assert space.basis == (Vector([1, -1]),)


def test_intersect_axes():
    e1 = Subspace.from_vectors(2, [Vector([1, 0])])
    e2 = Subspace.from_vectors(2, [Vector([0, 1])])
    assert e1.intersect(e2).dim == 0


def test_intersect_with_full():
    s = Subspace.from_vectors(2, [Vector([1, 2])])
    assert Subspace.full(2).intersect(s) == s


def test_intersect_containment():
    big = Subspace.from_vectors(2, [Vector([1, 1]), Vector([1, 0])])
    small = Subspace.from_vectors(2, [Vector([1, 1])])
    assert big.intersect(small) == small


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solution_resubstitutes(a, data):
    m, n = a.shape
    x_true = Vector(data.draw(st.lists(small_rat, min_size=n, max_size=n)))
    b = a.apply(x_true)
    x = solve_linear(a, b)
    assert x is not None
    assert a.apply(x) == b


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(a):
    m, n = a.shape
    kernel = nullspace(a)
    assert a.rank() + kernel.dim == n
    for v in kernel.basis:
        assert a.apply(v).is_zero()


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_intersect_commutative_idempotent(data):
    n = data.draw(st.integers(1, 4))
    vecs = lambda: [
        Vector(data.draw(st.lists(small_rat, min_size=n, max_size=n)))
        for _ in range(data.draw(st.integers(0, n)))
    ]
    s1 = Subspace.from_vectors(n, vecs())
    s2 = Subspace.from_vectors(n, vecs())
    meet = s1.intersect(s2)
    assert meet == s2.intersect(s1)
    assert meet.intersect(meet) == meet
    assert s1.intersect(Subspace.full(n)) == s1
    assert s1.contains_subspace(meet) and s2.contains_subspace(meet)


def test_vector_matrix_arithmetic():
    v = Vector([1, 2])
    w = Vector(["1/2", -1])
    assert v + w == Vector([Fraction(3, 2), 1])
    assert Fraction(2) * v == Vector([2, 4])
    assert v.outer(w) == Matrix([["1/2", -1], [1, -2]])
    a = Matrix([[1, 2], [0, 1]])
    assert a.transpose() == Matrix([[1, 0], [2, 1]])


def test_immutability():
    v = Vector([1])
    with pytest.raises(AttributeError):
        v.entries = (Fraction(2),)
