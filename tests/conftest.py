import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from omegalie.algebras import (
    LeftSymmetricAlgebra,
    OmegaLieAlgebra,
    abelian,
    left_symmetric,
    omega_lie,
)
from omegalie.linalg import Vector

FIXTURES = Path(__file__).parent / "fixtures"


def make_b2() -> OmegaLieAlgebra:
    return omega_lie(2, {(0, 1): [1, 0]}, r=[0, 0], label="b2")


def make_ax2() -> OmegaLieAlgebra:
    return omega_lie(2, {(0, 1): [1, 0]}, r=[1, 0], label="ax2")


def make_b2_plus_line() -> OmegaLieAlgebra:
    return omega_lie(3, {(0, 1): [1, 0, 0]}, r=[0, 0, 0], label="b2+line")


def make_heisenberg() -> OmegaLieAlgebra:
    return omega_lie(3, {(0, 1): [0, 0, 1]}, r=[0, 0, 0], label="heis3")


def make_b2_line_r3() -> OmegaLieAlgebra:
    # the form is supported on the central line, so the admissible subspace
    # is 2-dim while the distinguished element can have a nonzero form value
    return omega_lie(3, {(0, 1): [1, 0, 0]}, r=[0, 0, 1], label="b2+line-r3")


def make_e1_lsa() -> LeftSymmetricAlgebra:
    return left_symmetric(1, {(0, 0): [1]}, label="E1")


def make_nc2_lsa() -> LeftSymmetricAlgebra:
    return left_symmetric(2, {(0, 0): [1, 0], (0, 1): [0, 1]}, label="NC2")


def make_kt2_lsa() -> LeftSymmetricAlgebra:
    # truncated polynomial algebra on 1, t with t^2 = 0; commutative
    return left_symmetric(
        2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]}, label="K[t]/(t^2)"
    )


def make_kt3_lsa() -> LeftSymmetricAlgebra:
    # truncated polynomial algebra on 1, t, t^2 with t^3 = 0
    return left_symmetric(
        3,
        {
            (0, 0): [1, 0, 0],
            (0, 1): [0, 1, 0],
            (0, 2): [0, 0, 1],
            (1, 0): [0, 1, 0],
            (1, 1): [0, 0, 1],
            (2, 0): [0, 0, 1],
        },
        label="K[t]/(t^3)",
    )


def corpus_algebras() -> list:
    """Multiplicative algebras the cross-module properties quantify over."""
    from omegalie.operators import omega_lie_from_lsa

    out = [
        make_b2(),
        make_ax2(),
        abelian(1, Vector([0]), label="ab1"),
        abelian(1, Vector([1]), label="ab1r"),
        abelian(2, Vector([0, 0]), label="ab2"),
        abelian(2, Vector([1, 0]), label="ab2r"),
        abelian(3, Vector([1, 0, 0]), label="ab3r"),
        make_b2_plus_line(),
        make_heisenberg(),
        make_b2_line_r3(),
    ]
    for lsa in (make_e1_lsa(), make_nc2_lsa(), make_kt2_lsa(), make_kt3_lsa()):
        out.append(omega_lie_from_lsa(lsa, 1))
    return out


def corpus_lsas() -> list:
    return [make_e1_lsa(), make_nc2_lsa(), make_kt2_lsa(), make_kt3_lsa()]


@pytest.fixture
def b2():
    return make_b2()


@pytest.fixture
def ax2():
    return make_ax2()


@pytest.fixture
def corpus():
    return corpus_algebras()


def raw_table(algebra) -> list:
    """Structure constants as raw nested Fraction lists for the oracles."""
    n = algebra.dim
    return [[[algebra.table[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]


def raw_omega(algebra) -> list:
    n = algebra.dim
    return [[algebra.omega_basis(i, j) for j in range(n)] for i in range(n)]


def rational_entry(rng, den) -> Fraction:
    """p or p/den with |p| <= 6; tests give each table its own den."""
    return Fraction(rng.randint(-6, 6), rng.choice((1, den)))


def rational_matrix(rng, n, den) -> list:
    return [[rational_entry(rng, den) for _ in range(n)] for _ in range(n)]


def rational_raw_tensor(rng, n, den) -> list:
    return [rational_matrix(rng, n, den) for _ in range(n)]


def antisymmetrize(raw) -> list:
    """Overwrite the lower triangle and diagonal of a raw table so that
    c[j][i] = -c[i][j]."""
    n = len(raw)
    for i in range(n):
        raw[i][i] = [Fraction(0)] * n
        for j in range(i):
            raw[i][j] = [-x for x in raw[j][i]]
    return raw


def vectors_from_raw(raw) -> list:
    n = len(raw)
    return [[Vector(raw[i][j]) for j in range(n)] for i in range(n)]
