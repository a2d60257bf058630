"""Exact rational linear and multilinear algebra on small dense carriers.

Scalars are ``fractions.Fraction`` throughout, so every comparison made by
the checkers built on top of this module is an exact equality.  Dimensions
are tiny (algebras of dimension <= 8), hence dense storage and plain
Gaussian elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import DimensionMismatch

Rat = Fraction
Scalar = Union[Fraction, int, str]


def rat(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def _integer_numerators(rows: Iterable[Iterable[Fraction]]) -> tuple[list, int]:
    """Rows of rationals as rows of integer numerators over the least
    common denominator of all their entries.

    Returns ``(nums, den)`` with ``rows[i][j] == nums[i][j] / den``.  The
    exact sweeps compare two sides of an identity by scaling each side's
    numerators with the other side's denominator, and build Fractions again
    only for what they report or return.
    """
    rows = [list(row) for row in rows]
    den = lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den


def _matrix(flat: list, den: int, m: int) -> Matrix:
    """An m x m rational matrix from numerators flat in C order."""
    return Matrix([[Fraction(x, den) for x in flat[p * m : p * m + m]] for p in range(m)])


def _built(obj, view):
    """``obj``, built from the values of an integer view (an ``IntFamilies``
    or an ``IntTable``), keeping ``view`` as its integer view."""
    obj.__dict__["_ints"] = view
    return obj


def _int_matmul(a: list, b: list) -> list:
    """Product of two integer matrices given as row lists, skipping the
    zero entries of the left factor."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for s, coeff in enumerate(row):
            if coeff:
                acc = [x + coeff * y for x, y in zip(acc, b[s])]
        out.append(acc)
    return out


def _slot_action(cols: list, t: list, n: int, order: int) -> list:
    """Numerators of the derivation action of an integer operator, given by
    its columns, on every slot of a tensor of the given order flat in C
    order: A x for order 1, A X + X A^T for order 2."""
    out = [0] * len(t)
    strides = [n**s for s in range(order)]
    for idx, v in enumerate(t):
        if v:
            for stride in strides:
                p = idx // stride % n
                base = idx - p * stride
                for i, a in enumerate(cols[p]):
                    if a:
                        out[base + i * stride] += a * v
    return out


def rat_str(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Vector:
    """Immutable dense vector of rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(rat(e) for e in entries))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @staticmethod
    def zero(n: int) -> "Vector":
        return Vector([0] * n)

    @staticmethod
    def unit(n: int, i: int) -> "Vector":
        return Vector([1 if j == i else 0 for j in range(n)])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def _check_len(self, other: "Vector") -> None:
        if len(self) != len(other):
            raise DimensionMismatch(f"vector lengths {len(self)} and {len(other)} differ")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_len(other)
        return Vector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_len(other)
        return Vector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.entries)

    def scale(self, c: Scalar) -> "Vector":
        c = rat(c)
        return Vector(c * a for a in self.entries)

    __rmul__ = scale
    __mul__ = scale

    def dot(self, other: "Vector") -> Fraction:
        self._check_len(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def outer(self, other: "Vector") -> "Matrix":
        return Matrix([[a * b for b in other.entries] for a in self.entries])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(rat_str(a) for a in self.entries) + ")"


class Matrix:
    """Immutable dense matrix of rationals."""

    __slots__ = ("rows", "shape")

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        tup = tuple(tuple(rat(e) for e in row) for row in rows)
        if tup and any(len(row) != len(tup[0]) for row in tup):
            raise DimensionMismatch("ragged matrix rows")
        object.__setattr__(self, "rows", tup)
        object.__setattr__(self, "shape", (len(tup), len(tup[0]) if tup else 0))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(m: int, n: int) -> "Matrix":
        return Matrix([[0] * n for _ in range(m)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            return Matrix([])
        return Matrix([[col[i] for col in columns] for i in range(len(columns[0]))])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> Vector:
        return Vector(self.rows[i])

    def column(self, j: int) -> Vector:
        return Vector(row[j] for row in self.rows)

    def _check_shape(self, other: "Matrix") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes {self.shape} and {other.shape} differ")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "Matrix":
        return Matrix([-a for a in row] for row in self.rows)

    def scale(self, c: Scalar) -> "Matrix":
        c = rat(c)
        return Matrix([c * a for a in row] for row in self.rows)

    __rmul__ = scale

    def apply(self, v: Vector) -> Vector:
        """Matrix-vector product."""
        if self.shape[1] != len(v):
            raise DimensionMismatch(f"cannot apply {self.shape} to length-{len(v)} vector")
        return Vector(
            sum((a * b for a, b in zip(row, v.entries)), Fraction(0)) for row in self.rows
        )

    def transpose(self) -> "Matrix":
        m, n = self.shape
        return Matrix([[self.rows[i][j] for i in range(m)] for j in range(n)])

    def is_zero(self) -> bool:
        return all(a == 0 for row in self.rows for a in row)

    def is_symmetric(self) -> bool:
        m, n = self.shape
        return m == n and all(
            self.rows[i][j] == self.rows[j][i] for i in range(m) for j in range(i)
        )

    def rank(self) -> int:
        reduced, pivots = rref([list(row) for row in self.rows])
        return len(pivots)

    def __repr__(self) -> str:
        return "[" + "; ".join(", ".join(rat_str(a) for a in row) for row in self.rows) + "]"


def combine(mats: Sequence[Matrix], coeffs: Iterable[Fraction]) -> Matrix:
    """The linear combination sum_i coeffs[i] * mats[i], skipping zero
    coefficients: the image of a vector under a family of matrices indexed
    by a basis."""
    out = Matrix.zero(*mats[0].shape)
    for i, c in enumerate(coeffs):
        if c != 0:
            out = out + c * mats[i]
    return out


def pad(head: Vector, tail: Vector) -> Vector:
    """The vector (head, tail) of a direct sum."""
    return Vector(tuple(head) + tuple(tail))


class ThreeTensor:
    """Immutable order-3 tensor with all three slots of the same dimension."""

    __slots__ = ("dim", "entries")

    def __init__(self, entries: Iterable[Iterable[Iterable[Scalar]]]):
        tup = tuple(tuple(tuple(rat(e) for e in row) for row in plane) for plane in entries)
        n = len(tup)
        for plane in tup:
            if len(plane) != n or any(len(row) != n for row in plane):
                raise DimensionMismatch("three-tensor must be cubic")
        object.__setattr__(self, "entries", tup)
        object.__setattr__(self, "dim", n)

    def __setattr__(self, name, value):
        raise AttributeError("ThreeTensor is immutable")

    @staticmethod
    def zero(n: int) -> "ThreeTensor":
        return ThreeTensor([[[0] * n for _ in range(n)] for _ in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, ThreeTensor) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __getitem__(self, ijk) -> Fraction:
        i, j, k = ijk
        return self.entries[i][j][k]

    def _check_dim(self, other: "ThreeTensor") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"tensor dims {self.dim} and {other.dim} differ")

    def __add__(self, other: "ThreeTensor") -> "ThreeTensor":
        self._check_dim(other)
        n = self.dim
        return ThreeTensor(
            [
                [
                    [self.entries[i][j][k] + other.entries[i][j][k] for k in range(n)]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def __sub__(self, other: "ThreeTensor") -> "ThreeTensor":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "ThreeTensor":
        c = rat(c)
        return ThreeTensor(
            [[[c * e for e in row] for row in plane] for plane in self.entries]
        )

    __rmul__ = scale

    def cyclic_sum(self) -> "ThreeTensor":
        """Sum of this tensor over the three cyclic rotations of its slots."""
        n = self.dim
        t = self.entries
        return ThreeTensor(
            [
                [
                    [t[i][j][k] + t[j][k][i] + t[k][i][j] for k in range(n)]
                    for j in range(n)
                ]
                for i in range(n)
            ]
        )

    def is_zero(self) -> bool:
        return all(e == 0 for plane in self.entries for row in plane for e in row)

    def __repr__(self) -> str:
        nz = [
            ((i, j, k), rat_str(e))
            for i, plane in enumerate(self.entries)
            for j, row in enumerate(plane)
            for k, e in enumerate(row)
            if e != 0
        ]
        return f"ThreeTensor(dim={self.dim}, nonzero={nz})"


def rank_one(u: Vector, v: Vector, w: Vector) -> ThreeTensor:
    """The decomposable tensor with the three given slot vectors."""
    n = len(u)
    if len(v) != n or len(w) != n:
        raise DimensionMismatch("rank-one slots must share one dimension")
    return ThreeTensor(
        [[[u[i] * v[j] * w[k] for k in range(n)] for j in range(n)] for i in range(n)]
    )


def rref(rows: list) -> tuple[list, list]:
    """Reduced row echelon form with pivot-leftmost convention.

    Returns the reduced rows (zero rows dropped) and the pivot column list.
    Input rows are lists of Fractions; the input is not modified.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    pivots = []
    piv_r = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(piv_r, n_rows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[piv_r], m[pivot_row] = m[pivot_row], m[piv_r]
        inv = 1 / m[piv_r][col]
        m[piv_r] = [inv * e for e in m[piv_r]]
        for r in range(n_rows):
            if r != piv_r and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == n_rows:
            break
    return m[: len(pivots)], pivots


def solve_linear(a: Matrix, b: Vector):
    """One exact solution of ``a x = b``, or None when the system is
    inconsistent.

    Free variables are set to zero under the reduced-echelon pivot choice,
    so the returned particular solution is deterministic.
    """
    m, n = a.shape
    if len(b) != m:
        raise DimensionMismatch(f"system has {m} rows but rhs has length {len(b)}")
    augmented = [list(row) + [b[i]] for i, row in enumerate(a.rows)]
    if not augmented:
        return Vector.zero(n)
    reduced, pivots = rref(augmented)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = reduced[r][n]
    return Vector(x)


class Subspace:
    """Subspace of an ambient rational space, stored in canonical form.

    The basis is kept in reduced row echelon form, making equality of
    subspaces a syntactic comparison of bases.
    """

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, echelon_basis: tuple):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", echelon_basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @staticmethod
    def from_vectors(ambient: int, vectors: Iterable[Vector]) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise DimensionMismatch("spanning vector has wrong length")
            rows.append(list(v.entries))
        if not rows:
            return Subspace(ambient, ())
        reduced, _ = rref(rows)
        return Subspace(ambient, tuple(Vector(row) for row in reduced))

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace.from_vectors(ambient, [Vector.unit(ambient, i) for i in range(ambient)])

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def contains(self, v: Vector) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch("vector has wrong ambient dimension")
        residue = list(v.entries)
        for b in self.basis:
            lead = next(i for i, e in enumerate(b.entries) if e != 0)
            if residue[lead] != 0:
                factor = residue[lead]
                residue = [a - factor * c for a, c in zip(residue, b.entries)]
        return all(e == 0 for e in residue)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        if self.is_full():
            return other
        if other.is_full():
            return self
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # x in both spans iff x = sum a_i b_i = sum c_j d_j; solve for (a, c).
        columns = [b for b in self.basis] + [-d for d in other.basis]
        stacked = Matrix.from_columns(columns)
        coeffs = nullspace(stacked)
        vectors = []
        for coeff in coeffs.basis:
            x = Vector.zero(self.ambient)
            for i, b in enumerate(self.basis):
                x = x + coeff[i] * b
            vectors.append(x)
        return Subspace.from_vectors(self.ambient, vectors)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, basis={list(self.basis)})"


def nullspace(a: Matrix) -> Subspace:
    """Exact kernel of a matrix, with canonical echelon basis."""
    m, n = a.shape
    if m == 0 or n == 0:
        return Subspace.full(n)
    reduced, pivots = rref([list(row) for row in a.rows])
    free_cols = [j for j in range(n) if j not in pivots]
    vectors = []
    for j in free_cols:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][j]
        vectors.append(Vector(v))
    return Subspace.from_vectors(n, vectors)
