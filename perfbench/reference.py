"""Reference evaluators the benchmark checks outputs against.

Like tests/oracles.py, these use raw nested lists of ``Fraction`` and
explicit index loops, and import nothing from the package under test.
They cover what tests/oracles.py does not: the two solution conditions,
skewness, the pullback of a linear form through a bracket table, and the
objects the package constructs (the operator pairs of a dual pair, the
bracket of its double, the dual structure read off a two-tensor, and the
lift of an operator), each written out from its defining formula.

A bracket table ``c`` has ``c[i][j][k]``, the coefficient of e_k in
[e_i, e_j]; a matrix ``m`` acting on coordinates has ``m[row][col]``.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)


def as_tuples(t):
    """Nested lists to the nested tuples the package stores entries in."""
    if isinstance(t, (list, tuple)):
        return tuple(as_tuples(x) for x in t)
    return t


def pullback(c: list, r: list) -> list:
    """omega[i][j] = r([e_i, e_j]) for a raw bracket table."""
    n = len(c)
    return [[sum((r[k] * c[i][j][k] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]


def is_skew(t) -> bool:
    n = len(t)
    return all(t[i][j] == -t[j][i] for i in range(n) for j in range(n))


def is_zero(t) -> bool:
    if isinstance(t, (list, tuple)):
        return all(is_zero(x) for x in t)
    return t == 0


def solution_condition_indices(c: list, rmat: list, residual: list) -> tuple[set, set]:
    """Basis indices x violating each solution condition (distinguished
    element zero): ad_x S + S ad_x^T != 0 for the symmetrized tensor S, and
    the slot-wise action of ad_x on the quadratic residual being nonzero."""
    n = len(c)
    sym = [[rmat[i][j] + rmat[j][i] for j in range(n)] for i in range(n)]
    cond_i, cond_ii = set(), set()
    for x in range(n):
        # a[i][p]: coefficient of e_i in [e_x, e_p]
        a = [[c[x][p][i] for p in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                moved = sum((a[i][p] * sym[p][j] + sym[i][p] * a[j][p] for p in range(n)), ZERO)
                if moved:
                    cond_i.add((x,))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acted = ZERO
                    for p in range(n):
                        acted += (
                            a[i][p] * residual[p][j][k]
                            + a[j][p] * residual[i][p][k]
                            + a[k][p] * residual[i][j][p]
                        )
                    if acted:
                        cond_ii.add((x,))
    return cond_i, cond_ii


def _delta(i: int, j: int) -> Fraction:
    return Fraction(1) if i == j else ZERO


def dual_actions(c: list, r: list) -> tuple[list, list]:
    """Matrices (rho1_i, rho2_i) by which basis element e_i acts on the dual
    space: the negated transposes of ad_i = [e_i, .] and of
    ad_i + e_i r(.), each shifted by 2 r_i times the identity."""
    n = len(c)
    rho1, rho2 = [], []
    for i in range(n):
        # ad_i^T[k][j] = ad_i[j][k] = coefficient of e_j in [e_i, e_k]
        rho1.append([[-c[i][k][j] + 2 * r[i] * _delta(k, j) for j in range(n)] for k in range(n)])
        rho2.append(
            [[-c[i][k][j] - _delta(j, i) * r[k] + 2 * r[i] * _delta(k, j) for j in range(n)] for k in range(n)]
        )
    return rho1, rho2


def double_table(c: list, r: list, cs: list, u: list) -> tuple[list, list]:
    """Bracket table and linear form of the double on L + L*: e_i, i < n,
    span L (bracket c, form r) and f_b = e_{n+b} span L* (bracket cs, form
    u).  [e_i, f_b] has L-part -pi2_b e_i and L*-part rho1_i f_b - delta_ib r,
    with (rho1, rho2) the actions of L on L* and (pi1, pi2) those of L* on L."""
    n = len(c)
    rho1, rho2 = dual_actions(c, r)
    pi1, pi2 = dual_actions(cs, u)
    table = [[[ZERO] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            table[i][j] = list(c[i][j]) + [ZERO] * n
            table[n + i][n + j] = [ZERO] * n + list(cs[i][j])
    for i in range(n):
        for b in range(n):
            head = [-pi2[b][k][i] for k in range(n)]
            tail = [rho1[i][k][b] - _delta(i, b) * r[k] for k in range(n)]
            table[i][n + b] = head + tail
            head = [pi1[b][k][i] - _delta(i, b) * u[k] for k in range(n)]
            tail = [-rho2[i][k][b] for k in range(n)]
            table[n + b][i] = head + tail
    return table, list(r) + list(u)


def dual_from_r(c: list, t: list, u: list) -> list:
    """Bracket table on the dual space induced by the two-tensor t with
    distinguished element u: [f_i, f_j] has f_m-coefficient
    D_m[i][j] - delta_im u_j + 2 delta_jm u_i, where
    D_m = ad_m t + t ad_m^T - 2 e_m u^T + u e_m^T."""
    n = len(c)
    out = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                v = ZERO
                for p in range(n):
                    # ad_m[i][p] = coefficient of e_i in [e_m, e_p]
                    v += c[m][p][i] * t[p][j] + t[i][p] * c[m][p][j]
                v += -2 * _delta(i, m) * u[j] + u[i] * _delta(j, m)
                out[i][j][m] = v - _delta(i, m) * u[j] + 2 * _delta(j, m) * u[i]
    return out


def lift(c: list, r: list, rho: list, t: list) -> tuple[list, list, list]:
    """An operator t from the carrier V of a representation rho of L into L,
    lifted to the semidirect product of L with the dual carrier V*: the
    bracket table and linear form of L + V* (with L acting on V* by
    -rho_i^T + 2 r_i), and the skew two-tensor with t in the L x V* block."""
    n, m = len(c), len(t[0])
    total = n + m
    table = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            table[i][j] = list(c[i][j]) + [ZERO] * m
        for b in range(m):
            action = [-rho[i][b][k] + 2 * r[i] * _delta(k, b) for k in range(m)]
            table[i][n + b] = [ZERO] * n + action
            table[n + b][i] = [ZERO] * n + [-a for a in action]
    tensor = [[ZERO] * total for _ in range(total)]
    for i in range(n):
        for b in range(m):
            tensor[i][n + b] = t[i][b]
            tensor[n + b][i] = -t[i][b]
    return table, list(r) + [ZERO] * m, tensor
