"""Independent brute-force evaluators used as oracles by the test suite.

Everything here works on raw nested lists of Fractions with explicit index
loops and no imports from the package under test, so agreement between a
checker and its oracle is evidence, not circularity.
"""

from fractions import Fraction
from math import lcm


def bracket_vec(c, x, y):
    """[x, y] from structure constants c[i][j][k], raw lists."""
    n = len(c)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            coeff = x[i] * y[j]
            if coeff:
                for k in range(n):
                    out[k] += coeff * c[i][j][k]
    return out


def _anti_violations(c):
    """Unordered index pairs where c[i][j] != -c[j][i], raw lists."""
    n = len(c)
    return {
        (min(i, j), max(i, j))
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if c[i][j][k] != -c[j][i][k]
    }


def _nested(c1, c2):
    """nested[i][j][k][t]: the e_t coefficient of [[e_i, e_j]_1, e_k]_2, the
    sum over s of c1[i][j][s] c2[s][k][t]."""
    n = len(c1)
    out = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for s in range(n):
                coeff = c1[i][j][s]
                if coeff:
                    for k in range(n):
                        row, src = out[i][j][k], c2[s][k]
                        for t in range(n):
                            row[t] += coeff * src[t]
    return out


def _jacobi_violations(c1, c2, omega):
    """Triples where [[e_i, e_j]_1, e_k]_2 + cyclic differs from
    omega[i][j] e_k + cyclic, raw lists."""
    n = len(c1)
    nested = _nested(c1, c2)
    jac = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = [
                    a + b + c
                    for a, b, c in zip(nested[i][j][k], nested[j][k][i], nested[k][i][j])
                ]
                rhs = [Fraction(0)] * n
                rhs[k] += omega[i][j]
                rhs[i] += omega[j][k]
                rhs[j] += omega[k][i]
                if lhs != rhs:
                    jac.add((i, j, k))
    return jac


def omega_lie_violations(c, omega):
    """Anticommutativity and twisted-Jacobi violations for raw tables.

    omega[i][j] is the twist on basis pairs (already pulled back through r
    when applicable).  Returns two sets of index tuples.
    """
    return _anti_violations(c), _jacobi_violations(c, c, omega)


def generalized_violations(c1, c2, r):
    n = len(c1)
    pulled = [
        [sum((a * b for a, b in zip(r, c1[i][j])), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]
    return _anti_violations(c1), _jacobi_violations(c1, c2, pulled)


def lsa_violations(a, omega):
    """Twisted left-symmetry violations for a raw product table: the
    associator (e_i e_j) e_k - e_i (e_j e_k) minus its (j, i, k) value
    against omega[i][j] e_k."""
    n = len(a)
    # left[i][j][k] = (e_i e_j) e_k; right[i][j][k] = e_i (e_j e_k), the sum
    # over s of a[j][k][s] a[i][s][t]
    left = _nested(a, a)
    right = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = right[i][j][k]
                for s in range(n):
                    coeff = a[j][k][s]
                    if coeff:
                        for t in range(n):
                            row[t] += coeff * a[i][s][t]
    bad = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = [
                    w - x - y + z
                    for w, x, y, z in zip(left[i][j][k], right[i][j][k], left[j][i][k], right[j][i][k])
                ]
                res[k] -= omega[i][j]
                if any(res):
                    bad.add((i, j, k))
    return bad


def classical_cybe(c, rmat):
    """Classical quadratic residual of a two-tensor, raw loops.

    For each output index p, with C_p the matrix c[.][.][p] and R = rmat,
    the three slots hold R^T C_p R, R C_p R and R C_p R^T.  One index is
    contracted at a time, on integer numerators over one denominator per
    input, skipping zero structure constants.
    """
    n = len(c)
    dc = lcm(*(x.denominator for plane in c for row in plane for x in row))
    dr = lcm(*(x.denominator for row in rmat for x in row))
    cn = [[[x.numerator * (dc // x.denominator) for x in row] for row in plane] for plane in c]
    rn = [[x.numerator * (dr // x.denominator) for x in row] for row in rmat]
    out = [[[0] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        left = [[0] * n for _ in range(n)]  # (R^T C_p)[x][b] = sum_a r[a][x] c[a][b][p]
        mid = [[0] * n for _ in range(n)]  # (R C_p)[x][b] = sum_a r[x][a] c[a][b][p]
        for a in range(n):
            for b in range(n):
                cab = cn[a][b][p]
                if cab:
                    for x in range(n):
                        left[x][b] += rn[a][x] * cab
                        mid[x][b] += rn[x][a] * cab
        for i in range(n):
            for j in range(n):
                out[p][i][j] += sum(left[i][b] * rn[b][j] for b in range(n))
                out[i][p][j] += sum(mid[i][b] * rn[b][j] for b in range(n))
                out[i][j][p] += sum(mid[i][b] * rn[j][b] for b in range(n))
    den = dc * dr * dr
    return [[[Fraction(v, den) for v in row] for row in plane] for plane in out]


def classical_semidirect(c, rho):
    """Classical semidirect bracket table for a Lie algebra acting through
    rho (one raw matrix per basis element) on a carrier."""
    n = len(c)
    m = len(rho[0])
    total = n + m
    table = [[[Fraction(0)] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table[i][j][k] = c[i][j][k]
    for i in range(n):
        for b in range(m):
            for p in range(m):
                table[i][n + b][n + p] = rho[i][p][b]
                table[n + b][i][n + p] = -rho[i][p][b]
    return table


def classical_cocycle_holds(c, cstar):
    """Untwisted compatibility: the map dual to the second bracket must be a
    derivation-style cocycle for the first.  Raw loops, no package imports.
    """
    n = len(c)
    # delta[k][i][j]: coefficient of e_i (x) e_j in the image of e_k
    delta = [[[cstar[i][j][k] for j in range(n)] for i in range(n)] for k in range(n)]

    def ad(x):
        return [[c[x][q][p] for q in range(n)] for p in range(n)]

    for x in range(n):
        for y in range(n):
            lhs = [[Fraction(0)] * n for _ in range(n)]
            for k in range(n):
                coeff = c[x][y][k]
                if coeff:
                    for i in range(n):
                        for j in range(n):
                            lhs[i][j] += coeff * delta[k][i][j]
            rhs = [[Fraction(0)] * n for _ in range(n)]
            ax, ay = ad(x), ad(y)
            for i in range(n):
                for j in range(n):
                    acc = Fraction(0)
                    for p in range(n):
                        acc += ax[i][p] * delta[y][p][j] + ax[j][p] * delta[y][i][p]
                        acc -= ay[i][p] * delta[x][p][j] + ay[j][p] * delta[x][i][p]
                    rhs[i][j] = acc
            if lhs != rhs:
                return False
    return True


def jacobiator_table(c):
    """All twisted-Jacobi left sides, indexed [i][j][k][t], raw loops."""
    n = len(c)
    unit = lambda t: [Fraction(1) if s == t else Fraction(0) for s in range(n)]
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bracket_vec(c, c[i][j], unit(k))
                mid = bracket_vec(c, c[j][k], unit(i))
                rgt = bracket_vec(c, c[k][i], unit(j))
                out[(i, j, k)] = [lhs[t] + mid[t] + rgt[t] for t in range(n)]
    return out


def twisted_jacobi_sides(c1, c2, twist):
    """Both sides of [[e_i, e_j]_1, e_k]_2 + cyclic = twist[i][j] e_k + cyclic
    at every basis triple where they differ, keyed by (i, j, k)."""
    n = len(c1)
    unit = lambda t: [Fraction(1) if s == t else Fraction(0) for s in range(n)]
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = bracket_vec(c2, c1[i][j], unit(k))
                mid = bracket_vec(c2, c1[j][k], unit(i))
                rgt = bracket_vec(c2, c1[k][i], unit(j))
                lhs = [lhs[t] + mid[t] + rgt[t] for t in range(n)]
                rhs = [Fraction(0)] * n
                rhs[k] += twist[i][j]
                rhs[i] += twist[j][k]
                rhs[j] += twist[k][i]
                if lhs != rhs:
                    out[(i, j, k)] = (lhs, rhs)
    return out


def lsa_sides(a, omega):
    """Both sides of twisted left-symmetry, (e_i e_j) e_k - e_i (e_j e_k)
    - (e_j e_i) e_k + e_j (e_i e_k) = omega[i][j] e_k, where they differ."""
    n = len(a)
    unit = lambda t: [Fraction(1) if s == t else Fraction(0) for s in range(n)]
    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = bracket_vec(a, a[i][j], unit(k))
                t2 = bracket_vec(a, unit(i), a[j][k])
                t3 = bracket_vec(a, a[j][i], unit(k))
                t4 = bracket_vec(a, unit(j), a[i][k])
                lhs = [t1[t] - t2[t] - t3[t] + t4[t] for t in range(n)]
                rhs = [omega[i][j] if t == k else Fraction(0) for t in range(n)]
                if lhs != rhs:
                    out[(i, j, k)] = (lhs, rhs)
    return out


def residual_unit_terms(rmat, u):
    """Distinguished-element part of the twisted residual: for each piece
    r^{pq} x (x) y of the tensor (x = e_p, y = e_q), three times
    y (x) x (x) u + x (x) u (x) y + u (x) y (x) x, as raw triple products."""
    n = len(u)
    unit = lambda t: [Fraction(1) if s == t else Fraction(0) for s in range(n)]
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            x, y = unit(p), unit(q)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        out[i][j][k] += 3 * rmat[p][q] * (
                            y[i] * x[j] * u[k] + x[i] * u[j] * y[k] + u[i] * y[j] * x[k]
                        )
    return out


def solution_condition_failures(c, rmat, residual):
    """Basis indices x where ad_x s + s ad_x^T is nonzero (s the symmetrized
    tensor), and where the slot-wise action of ad_x on the residual is
    nonzero; ad_x has entries ad_x[i][p] = c[x][p][i]."""
    n = len(c)
    sym = [[rmat[i][j] + rmat[j][i] for j in range(n)] for i in range(n)]
    moved, acted = set(), set()
    for x in range(n):
        ad = [[c[x][p][i] for p in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(n):
                val = sum(
                    (ad[i][p] * sym[p][j] + sym[i][p] * ad[j][p] for p in range(n)),
                    Fraction(0),
                )
                if val:
                    moved.add(x)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    val = Fraction(0)
                    for p in range(n):
                        val += ad[i][p] * residual[p][j][k]
                        val += ad[j][p] * residual[i][p][k]
                        val += ad[k][p] * residual[i][j][p]
                    if val:
                        acted.add(x)
    return moved, acted


def invariant_form_sides(c, gram, r):
    """Both sides of B([e_i, e_j], e_k) = B(e_i, [e_j, e_k]) - 2 r_j B(e_i, e_k)
    + r_i B(e_j, e_k) + r_k B(e_i, e_j), B(x, y) = x^T gram y, where they
    differ."""
    n = len(c)
    unit = lambda t: [Fraction(1) if s == t else Fraction(0) for s in range(n)]

    def form(x, y):
        return sum(
            (x[a] * gram[a][b] * y[b] for a in range(n) for b in range(n)), Fraction(0)
        )

    out = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei, ej, ek = unit(i), unit(j), unit(k)
                lhs = form(c[i][j], ek)
                rhs = (
                    form(ei, c[j][k])
                    - 2 * r[j] * form(ei, ek)
                    + r[i] * form(ej, ek)
                    + r[k] * form(ei, ej)
                )
                if lhs != rhs:
                    out[(i, j, k)] = (lhs, rhs)
    return out


def matmul(a, b):
    """Product of two raw matrices."""
    return [
        [sum((a[p][s] * b[s][q] for s in range(len(b))), Fraction(0)) for q in range(len(b[0]))]
        for p in range(len(a))
    ]


def adjoint(c, i):
    """Matrix of y -> [e_i, y] from structure constants c, raw lists: entry
    (k, j) is the e_k coefficient of [e_i, e_j]."""
    n = len(c)
    return [[c[i][j][k] for j in range(n)] for k in range(n)]


def rep_identity_sides(c, twist, rho1, rho2, r=None):
    """Both sides of a representation-type identity on basis pairs, where
    they differ.  rho1, rho2 hold one raw carrier matrix per basis element.

    Without r, the first kind: rho1([e_i, e_j]) = rho2_i rho1_j - rho2_j rho1_i
    + twist[i][j] id (a representation when rho1 = rho2).  With r, the second
    kind: rho1([e_i, e_j]) = rho1_i rho2_j - rho1_j rho2_i + twist[i][j] id
    + 2 r_i rho1_j - 2 r_j rho1_i - 2 r_i rho2_j + 2 r_j rho2_i.
    """
    n, m = len(c), len(rho1[0])
    out = {}
    for i in range(n):
        for j in range(n):
            lhs = [
                [sum((c[i][j][k] * rho1[k][p][q] for k in range(n)), Fraction(0))
                 for q in range(m)]
                for p in range(m)
            ]
            if r is None:
                ab, ba = matmul(rho2[i], rho1[j]), matmul(rho2[j], rho1[i])
            else:
                ab, ba = matmul(rho1[i], rho2[j]), matmul(rho1[j], rho2[i])
            rhs = [[ab[p][q] - ba[p][q] for q in range(m)] for p in range(m)]
            for p in range(m):
                rhs[p][p] += twist[i][j]
            if r is not None:
                corr = second_kind_correction(r, rho1, rho2, i, j)
                rhs = [[rhs[p][q] + corr[p][q] for q in range(m)] for p in range(m)]
            if lhs != rhs:
                out[(i, j)] = (lhs, rhs)
    return out


def second_kind_correction(r, rho1, rho2, i, j):
    """2 r_i rho1_j - 2 r_j rho1_i - 2 r_i rho2_j + 2 r_j rho2_i, raw."""
    m = len(rho1[0])
    return [
        [
            2 * r[i] * rho1[j][p][q]
            - 2 * r[j] * rho1[i][p][q]
            - 2 * r[i] * rho2[j][p][q]
            + 2 * r[j] * rho2[i][p][q]
            for q in range(m)
        ]
        for p in range(m)
    ]


def f_identity_sides(c, r, rho1, rho2, f):
    """Both sides of f([e_i, e_j]) = the second-kind correction, where they
    differ."""
    n, m = len(c), len(rho1[0])
    out = {}
    for i in range(n):
        for j in range(n):
            lhs = [
                [sum((c[i][j][k] * f[k][p][q] for k in range(n)), Fraction(0))
                 for q in range(m)]
                for p in range(m)
            ]
            rhs = second_kind_correction(r, rho1, rho2, i, j)
            if lhs != rhs:
                out[(i, j)] = (lhs, rhs)
    return out


def rho2_from_rho1_sides(r, rho1, rho2):
    """Both sides of rho2_i e_k = rho1_i e_k - delta_ik r (columns of the raw
    matrices), where they differ."""
    n = len(rho1)
    out = {}
    for i in range(n):
        for k in range(n):
            lhs = [rho2[i][p][k] for p in range(n)]
            rhs = [rho1[i][p][k] - (r[p] if k == i else 0) for p in range(n)]
            if lhs != rhs:
                out[(i, k)] = (lhs, rhs)
    return out


def transport_sides(c, r, rho, t):
    """Both sides of the operator transport identity on carrier basis pairs
    (a, b), a-major, where they differ:
    [T e_a, T e_b] = T(rho(T e_a) e_b - rho(T e_b) e_a) + 2 r(T e_b) T e_a
    - 2 r(T e_a) T e_b.  t is the raw n x m operator, rho one raw m x m
    matrix per algebra basis element."""
    n, m = len(c), len(rho[0])
    dot = lambda x, y: sum((p * q for p, q in zip(x, y)), Fraction(0))
    cols = [[t[i][a] for i in range(n)] for a in range(m)]

    def act(x, b):
        """rho(x) e_b."""
        return [sum((x[i] * rho[i][p][b] for i in range(n)), Fraction(0)) for p in range(m)]

    out = {}
    for a in range(m):
        for b in range(m):
            tu, tv = cols[a], cols[b]
            lhs = bracket_vec(c, tu, tv)
            inner = [x - y for x, y in zip(act(tu, b), act(tv, a))]
            ru, rv = dot(r, tu), dot(r, tv)
            rhs = [dot(t[k], inner) + 2 * rv * tu[k] - 2 * ru * tv[k] for k in range(n)]
            if lhs != rhs:
                out[(a, b)] = (lhs, rhs)
    return out


def matched_pair_residuals(c, cs, r, u, rho1, rho2, pi1, pi2):
    """Nonzero residuals of the four matched-pair conditions, per clause in
    loop order, as lists of (indices, residual).  c, r are the algebra's
    table and form, cs, u the dual's; rho1, rho2 act on the dual and pi1, pi2
    on the algebra, one raw matrix per basis element.  Each condition is
    written out in full; the package evaluates the last two as the first two
    on the swapped pair."""
    n = len(c)
    unit = lambda t: [Fraction(1) if s == t else Fraction(0) for s in range(n)]
    col = lambda mat, k: [mat[p][k] for p in range(n)]
    apply = lambda mat, v: [sum((mat[p][q] * v[q] for q in range(n)), Fraction(0)) for p in range(n)]
    dot = lambda x, y: sum((a * b for a, b in zip(x, y)), Fraction(0))

    def along(fam, coeffs, t):
        """Column t of sum_s coeffs[s] fam[s]."""
        return [sum((coeffs[s] * fam[s][p][t] for s in range(n)), Fraction(0)) for p in range(n)]

    def total(*terms):
        """Sum of (scalar, vector) terms."""
        return [sum((s * v[p] for s, v in terms), Fraction(0)) for p in range(n)]

    out = {name: [] for name in (
        "mixed-derivation-on-algebra",
        "dual-bracket-pairing-with-u",
        "mixed-derivation-on-dual",
        "form-compatibility",
    )}
    cube = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    for w, i, j in cube:
        ei, ej = unit(i), unit(j)
        rho2_i_w, rho2_j_w = col(rho2[i], w), col(rho2[j], w)
        pi2_w_i, pi2_w_j = col(pi2[w], i), col(pi2[w], j)
        res = total(
            (1, apply(pi2[w], c[i][j])),
            (-1, bracket_vec(c, pi2_w_i, ej)),
            (-1, bracket_vec(c, ei, pi2_w_j)),
            (-1, along(pi1, rho2_j_w, i)),
            (1, along(pi1, rho2_i_w, j)),
            (-rho2_i_w[j], u),
            (rho2_j_w[i], u),
            (-dot(r, pi2_w_j), ei),
            (dot(r, pi2_w_i), ej),
            (-dot(rho2_i_w, u), ej),
            (dot(rho2_j_w, u), ei),
        )
        if any(res):
            out["mixed-derivation-on-algebra"].append(((w, i, j), res))
    for a, b, k in cube:
        pi2_b_k, pi2_a_k = col(pi2[b], k), col(pi2[a], k)
        res = total(
            (cs[b][a][k], u),
            (-2 * u[a], pi2_b_k),
            (-2 * u[b], col(pi1[a], k)),
            (2 * u[a], col(pi1[b], k)),
            (2 * u[b], pi2_a_k),
            (pi2_b_k[a], u),
            (-pi2_a_k[b], u),
        )
        if any(res):
            out["dual-bracket-pairing-with-u"].append(((a, b, k), res))
    for k, a, b in cube:
        ea, eb = unit(a), unit(b)
        pi2_a_k, pi2_b_k = col(pi2[a], k), col(pi2[b], k)
        rho2_k_a, rho2_k_b = col(rho2[k], a), col(rho2[k], b)
        res = total(
            (1, apply(rho2[k], cs[a][b])),
            (-1, bracket_vec(cs, rho2_k_a, eb)),
            (-1, bracket_vec(cs, ea, rho2_k_b)),
            (-1, along(rho1, pi2_b_k, a)),
            (1, along(rho1, pi2_a_k, b)),
            (-pi2_a_k[b], r),
            (pi2_b_k[a], r),
            (-dot(rho2_k_b, u), ea),
            (dot(rho2_k_a, u), eb),
            (-dot(r, pi2_a_k), eb),
            (dot(r, pi2_b_k), ea),
        )
        if any(res):
            out["mixed-derivation-on-dual"].append(((k, a, b), res))
    for w, i, j in cube:
        rho2_i_w, rho2_j_w = col(rho2[i], w), col(rho2[j], w)
        res = total(
            (c[j][i][w], r),
            (-2 * r[i], rho2_j_w),
            (-2 * r[j], col(rho1[i], w)),
            (2 * r[i], col(rho1[j], w)),
            (2 * r[j], rho2_i_w),
            (rho2_j_w[i], r),
            (-rho2_i_w[j], r),
        )
        if any(res):
            out["form-compatibility"].append(((w, i, j), res))
    return out
