"""Result checks in the benchmark's own exact arithmetic.

Nothing here imports logmonoid: the checks must hold whatever the package
computes.  All arithmetic is on Python ints and Fractions.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd


def det(rows):
    """Determinant of a small square integer matrix (Laplace expansion)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(n) if rows[0][j])


def minors_gcd(vectors):
    """gcd of the maximal minors of the matrix whose rows are the vectors.

    0 exactly when the vectors are linearly dependent; 1 exactly when they
    are a basis of the lattice points of their span (a regular cone).
    """
    k, d = len(vectors), len(vectors[0])
    if k > d:
        return 0
    g = 0
    for cols in combinations(range(d), k):
        g = gcd(g, det([[v[c] for c in cols] for v in vectors]))
        if g == 1:
            return 1
    return g


def _solve(vectors, target):
    """The coefficients writing ``target`` in linearly independent
    ``vectors`` (Cramer on a nonzero maximal minor), or None."""
    k, d = len(vectors), len(target)
    for rows in combinations(range(d), k):
        m = [[v[r] for v in vectors] for r in rows]
        denom = det(m)
        if denom:
            break
    else:
        return None
    lam = []
    for i in range(k):
        mi = [row[:i] + [target[r]] + row[i + 1:] for row, r in zip(m, rows)]
        lam.append(Fraction(det(mi), denom))
    for c in range(d):
        if sum(x * v[c] for x, v in zip(lam, vectors)) != target[c]:
            return None
    return lam


def in_cone(rays, v):
    """Whether v is a nonnegative combination of the rays.

    By Caratheodory it suffices to try the linearly independent subsets.
    """
    if not any(v):
        return True
    rays = [tuple(r) for r in rays]
    for k in range(1, min(len(rays), len(v)) + 1):
        for sub in combinations(rays, k):
            if minors_gcd(list(sub)) == 0:
                continue
            lam = _solve(list(sub), tuple(v))
            if lam is not None and all(x >= 0 for x in lam):
                return True
    return False


def hj_hilbert_basis(m, q):
    """Hilbert basis of the cone spanned by (0,1) and (m,-q), 0 < q < m
    coprime, from the Hirzebruch-Jung continued fraction of m/q:
    u_0 = (0,1), u_1 = (1,0), u_{i+1} = a_i u_i - u_{i-1}."""
    prev, cur = (0, 1), (1, 0)
    out = [prev, cur]
    n, d = m, q
    while d:
        a = -(-n // d)
        prev, cur = cur, (a * cur[0] - prev[0], a * cur[1] - prev[1])
        out.append(cur)
        n, d = d, a * d - n
    if cur != (m, -q):
        raise AssertionError("continued fraction did not end at the second ray")
    return sorted(out)


def check_simplicial_basis(rays, basis):
    """Failures of a claimed Hilbert basis of a full-dimensional simplicial
    cone: every element inside, the rays present, no element the sum of
    another element and a cone point."""
    d = len(rays)
    mat = [list(r) for r in rays]
    sign = 1 if det(mat) > 0 else -1
    # rows of the adjugate: lam_i(v) * det = adj_i . v
    adj = []
    for i in range(d):
        row = []
        for c in range(d):
            mi = [list(r) for r in rays]
            mi[i] = [1 if j == c else 0 for j in range(d)]
            row.append(sign * det(mi))
        adj.append(row)

    def coords(v):
        return tuple(sum(a * x for a, x in zip(row, v)) for row in adj)

    fails = []
    lifted = {tuple(h): coords(h) for h in basis}
    if len(lifted) != len(basis):
        fails.append("duplicate basis elements")
    for h, c in lifted.items():
        if min(c) < 0:
            fails.append(f"{h} lies outside the cone")
    for r in rays:
        if tuple(r) not in lifted:
            fails.append(f"ray {tuple(r)} missing from the basis")
    items = sorted(lifted.items(), key=lambda kv: sum(kv[1]))
    for i, (h, ch) in enumerate(items):
        for k, ck in items[:i]:
            if all(a >= b for a, b in zip(ch, ck)):
                fails.append(f"{h} is reducible by {k}")
                break
    return fails
