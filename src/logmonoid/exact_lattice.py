"""Exact integer linear algebra over Z.

Matrices are ``IntMatrix`` values: immutable tuples of row tuples holding
Python ints, so all arithmetic is exact at arbitrary precision.  On top of
Smith normal form this module provides kernels and cokernels, finitely
generated abelian groups in invariant-factor form (with quotient / subgroup
/ hom machinery), and a complete solver for nonnegative integer linear
systems.

Conventions:
  - a matrix A of shape (m, n) is the map Z^n -> Z^m acting on column vectors;
  - a group in invariant-factor form is Z^free_rank + Z/f_1 + ... + Z/f_t with
    2 <= f_1 | f_2 | ... | f_t;
  - "lift coordinates" of such a group are Z^(free_rank + t), free coordinates
    first, torsion representatives last.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import DomainError, InputError, InternalCheckError

# ---------------------------------------------------------------------------
# matrix helpers


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples.

    ``m[i, j]`` reads an entry, ``m @ x`` multiplies by a matrix (giving a
    matrix) or by a 1-d integer sequence (giving a tuple).  The constructor
    trusts its arguments; build checked matrices with ``intmat``.
    """

    rows: tuple
    ncols: int

    @property
    def shape(self):
        return (len(self.rows), self.ncols)

    def __getitem__(self, index):
        i, j = index
        return self.rows[i][j]

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return apply(self, other)
        if self.ncols != len(other.rows):
            raise InputError(f"cannot multiply shapes {self.shape} and {other.shape}")
        cols = mat_columns(other)
        return IntMatrix(tuple(tuple(sum(map(mul, r, c)) for c in cols)
                               for r in self.rows), other.ncols)

    def tolist(self):
        return [list(r) for r in self.rows]

    def any(self):
        return any(map(any, self.rows))


def intmat(rows, ncols=None):
    """Builds an exact integer matrix from nested sequences.

    ``ncols`` is required when ``rows`` is empty, and is otherwise checked
    against the row length.
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        if ncols is None:
            raise InputError("empty matrix needs an explicit column count")
        return IntMatrix((), ncols)
    width = len(rows[0])
    if ncols is not None and ncols != width:
        raise InputError(f"expected {ncols} columns, got {width}")
    if any(len(r) != width for r in rows):
        raise InputError("ragged rows in matrix input")
    for r in rows:
        for x in r:
            if isinstance(x, bool) or not isinstance(x, int):
                raise InputError(f"matrix entry {x!r} is not an integer")
    return IntMatrix(tuple(tuple(map(int, r)) for r in rows), width)


def _from_columns(cols, nrows):
    """The matrix with the given int tuples as columns (unchecked)."""
    return IntMatrix(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))


def intmat_from_columns(cols, nrows=None):
    """Builds a matrix whose columns are the given integer vectors."""
    cols = [tuple(c) for c in cols]
    if not cols:
        if nrows is None:
            raise InputError("empty column list needs an explicit row count")
        return IntMatrix(((),) * nrows, 0)
    return _from_columns(intmat(cols).rows, len(cols[0]))


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _freeze(rows, ncols):
    """An IntMatrix from a list of int lists (unchecked)."""
    return IntMatrix(tuple(map(tuple, rows)), ncols)


def identity_mat(n):
    return _freeze(_identity_rows(n), n)


def zeros_mat(m, n):
    return IntMatrix(((0,) * n,) * m, n)


def mat_columns(a):
    """The columns of ``a`` as a list of int tuples."""
    return list(zip(*a.rows)) if a.rows else [()] * a.ncols


def apply(mat, vec):
    """The image ``mat @ vec`` of an integer vector, as a tuple of ints."""
    vec = tuple(vec)
    if len(vec) != mat.ncols:
        raise InputError(
            f"vector of length {len(vec)} for a matrix with {mat.ncols} columns")
    return tuple(sum(map(mul, r, vec)) for r in mat.rows)


def _as_matrix(a):
    """``a`` as an IntMatrix: nested int sequences and 2-d arrays (anything
    with ``tolist`` and ``shape``) are checked and converted."""
    if isinstance(a, IntMatrix):
        return a
    if hasattr(a, "tolist"):
        if len(a.shape) != 2:
            raise InputError("expected a 2-d matrix")
        return intmat(a.tolist(), ncols=a.shape[1])
    return intmat(a)


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = diag(d_1, ..., d_k) padded with zeros, U and V unimodular.

    ``diag`` lists the nonzero invariant factors, positive and with
    d_i | d_{i+1}.
    """

    left: IntMatrix
    diag: tuple
    right: IntMatrix


def _snf_full(a):
    """Smith normal form with tracked inverses.

    Returns (U, Uinv, D, V, Vinv) with U @ a @ V == D diagonal, U @ Uinv and
    V @ Vinv identities.  Pivot rule: smallest nonzero absolute value in the
    active submatrix, ties broken by lowest row then column index.  The row
    and column operations run on lists of lists; the results are wrapped as
    IntMatrix once at the end.
    """
    a = _as_matrix(a)
    m, n = a.shape
    d = [list(r) for r in a.rows]
    u, ui = _identity_rows(m), _identity_rows(m)
    v, vi = _identity_rows(n), _identity_rows(n)

    def swap_rows(i, j):
        if i == j:
            return
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in ui:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        if i == j:
            return
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vi[i], vi[j] = vi[j], vi[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in ui:
            r[i] = -r[i]

    def add_row(i, j, c):
        # row i += c * row j
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for r in ui:
            r[j] -= c * r[i]

    def add_col(j, i, c):
        # col j += c * col i
        for r in d:
            r[j] += c * r[i]
        for r in v:
            r[j] += c * r[i]
        vi[i] = [x - c * y for x, y in zip(vi[i], vi[j])]

    def pivot_at(t):
        # scanning in (row, column) order, the first entry of least absolute
        # value is the one with the smallest (|x|, row, column) key
        best, pos = None, None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best, pos = abs(x), (i, j)
                    if best == 1:
                        return pos
        return pos

    for t in range(min(m, n)):
        while True:
            pos = pivot_at(t)
            if pos is None:
                break
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            if d[t][t] < 0:
                negate_row(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    add_row(i, t, -(d[i][t] // p))
                    if d[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    add_col(j, t, -(d[t][j] // p))
                    if d[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            viol = next((i for i in range(t + 1, m)
                         if any(d[i][j] % p for j in range(t + 1, n))), None)
            if viol is None:
                break
            add_row(t, viol, 1)
        if pivot_at(t) is None:
            break

    return _freeze(u, m), _freeze(ui, m), _freeze(d, n), _freeze(v, n), _freeze(vi, n)


def _diagonal(d):
    """The nonzero diagonal entries of a Smith form D, in order."""
    return tuple(d.rows[i][i] for i in range(min(d.shape)) if d.rows[i][i] != 0)


def smith_normal_form(a):
    """Smith decomposition of an integer matrix.

    The diagonal lists the nonzero invariant factors only; zeros pad the rest
    of U * A * V.
    """
    u, _, d, v, _ = _snf_full(a)
    diag = _diagonal(d)
    for i in range(len(diag) - 1):
        if diag[i + 1] % diag[i] != 0:
            raise InternalCheckError(
                f"Smith form diagonal {diag} is not a divisibility chain")
    return SmithDecomposition(left=u, diag=diag, right=v)


def kernel_basis(a):
    """A lattice basis (as matrix columns) of {x in Z^n : a x = 0}.

    The span is saturated: any integer solution is an integer combination of
    the columns.  Columns are sign-normalized so their first nonzero entry is
    positive.
    """
    _, _, d, v, _ = _snf_full(a)
    cols = []
    for col in mat_columns(v)[len(_diagonal(d)):]:
        lead = next((x for x in col if x != 0), 0)
        cols.append(tuple(-x for x in col) if lead < 0 else col)
    return _from_columns(cols, v.shape[0])


def rank_of(a):
    """Rank over Q of an integer matrix."""
    return len(smith_normal_form(a).diag)


def _check_rhs(a, b):
    if len(b) != a.shape[0]:
        raise InputError("right-hand side has wrong length")


def solve_integer(a, b):
    """One integer solution x of a x = b, or None.

    The solution returned is the canonical one with zero coefficients on the
    kernel coordinates of the Smith decomposition.
    """
    a = _as_matrix(a)
    _check_rhs(a, b)
    m, n = a.shape
    u, _, d, v, _ = _snf_full(a)
    w = apply(u, map(int, b))
    y = [0] * n
    for i in range(m):
        di = d.rows[i][i] if i < min(m, n) else 0
        if di != 0:
            if w[i] % di != 0:
                return None
            y[i] = w[i] // di
        elif w[i] != 0:
            return None
    return apply(v, y)


def solve_rational(a, b):
    """One rational solution of a x = b as a tuple of Fractions, or None."""
    a = _as_matrix(a)
    _check_rhs(a, b)
    m, n = a.shape
    u, _, d, v, _ = _snf_full(a)
    w = apply(u, map(int, b))
    y = [Fraction(0)] * n
    for i in range(m):
        di = d.rows[i][i] if i < min(m, n) else 0
        if di != 0:
            y[i] = Fraction(w[i], di)
        elif w[i] != 0:
            return None
    return tuple(sum(Fraction(c) * yk for c, yk in zip(row, y)) for row in v.rows)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``invariant_factors`` are the cyclic orders >= 2 in a divisibility chain;
    elements are represented in "lift coordinates": free_rank integers
    followed by one representative per torsion factor.
    """

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise InputError("negative free rank")
        fs = tuple(int(f) for f in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for f in fs:
            if f < 2:
                raise InputError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a != 0:
                raise InputError("invariant factors must form a divisibility chain")

    @property
    def lift_dim(self):
        return self.free_rank + len(self.invariant_factors)

    @property
    def is_trivial(self):
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self):
        return self.free_rank == 0

    def reduce_vector(self, vec):
        """Canonical lift coordinates: torsion entries reduced into [0, f)."""
        vec = tuple(int(x) for x in vec)
        if len(vec) != self.lift_dim:
            raise InputError(
                f"vector of length {len(vec)} in group of lift dimension {self.lift_dim}")
        r = self.free_rank
        tors = tuple(vec[r + i] % f for i, f in enumerate(self.invariant_factors))
        return vec[:r] + tors

    def relation_columns(self):
        """Columns generating the relation lattice of the lift presentation."""
        cols = []
        r = self.free_rank
        for i, f in enumerate(self.invariant_factors):
            e = [0] * self.lift_dim
            e[r + i] = f
            cols.append(tuple(e))
        return cols

    def add(self, x, y):
        return self.reduce_vector(tuple(a + b for a, b in zip(x, y, strict=True)))

    def neg(self, x):
        return self.reduce_vector(tuple(-a for a in x))

    def sub(self, x, y):
        return self.reduce_vector(tuple(a - b for a, b in zip(x, y, strict=True)))

    def scale(self, c, x):
        return self.reduce_vector(tuple(c * a for a in x))

    def zero(self):
        return (0,) * self.lift_dim


def torsion_order(g):
    """The order of the torsion subgroup (product of invariant factors)."""
    out = 1
    for f in g.invariant_factors:
        out *= f
    return out


def is_prime(n):
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_order_invertible(g, p):
    """Whether the torsion order of ``g`` is invertible in residue char p.

    p = 0 means characteristic zero (always invertible); otherwise p must be
    prime and the answer is whether p does not divide the torsion order.
    """
    if p == 0:
        return True
    if not is_prime(p):
        raise DomainError(f"residue characteristic must be 0 or prime, got {p}")
    return torsion_order(g) % p != 0


def cokernel(a, nrows=None):
    """Z^m modulo the column span of the m x n matrix ``a``.

    ``nrows`` disambiguates the target rank when ``a`` is given as an empty
    sequence.
    """
    a = _as_matrix(a) if not (isinstance(a, (list, tuple)) and not a) else intmat([], ncols=0)
    if a.shape == (0, 0) and nrows is not None:
        a = zeros_mat(nrows, 0)
    m = a.shape[0]
    diag = smith_normal_form(a).diag
    return FgAbelianGroup(
        free_rank=m - len(diag),
        invariant_factors=tuple(d for d in diag if d >= 2),
    )


def group_from_relations(ngens, relation_columns):
    """The group Z^ngens modulo the lattice spanned by ``relation_columns``.

    Returns (group, proj) where ``proj`` is the (lift_dim x ngens) matrix
    taking old coordinates to lift coordinates of the quotient.
    """
    rel = intmat_from_columns(relation_columns, nrows=ngens)
    u, _, d, _, _ = _snf_full(rel)
    diag = _diagonal(d)
    s = len(diag)
    free_rows = u.rows[s:]
    tors_rows = tuple(u.rows[i] for i in range(s) if diag[i] >= 2)
    factors = tuple(f for f in diag if f >= 2)
    group = FgAbelianGroup(free_rank=rel.shape[0] - s, invariant_factors=factors)
    return group, IntMatrix(free_rows + tors_rows, rel.shape[0])


def quotient_presentation(group, extra_columns):
    """Quotient of ``group`` by the subgroup generated by the given elements.

    ``extra_columns`` are lift vectors of ``group``.  Returns (quotient, proj)
    with ``proj`` mapping lift coordinates of ``group`` to lift coordinates of
    the quotient.
    """
    cols = group.relation_columns() + [tuple(int(x) for x in c) for c in extra_columns]
    return group_from_relations(group.lift_dim, cols)


def subgroup_presentation(group, elements):
    """The subgroup of ``group`` generated by ``elements``, re-presented.

    Returns (sub, images) where ``sub`` is the abstract group in
    invariant-factor form and ``images[i]`` is the lift vector of
    ``elements[i]`` in the new coordinates.
    """
    elements = [group.reduce_vector(e) for e in elements]
    k = len(elements)
    cols = intmat_from_columns(
        elements + group.relation_columns(), nrows=group.lift_dim)
    ker = kernel_basis(cols)
    rel = [col[:k] for col in mat_columns(ker)]
    sub, proj = group_from_relations(k, rel)
    images = [sub.reduce_vector(col) for col in mat_columns(proj)]
    return sub, images


def hom_is_well_defined(source, target, matrix):
    """Whether a lift-coordinate matrix defines a hom of groups."""
    matrix = _as_matrix(matrix)
    if matrix.shape != (target.lift_dim, source.lift_dim):
        return False
    r = source.free_rank
    for i, f in enumerate(source.invariant_factors):
        col = [row[r + i] for row in matrix.rows]
        for j in range(target.free_rank):
            if f * col[j] != 0:
                return False
        for j, g in enumerate(target.invariant_factors):
            if (f * col[target.free_rank + j]) % g != 0:
                return False
    return True


def hom_kernel(source, target, matrix):
    """Kernel of a hom of presented groups, in invariant-factor form."""
    matrix = _as_matrix(matrix)
    combined = intmat_from_columns(
        mat_columns(matrix) + target.relation_columns(), nrows=matrix.shape[0])
    gens = [col[:source.lift_dim] for col in mat_columns(kernel_basis(combined))]
    sub, _ = subgroup_presentation(source, gens) if gens else (
        FgAbelianGroup(0, ()), [])
    return sub


def hom_cokernel(source, target, matrix):
    """Cokernel of a hom of presented groups, in invariant-factor form."""
    matrix = _as_matrix(matrix)
    cols = mat_columns(matrix)
    group, _ = quotient_presentation(target, cols)
    return group


# ---------------------------------------------------------------------------
# nonnegative integer solving (Contejean-Devie)


def minimal_nonneg_solutions(a, *, coordinate_bounds=None, stop=None):
    """All minimal nonzero solutions of a x = 0 with x >= 0 integral.

    Contejean-Devie search: the frontier grows from unit vectors, a tuple t is
    extended by e_i only when <A t, A e_i> < 0, and anything dominating a
    known solution is pruned.  This terminates and returns exactly the
    (finitely many, by Dickson's lemma) minimal solutions.

    ``coordinate_bounds`` optionally caps individual coordinates (sound for
    recovering the minimal solutions within those caps, since every minimal
    solution is reached by a coordinatewise-monotone path).  ``stop`` is an
    optional predicate; the search returns early with the solutions found so
    far as soon as a freshly found minimal solution satisfies it.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if n == 0:
        return []
    cols = mat_columns(a)
    zero_val = (0,) * m

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    minimals = []

    def dominated(t):
        return any(all(t[k] >= s[k] for k in range(n)) for s in minimals)

    frontier = {}
    for i in range(n):
        if coordinate_bounds is not None and coordinate_bounds[i] is not None \
                and coordinate_bounds[i] < 1:
            continue
        e = tuple(1 if k == i else 0 for k in range(n))
        frontier[e] = cols[i]

    while frontier:
        for t in sorted(k for k, v in frontier.items() if v == zero_val):
            if not dominated(t):
                minimals.append(t)
                if stop is not None and stop(t):
                    return minimals
        nxt = {}
        for t, val in frontier.items():
            if val == zero_val:
                continue
            for i in range(n):
                if coordinate_bounds is not None and coordinate_bounds[i] is not None \
                        and t[i] + 1 > coordinate_bounds[i]:
                    continue
                if dot(val, cols[i]) < 0:
                    t2 = t[:i] + (t[i] + 1,) + t[i + 1:]
                    if t2 in nxt or dominated(t2):
                        continue
                    nxt[t2] = tuple(x + y for x, y in zip(val, cols[i]))
        frontier = nxt
    return minimals


def _inhomogeneous_minimal_solutions(a, b, *, stop_first=False):
    """Minimal nonneg solutions of a x = b via homogenization."""
    a = _as_matrix(a)
    _check_rhs(a, b)
    n = a.shape[1]
    hom = IntMatrix(tuple(r + (-int(x),) for r, x in zip(a.rows, b)), n + 1)
    bounds = [None] * n + [1]
    stop = (lambda t: t[n] == 1) if stop_first else None
    sols = minimal_nonneg_solutions(hom, coordinate_bounds=bounds, stop=stop)
    return [s[:n] for s in sols if s[n] == 1]


def solve_nonneg(a, b):
    """The lexicographically smallest x >= 0 with a x = b, or None.

    Complete: returns None only when no nonnegative integer solution exists.
    (The lex-smallest solution is componentwise-minimal, and the search
    enumerates all minimal solutions.)
    """
    a = _as_matrix(a)
    _check_rhs(a, b)
    n = a.shape[1]
    if all(int(x) == 0 for x in b):
        return (0,) * n
    if n == 0:
        return None
    sols = _inhomogeneous_minimal_solutions(a, b)
    return min(sols) if sols else None


def has_nonneg_solution(a, b):
    """Whether a x = b has any nonnegative integer solution."""
    if all(int(x) == 0 for x in b):
        return True
    if _as_matrix(a).shape[1] == 0:
        return False
    return bool(_inhomogeneous_minimal_solutions(a, b, stop_first=True))
