"""Exact integer linear algebra over Z.

Matrices are ``IntMatrix`` values: immutable tuples of row tuples holding
Python ints, so all arithmetic is exact at arbitrary precision.  On top of
Smith normal form this module provides kernels and cokernels, finitely
generated abelian groups in invariant-factor form (with quotient / subgroup
/ hom machinery), the lattices that cones and monoids are built on, and a
complete solver for nonnegative integer linear systems.

It is the one module that takes Smith decompositions (``_snf_full``) and
reads their U, V and invariant factors; the others ask it for the kernels,
cokernels, projections and lattices that a decomposition gives.

It also holds the one rule for each kind of caller's value, applied once
where the value enters: ``_as_ints`` for integers (what ``operator.index``
accepts, ``bool`` excepted), ``_as_vector`` for a vector of known length
and ``_as_matrix`` for a matrix.  The package's own matrices go to the
trusted ``IntMatrix`` and ``_from_columns``, its own lift tuples to
``FgAbelianGroup._reduce``, ``_add``, ``_neg`` and ``_sub``, the cores
that ``reduce_vector`` and the group arithmetic call after their check,
and ``_cokernel_of`` builds the group it reads off a Smith form without
the checks of ``FgAbelianGroup``.

Conventions:
  - a matrix A of shape (m, n) is the map Z^n -> Z^m acting on column vectors;
  - a group in invariant-factor form is Z^free_rank + Z/f_1 + ... + Z/f_t with
    2 <= f_1 | f_2 | ... | f_t;
  - "lift coordinates" of such a group are Z^(free_rank + t), free coordinates
    first, torsion representatives last.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import prod
from operator import add, ge, index, mul, sub

from .errors import DomainError, InputError, InternalCheckError

# ---------------------------------------------------------------------------
# matrix helpers


def _as_ints(values):
    """The integers ``values`` as a tuple of ints.

    An integer is what ``operator.index`` accepts, except ``bool``, so 0.5,
    "1" or True is refused with an InputError instead of being truncated,
    parsed or read as 1.  A tuple of ints is returned as it is.
    """
    try:
        if type(values) is not tuple:
            values = tuple(values)
        for x in values:
            if type(x) is not int:
                break
        else:
            return values
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        pass
    raise InputError(f"expected integers, got {values!r}")


def _as_vector(values, length, what):
    """A caller's vector of ``length`` integers (``_as_ints``), named
    ``what`` in the one message for a vector of another length."""
    values = _as_ints(values)
    if len(values) != length:
        raise InputError(f"{what} has length {len(values)}, expected {length}")
    return values


def _as_tuple(values, what):
    """``values`` as a tuple; anything that is not iterable is refused
    with an InputError."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{what} must be a sequence, got {values!r}") from None


def _of_kind(value, kind, what):
    """``value``, which must be a ``kind``, else an InputError."""
    if not isinstance(value, kind):
        raise InputError(
            f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _as_count(value, what):
    """A count or dimension as an int, which must be nonnegative."""
    (value,) = _as_ints((value,))
    if value < 0:
        raise InputError(f"negative {what}")
    return value


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
            return apply(self, _as_vector(other, self.ncols, "vector"))
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
    rows = _as_tuple(rows, "matrix rows")
    if ncols is not None:
        ncols = _as_count(ncols, "vector length")
    elif rows:
        ncols = len(_as_ints(rows[0]))
    else:
        raise InputError("empty matrix needs an explicit column count")
    return IntMatrix(tuple(_as_vector(r, ncols, "matrix row") for r in rows),
                     ncols)


def _from_columns(cols, nrows):
    """The matrix with the given int tuples as columns (unchecked)."""
    return IntMatrix(tuple(zip(*cols)) if cols else ((),) * nrows, len(cols))


def intmat_from_columns(cols, nrows=None):
    """Builds a matrix whose columns are the given integer vectors, checked
    as the rows of ``intmat`` (so each of length ``nrows`` when given)."""
    cols = _as_tuple(cols, "columns")
    if not cols and nrows is None:
        raise InputError("empty column list needs an explicit row count")
    transposed = intmat(cols, nrows)
    return _from_columns(transposed.rows, transposed.ncols)


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


def _as_matrix(a, ncols=None):
    """A caller's matrix: nested integer rows, checked by ``intmat``, or an
    IntMatrix, built unchecked, whose rows are checked against its ncols."""
    if isinstance(a, IntMatrix):
        return intmat(a.rows, a.ncols)
    return intmat(a, ncols)


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
    """The ``SmithDecomposition`` of ``a``, without the divisibility check.

    Pivot rule: smallest nonzero absolute value in the active submatrix,
    ties broken by lowest row then column index.  The rows of [D | U] are
    kept fused, so a row operation is one pass over n + m entries, and V is
    kept by columns (the rows of V^T), so a column operation on V is one pass
    over one of them; inverses come from ``_unimodular_inverse``.  Rows above
    step t are zero in the active columns, so a column operation at step t
    changes only the rows with a nonzero entry in column t: row t, and the
    rows the row sweep left a remainder in.  The swaps and operations are
    thus those of an elimination that applies each one to all of D, U and V,
    and so are U and V, on which the emitted kernel bases and presentations
    depend.  ``a`` is an IntMatrix (trusted).
    """
    m, n = a.shape
    zeros = [0] * m
    rows = []
    for i, r in enumerate(a.rows):
        row = [*r, *zeros]
        row[n + i] = 1
        rows.append(row)
    vt = []
    for j in range(n):
        col = [0] * n
        col[j] = 1
        vt.append(col)
    for t in range(min(m, n)):
        while True:
            # the first entry of least absolute value in (row, column) order
            best = 0
            for i in range(t, m):
                row = rows[i]
                for j in range(t, n):
                    x = row[j]
                    if x and (not best or -best < x < best):
                        best, pi, pj = abs(x), i, j
                if best == 1:
                    break
            if not best:
                break
            if pi != t:
                rows[t], rows[pi] = rows[pi], rows[t]
            if pj != t:
                for i in range(t, m):
                    r = rows[i]
                    r[t], r[pj] = r[pj], r[t]
                vt[t], vt[pj] = vt[pj], vt[t]
            top = rows[t]
            p = top[t]
            if p < 0:
                top = rows[t] = [-x for x in top]
                p = -p
            live = [top]  # the rows with a nonzero entry in column t
            for i in range(t + 1, m):
                r = rows[i]
                if r[t]:
                    c = r[t] // p
                    r = rows[i] = [x - c * y for x, y in zip(r, top)]
                    if r[t]:
                        live.append(r)
            dirty = len(live) > 1
            vcol = vt[t]
            for j in range(t + 1, n):
                if top[j]:
                    c = top[j] // p
                    for r in live:
                        r[j] -= c * r[t]
                    vt[j] = [x - c * y for x, y in zip(vt[j], vcol)]
                    if top[j]:
                        dirty = True
            if dirty:
                continue
            if p == 1:
                break
            # a row whose active entries p does not divide is added to row t
            for r in rows[t + 1:]:
                if any([x % p for x in r[t + 1:n]]):
                    rows[t] = [x + y for x, y in zip(top, r)]
                    break
            else:
                break
        if not best:
            break
    return SmithDecomposition(
        left=IntMatrix(tuple([tuple(r[n:]) for r in rows]), m),
        diag=tuple([rows[i][i] for i in range(min(m, n)) if rows[i][i]]),
        right=IntMatrix(tuple(zip(*vt)), n))


def smith_normal_form(a):
    """Smith decomposition of an integer matrix.

    The diagonal lists the nonzero invariant factors only; zeros pad the rest
    of U * A * V.
    """
    dec = _snf_full(_as_matrix(a))
    for x, y in zip(dec.diag, dec.diag[1:]):
        if y % x != 0:
            raise InternalCheckError(
                f"Smith form diagonal {dec.diag} is not a divisibility chain")
    return dec


def kernel_basis(a):
    """A lattice basis (as matrix columns) of {x in Z^n : a x = 0}.

    The span is saturated: any integer solution is an integer combination of
    the columns.  Columns are sign-normalized so their first nonzero entry is
    positive.
    """
    dec = _snf_full(_as_matrix(a))
    return _from_columns(_kernel_columns(dec), dec.right.shape[0])


def _kernel_columns(dec, n=None):
    """The kernel basis of ``kernel_basis``, read off a Smith decomposition:
    the columns of V past the invariant factors, sign-normalized, and cut
    to their first n coordinates when n is given."""
    cols = []
    for col in mat_columns(dec.right)[len(dec.diag):]:
        lead = next((x for x in col if x != 0), 0)
        cols.append((tuple(-x for x in col) if lead < 0 else col)[:n])
    return cols


def solve_integer(a, b):
    """One integer solution x of a x = b, or None.

    The solution returned is the canonical one with zero coefficients on the
    kernel coordinates of the Smith decomposition.
    """
    a = _as_matrix(a)
    dec = _snf_full(a)
    w = apply(dec.left, _as_vector(b, a.shape[0], "right-hand side"))
    s = len(dec.diag)
    if any(w[s:]) or any(x % di for x, di in zip(w, dec.diag)):
        return None
    y = [x // di for x, di in zip(w, dec.diag)] + [0] * (a.shape[1] - s)
    return apply(dec.right, y)


def det_adjugate(rows):
    """Determinant and adjugate of a square integer matrix given by its rows.

    One fraction-free Gauss-Jordan elimination of [A | I] (Bareiss, *Math.
    Comp.* 22, 1968): every division is exact, and after the last pivot the
    left block is d I and the right block d A^-1, where d = det(A) up to the
    sign of the row swaps.  Returns (det, adj) with adj a tuple of row
    tuples, adj A = A adj = det I, or (0, None) for a singular matrix.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("determinant of a non-square matrix")
    m = [[*r, *(1 if i == j else 0 for j in range(n))]
         for i, r in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        row_k = m[k]
        p = row_k[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], row_k)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in r[n:]) for r in m)


def _unimodular_inverse(mat):
    """The inverse det(U) adj(U) of a unimodular square matrix U, exactly."""
    det, adj = det_adjugate(mat.rows)
    if det not in (1, -1):
        raise InternalCheckError("Smith transform is not unimodular")
    return IntMatrix(tuple(tuple(det * x for x in r) for r in adj), mat.ncols)


# ---------------------------------------------------------------------------
# the lattices of cones


def hnf_row_basis(vectors, dim):
    """The canonical (row-style Hermite) basis of the lattice the vectors span.

    Rows are echelonized left to right with positive pivots and the entries
    above each pivot reduced into [0, pivot); the result depends only on the
    lattice, not on the presented basis.  The vectors are int tuples of
    length ``dim`` (trusted).
    """
    rows = [list(v) for v in vectors]
    basis = []
    pivots = []
    for col in range(dim):
        live = [r for r in rows if r[col] != 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            small = live[0]
            for r in live[1:]:
                q = r[col] // small[col]
                for k in range(dim):
                    r[k] -= q * small[k]
            live = [r for r in rows if r[col] != 0]
        if not live:
            continue
        piv = live[0]
        rows.remove(piv)
        if piv[col] < 0:
            piv = [-x for x in piv]
        for b in basis:
            if b[col] != 0:
                q = b[col] // piv[col]
                for k in range(dim):
                    b[k] -= q * piv[k]
        basis.append(piv)
        pivots.append(col)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return tuple(tuple(basis[i]) for i in order)


def _saturated_kernel(forms, dim):
    """Canonical basis of {x in Z^dim : f . x = 0 for every form}: the
    lineality of the cone the forms cut out as inequalities."""
    dec = _snf_full(IntMatrix(tuple(forms), dim))
    return hnf_row_basis(_kernel_columns(dec), dim)


def _quotient_maps(lattice_basis, dim):
    """Projection and section for Z^dim -> Z^dim / span(basis).

    Returns (P, R) of shapes (dim-k, dim) and (dim, dim-k) from one Smith
    decomposition U B V = [I; 0]: P R = I, and the kernel of P is exactly
    the span of the (saturated) basis B.
    """
    k = len(lattice_basis)
    dec = _snf_full(_from_columns(lattice_basis, dim))
    if dec.diag != (1,) * k:
        raise InternalCheckError("lineality basis is not saturated")
    uinv = _unimodular_inverse(dec.left)
    return (IntMatrix(_projection_rows(dec), dim),
            IntMatrix(tuple(r[k:] for r in uinv.rows), dim - k))


def _parallelepiped_numerators(ray_coords):
    """The nonzero lattice points of {sum t_i r_i : 0 <= t_i < 1} for
    m linearly independent rays in Z^m, as coefficient numerators.

    Returns (L, numerators): each point is sum_i (N_i / L) r_i for exactly
    one tuple N with 0 <= N_i < L, where L is the last invariant factor of
    the ray matrix; one denominator for all points keeps the order of
    numerator tuples and of their sums.  The points are the nonzero classes
    of Z^m / <rays>.  With the Smith decomposition U R V = D, the class of
    U^-1 e has N = V diag(L/d) e mod L, so the digits e_k < d_k of the
    wheels d_k > 1 name every class once.  Each coordinate of N is built
    on its own, one list comprehension per wheel, as a mixed-radix sequence
    mod L, the first wheel fastest; one ``zip`` forms the tuples, and the
    zero class, which comes first, is dropped.
    """
    m = len(ray_coords)
    dec = _snf_full(_from_columns(ray_coords, m))
    orders = dec.diag
    if len(orders) < m:
        raise InternalCheckError("parallelepiped rays are linearly dependent")
    big = orders[-1] if orders else 1
    wheels = [(k, d, big // d) for k, d in enumerate(orders) if d > 1]
    coords = []
    for row in dec.right.rows:
        vals = [0]
        for k, d, scale in reversed(wheels):
            step = row[k] * scale % big
            vals = [(v + e * step) % big for v in vals for e in range(d)]
        coords.append(vals)
    return big, list(islice(zip(*coords), 1, None))


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
        rank = _as_count(self.free_rank, "free rank")
        fs = _as_ints(self.invariant_factors)
        object.__setattr__(self, "free_rank", rank)
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

    def _vector(self, vec):
        return _as_vector(vec, self.lift_dim, "lift vector")

    def _reduce(self, vec):
        """``reduce_vector`` of a tuple of lift_dim ints (trusted)."""
        if not self.invariant_factors:
            return vec
        r = self.free_rank
        return vec[:r] + tuple(
            [x % f for x, f in zip(vec[r:], self.invariant_factors)])

    def reduce_vector(self, vec):
        """Canonical lift coordinates: torsion entries reduced into [0, f)."""
        return self._reduce(self._vector(vec))

    def relation_columns(self):
        """Columns generating the relation lattice of the lift presentation:
        f_i * e_(r+i) for each invariant factor f_i, in order."""
        r, n = self.free_rank, self.lift_dim
        return [(0,) * (r + i) + (f,) + (0,) * (n - r - i - 1)
                for i, f in enumerate(self.invariant_factors)]

    def add(self, x, y):
        return self._add(self._vector(x), self._vector(y))

    def neg(self, x):
        return self._neg(self._vector(x))

    def sub(self, x, y):
        return self._sub(self._vector(x), self._vector(y))

    # add, neg and sub of tuples of lift_dim ints (trusted)

    def _add(self, x, y):
        return self._reduce(tuple(map(add, x, y)))

    def _neg(self, x):
        return self._reduce(tuple([-a for a in x]))

    def _sub(self, x, y):
        return self._reduce(tuple(map(sub, x, y)))

    def scale(self, c, x):
        (c,) = _as_ints((c,))
        return self._reduce(tuple([c * a for a in self._vector(x)]))

    def zero(self):
        return (0,) * self.lift_dim


# Miller-Rabin on the prime bases 2 to 41 is a proof below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_PSI_13 = 3317044064679887385961981


def is_prime(n):
    """Deterministic Miller-Rabin primality test, proven below ``_PSI_13``."""
    if n < 2:
        return False
    if n >= _PSI_13:
        raise DomainError(
            f"{n} is beyond the range of the deterministic primality test")
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
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


def _check_residue_char(residue_char):
    """The residue characteristic as an int, which must be 0 or prime."""
    (p,) = _as_ints((residue_char,))
    if p != 0 and not is_prime(p):
        raise DomainError(f"residue characteristic must be 0 or prime, got {p}")
    return p


def is_order_invertible(g, p):
    """Whether the torsion order of ``g`` is invertible in residue char p.

    p = 0 means characteristic zero (always invertible); otherwise p must be
    prime and the answer is whether p does not divide the torsion order.
    """
    p = _check_residue_char(p)
    return p == 0 or prod(g.invariant_factors) % p != 0


def cokernel(a, nrows=None):
    """Z^m modulo the column span of the m x n matrix ``a``.

    ``nrows``, when given, is m: an empty sequence is then the m x 0 matrix
    (0 x 0 without it), and any other matrix must have m rows.
    """
    m = 0 if nrows is None else _as_count(nrows, "row count")
    a = _from_columns([], m) if isinstance(a, (list, tuple)) and not a \
        else _as_matrix(a)
    if nrows is not None and a.shape[0] != m:
        raise InputError(f"matrix of shape {a.shape} for nrows={m}")
    return _group_from_relations(a.shape[0], mat_columns(a))[0]


def group_from_relations(ngens, relation_columns):
    """The group Z^ngens modulo the lattice spanned by ``relation_columns``.

    Returns (group, proj) where ``proj`` is the (lift_dim x ngens) matrix
    taking old coordinates to lift coordinates of the quotient.
    """
    rel = intmat_from_columns(relation_columns,
                              nrows=_as_count(ngens, "generator count"))
    return _group_from_relations(rel.shape[0], mat_columns(rel))


def _group_from_relations(ngens, cols):
    """``group_from_relations`` of int tuples of length ``ngens`` (trusted)."""
    dec = _snf_full(_from_columns(cols, ngens))
    return _cokernel_of(dec), IntMatrix(_projection_rows(dec), ngens)


def _cokernel_of(dec):
    """Z^m modulo the columns of an m-row matrix, from its Smith form.

    Built without the checks of ``FgAbelianGroup``: the invariant factors
    >= 2 of a Smith form are a divisibility chain of ints."""
    group = object.__new__(FgAbelianGroup)
    object.__setattr__(group, "free_rank", dec.left.ncols - len(dec.diag))
    object.__setattr__(group, "invariant_factors",
                       tuple([f for f in dec.diag if f >= 2]))
    return group


def _generates(dec):
    """Whether the columns of an m-row matrix generate Z^m (``_cokernel_of``
    is trivial): whether its Smith form has m invariant factors, all 1."""
    return dec.diag == (1,) * dec.left.ncols


def _projection_rows(dec):
    """The rows of U onto the lift coordinates of ``_cokernel_of(dec)``:
    those past the invariant factors, then one per factor >= 2."""
    rows, s = dec.left.rows, len(dec.diag)
    return rows[s:] + tuple(rows[i] for i in range(s) if dec.diag[i] >= 2)


def quotient_presentation(group, extra_columns):
    """Quotient of ``group`` by the subgroup generated by the given elements.

    ``extra_columns`` are lift vectors of ``group`` (trusted).  Returns
    (quotient, proj) with ``proj`` mapping lift coordinates of ``group`` to
    lift coordinates of the quotient.
    """
    cols = group.relation_columns() + list(extra_columns)
    return _group_from_relations(group.lift_dim, cols)


def _decompose_among(group, vectors):
    """The Smith decomposition of [vectors | group.relation_columns()]."""
    return _snf_full(_from_columns(
        list(vectors) + group.relation_columns(), group.lift_dim))


def _relation_lattice(dec, n):
    """(particular, kernel) from the ``_decompose_among`` U A V of n
    generators of a group: the n rows of V_head U, and the
    ``_kernel_columns`` cut to n coordinates (see ``monoid_core.contains``).
    None when the generators do not generate the group (``_generates``)."""
    if not _generates(dec):
        return None
    s = len(dec.diag)
    head = IntMatrix(tuple(row[:s] for row in dec.right.rows[:n]), s)
    return (head @ dec.left).rows, _kernel_columns(dec, n)


def subgroup_presentation(group, elements):
    """The subgroup of ``group`` generated by ``elements``, re-presented.

    Returns (sub, images) where ``sub`` is the abstract group in
    invariant-factor form and ``images[i]`` is the lift vector of
    ``elements[i]`` in the new coordinates.  One Smith decomposition of
    [elements | relations] decides both: its cokernel is the quotient by the
    elements, and its kernel gives the relations among them.  When the
    elements generate ``group`` (lift_dim invariant factors 1) the result is
    ``group`` itself and the coordinates are kept.
    """
    return _span_presentation(group, [group._vector(e) for e in elements])[:2]


def _span_presentation(group, elements):
    """(sub, images, dec): ``subgroup_presentation`` of tuples of lift_dim
    ints (trusted), with the Smith decomposition of [reduced elements |
    relations] it reads them off."""
    elements = [group._reduce(e) for e in elements]
    dec = _decompose_among(group, elements)
    if _generates(dec):
        return group, elements, dec
    n = len(elements)
    sub, proj = _group_from_relations(n, _kernel_columns(dec, n))
    images = [sub._reduce(col) for col in mat_columns(proj)]
    return sub, images, dec


def _kills_relations(source, target, matrix):
    """Whether ``matrix`` maps every relation of the source to 0 in the target."""
    return not any(any(target._reduce(apply(matrix, c)))
                   for c in source.relation_columns())


def _hom_matrix(source, target, matrix):
    """A caller's lift-coordinate matrix of a hom source -> target, checked.
    Rows are source.lift_dim wide, so ``[]`` maps into the trivial group."""
    matrix = _as_matrix(matrix, source.lift_dim)
    shape = (target.lift_dim, source.lift_dim)
    if matrix.shape != shape:
        raise InputError(f"hom matrix has shape {matrix.shape}, not {shape}")
    if not _kills_relations(source, target, matrix):
        raise DomainError("matrix is not a homomorphism of the ambient groups")
    return matrix


def _kernel_of(source, dec):
    """Ker of a hom out of ``source``, generated by the relations among its
    columns, read off their ``_decompose_among`` the target."""
    return _span_presentation(
        source, _kernel_columns(dec, source.lift_dim))[0]


def _is_injective(source, dec):
    """Whether the kernel ``_kernel_of`` presents is trivial: whether every
    relation among the hom's columns, cut to the source coordinates, is 0
    in ``source``."""
    return not any(any(source._reduce(col))
                   for col in _kernel_columns(dec, source.lift_dim))


def hom_kernel(source, target, matrix):
    """Kernel of a hom of presented groups, in invariant-factor form."""
    return _kernel_of(source, _decompose_among(
        target, mat_columns(_hom_matrix(source, target, matrix))))


def hom_cokernel(source, target, matrix):
    """Cokernel of a hom of presented groups, in invariant-factor form."""
    return _cokernel_of(_decompose_among(
        target, mat_columns(_hom_matrix(source, target, matrix))))


# ---------------------------------------------------------------------------
# nonnegative integer solving (Contejean-Devie)


def _gram(cols):
    """The Gram matrix of the columns: G[i][j] = <cols[i], cols[j]>."""
    return [tuple([sum(map(mul, u, v)) for v in cols]) for u in cols]


def _minimal_solutions(gram, capped=False):
    """The minimal nonzero solutions of a x = 0 with x >= 0 integral, given
    the Gram matrix G = A^T A of the columns of a.

    The incremental search of Contejean and Devie ("An efficient incremental
    algorithm for solving systems of linear Diophantine equations",
    Information and Computation 113, 1994).  The frontier grows level by
    level (by degree) from the unit vectors; a tuple t is extended by e_i
    only when <A t, A e_i> < 0.  Each minimal solution s is reached: for
    t < s, sum_i (s - t)_i <A t, A e_i> = -|A t|^2 < 0, so some coordinate
    with t_i < s_i has a negative score.  The frontier tuples with A t = 0
    of each level are the minimal solutions of that degree, yielded in
    sorted order before the next level is built, so a caller that stops
    iterating stops the search.  Three devices keep the search cheap:

      - scores: each tuple carries its scores G t and its norm |A t|^2, so
        t + e_i costs one row add (scores + G[i], norm + 2 (G t)_i + G[i][i]);
      - domination index: frontier tuples are never above a known minimal
        solution, so t + e_i can only be above a minimal s with
        s_i = t_i + 1; the minimals are indexed by (coordinate, value);
      - frozen coordinates: each tuple carries a set of coordinates that
        its subtree never raises.  If t + e_i lies above a known minimal,
        i is frozen in every child of t.  If t + e_j and t + e_i are both
        children with j < i, j is frozen in t + e_i: a minimal solution s
        above t not yet found is reached through the least i with
        t_i < s_i and a negative score, so s_j = t_j for every smaller
        child coordinate j and for every j frozen above.  A tuple reached
        from several parents keeps the intersection of their frozen sets,
        so every minimal solution stays reachable.

    ``capped`` freezes the last coordinate once it is 1, which keeps to the
    minimal solutions whose last coordinate is at most 1 (every minimal
    solution is reached by a coordinatewise-monotone path), and seeks the
    lex-least head x of a solution (x, 1).  Once one is yielded, the rest of
    its level is skipped (sorted after (x, 1), no head there is below x),
    and a child t + e_i is dropped, with i frozen as for domination, unless
    t + e_i < best = (x, 0), that is, unless its head is lex-below x.  The
    path to a solution with a smaller head has smaller heads, so it stays:
    the last (x, 1) yielded is the least.  Nothing is dropped before the
    first yield.
    """
    n = len(gram)
    cap = 1 << (n - 1) if capped else 0
    best = None
    frontier = {}
    frozen = 0
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        frontier[e] = [gram[i], gram[i][i], frozen | (1 << i & cap)]
        frozen |= 1 << i

    index = {}
    while frontier:
        for t in sorted(t for t, node in frontier.items() if node[1] == 0):
            for i, v in enumerate(t):
                if v:
                    index.setdefault((i, v), []).append(t)
            yield t
            if capped and t[-1]:
                best = t[:-1] + (0,)
                break
        nxt = {}
        for t, (sc, nrm, frozen) in frontier.items():
            if nrm == 0:
                continue
            kids = []
            for i in range(n):
                if sc[i] >= 0 or frozen >> i & 1:
                    continue
                v = t[i] + 1
                t2 = t[:i] + (v,) + t[i + 1:]
                if t2 not in nxt:
                    bucket = index.get((i, v))
                    if best and t2 >= best or bucket and any(
                            all(map(ge, t2, s)) for s in bucket):
                        frozen |= 1 << i
                        continue
                kids.append((i, t2))
            for i, t2 in kids:
                mask = frozen | (1 << i & cap)
                node = nxt.get(t2)
                if node is None:
                    row = gram[i]
                    nxt[t2] = [tuple(map(add, sc, row)),
                               nrm + 2 * sc[i] + row[i], mask]
                else:
                    node[2] &= mask
                frozen |= 1 << i
        frontier = nxt


def minimal_nonneg_solutions(a):
    """All minimal nonzero solutions of a x = 0 with x >= 0 integral, level
    by level (by degree) and sorted within a level (``_minimal_solutions``)."""
    return list(_minimal_solutions(_gram(mat_columns(_as_matrix(a)))))


def _nonneg_solutions(cols, b):
    """Minimal solutions x >= 0 of sum_i x_i cols[i] = b, in the order of
    the search: the first one found, then only ones lex-below every earlier
    one, down to the lex-least.  The columns and b are int tuples of one
    length (trusted).  Empty iff there is no solution.

    Homogenized: they are the minimal solutions (x, 1) of [a | -b] (x, y) = 0
    with y <= 1, from the capped search.  For b = 0 the search ends at its
    first level: (0, ..., 0, 1) is the least tuple there, and no tuple is
    lex-below the head 0, so x = 0 is the only one.
    """
    n = len(cols)
    gram = _gram([*cols, tuple(-x for x in b)])
    return (s[:n] for s in _minimal_solutions(gram, capped=True) if s[n])


def solve_nonneg(a, b):
    """The lexicographically smallest x >= 0 with a x = b, or None.

    Complete: returns None only when no nonnegative integer solution exists.
    (The lex-smallest solution is componentwise-minimal, and the search
    yields the lex-least minimal solution last.)  A zero b costs one level
    of the search, which yields x = 0 alone.
    """
    a = _as_matrix(a)
    b = _as_vector(b, a.shape[0], "right-hand side")
    return min(_nonneg_solutions(mat_columns(a), b), default=None)
