"""Oracle-backed tests for the exact integer-lattice kernel.

Every nontrivial value is checked against an independent brute-force oracle
written here in plain Python: determinantal divisors for Smith invariant
factors, box enumeration for minimal nonnegative solutions, trial division
for primality.  Random cases use fixed seeds.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest

import logmonoid.exact_lattice as xl
from logmonoid.errors import DomainError, InputError, InternalCheckError


# ---------------------------------------------------------------------------
# oracles


def oracle_invariant_factors(rows):
    """Invariant factors via determinantal divisors: d_k = gcd of all k x k
    minors, and the k-th factor is d_k / d_(k-1)."""
    m, n = len(rows), len(rows[0]) if rows else 0

    def minors(k):
        out = []
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                out.append(_det(sub))
        return out

    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for val in minors(k):
            g = gcd(g, abs(val))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(sub)
    return total


def oracle_rational_rank(rows):
    """Row rank over Q by fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        pv = mat[pivot_row][col]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def oracle_minimal_nonneg(rows, bound):
    """All componentwise-minimal nonzero solutions of A x = 0 with x in
    [0, bound]^n, by full box enumeration."""
    n = len(rows[0])
    sols = []
    for x in itertools.product(range(bound + 1), repeat=n):
        if not any(x):
            continue
        if all(sum(r[j] * x[j] for j in range(n)) == 0 for r in rows):
            sols.append(x)
    minimal = []
    for x in sols:
        if not any(y != x and all(a <= b for a, b in zip(y, x)) for y in sols):
            minimal.append(x)
    return sorted(minimal)


def oracle_lex_min_nonneg(rows, b, bound):
    """Lexicographically smallest nonnegative solution of A x = b inside the
    box, or None."""
    n = len(rows[0])
    for x in itertools.product(range(bound + 1), repeat=n):
        if all(sum(r[j] * x[j] for j in range(n)) == b[i]
               for i, r in enumerate(rows)):
            return x
    return None


def oracle_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


# ---------------------------------------------------------------------------
# Smith normal form


SNF_CASES = [
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0], [0, 1]],
    [[2, 0], [0, 3]],
    [[0, 0], [0, 0]],
    [[6, 10, 15]],
    [[2], [3]],
    [[4, 6], [6, 9]],
]


@pytest.mark.parametrize("rows", SNF_CASES)
def test_snf_matches_determinantal_divisors(rows):
    dec = xl.smith_normal_form(rows)
    assert list(dec.diag) == oracle_invariant_factors(rows)


@pytest.mark.parametrize("rows", SNF_CASES)
def test_snf_decomposition_multiplies_out(rows):
    a = xl.intmat(rows)
    dec = xl.smith_normal_form(rows)
    prod = dec.left @ a @ dec.right
    m, n = prod.shape
    for i in range(m):
        for j in range(n):
            want = dec.diag[i] if i == j and i < len(dec.diag) else 0
            assert prod[i, j] == want


def test_snf_random_matches_oracle():
    rng = random.Random(20260819)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        dec = xl.smith_normal_form(rows)
        assert list(dec.diag) == oracle_invariant_factors(rows), rows


def test_snf_transforms_are_unimodular():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        dec = xl.smith_normal_form(rows)
        lu = [[int(x) for x in r] for r in dec.left.tolist()]
        rv = [[int(x) for x in r] for r in dec.right.tolist()]
        assert abs(_det(lu)) == 1
        assert abs(_det(rv)) == 1


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _random_snf_inputs(seed, count):
    """Fixed-seed matrices up to 5 x 6: sparse entries, and some rank-deficient
    ones (last row a combination of the first two)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            c = rng.randint(-3, 3)
            rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
        out.append(rows)
    return out


def test_snf_full_identities_on_random_matrices():
    for rows in _random_snf_inputs(20261019, 120):
        m, n = len(rows), len(rows[0])
        u, ui, d, v, vi = (mat.tolist() for mat in xl._snf_full(rows))
        assert _matmul(_matmul(u, rows), v) == d, rows
        assert _matmul(u, ui) == _eye(m), rows
        assert _matmul(v, vi) == _eye(n), rows
        assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = [d[i][i] for i in range(min(m, n))]
        nonzero = [x for x in diag if x]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero)), rows
        assert all(x > 0 for x in nonzero), rows
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), rows


def test_snf_full_outputs_are_pinned():
    # Canonical outputs downstream (kernel bases, quotient coordinates) depend
    # on the exact pivot order, not just on U A V = D; this digest of all five
    # outputs was recorded before the kernel moved off numpy arrays.
    payload = json.dumps(
        [[mat.tolist() for mat in xl._snf_full(rows)]
         for rows in _random_snf_inputs(20261018, 50)], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        "16357fd0f3a1dcbc269fb5c62306a5ee4382555ae381c8f23e6a0c63f4358e35"


def test_smith_normal_form_reports_a_broken_chain(monkeypatch):
    d = xl.intmat([[2, 0], [0, 3]])
    eye = xl.identity_mat(2)
    monkeypatch.setattr(xl, "_snf_full", lambda a: (eye, eye, d, eye, eye))
    with pytest.raises(InternalCheckError):
        xl.smith_normal_form([[1]])


# ---------------------------------------------------------------------------
# kernel, rank, solving


def test_kernel_basis_annihilates_and_has_right_rank():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        a = xl.intmat(rows)
        ker = xl.kernel_basis(a)
        prod = a @ ker
        assert not prod.any()
        assert ker.shape[1] == n - oracle_rational_rank(rows)


def test_kernel_is_saturated():
    # the kernel lattice must contain every integer solution, not just a
    # finite-index sublattice: v with A v = 0 must be an integer combination
    # of the basis columns
    a = xl.intmat([[2, -2, 0], [0, 3, -3]])
    ker = xl.kernel_basis(a)
    assert ker.shape[1] == 1
    col = tuple(int(ker[i, 0]) for i in range(3))
    assert col in ((1, 1, 1), (-1, -1, -1))


def test_rank_matches_oracle():
    rng = random.Random(13)
    for _ in range(30):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]]
        rows += [[rng.randint(-4, 4) for _ in range(len(rows[0]))]
                 for _ in range(rng.randint(0, 2))]
        assert xl.rank_of(xl.intmat(rows)) == oracle_rational_rank(rows)


def test_solve_integer_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-4, 4) for _ in range(n)]
        a = xl.intmat(rows)
        b = tuple(sum(rows[i][j] * x[j] for j in range(n)) for i in range(m))
        sol = xl.solve_integer(a, b)
        assert sol is not None
        check = a @ tuple(sol)
        assert tuple(int(v) for v in check) == b


def test_solve_integer_detects_unsolvable():
    # 2x = 1 has no integer solution
    assert xl.solve_integer(xl.intmat([[2]]), (1,)) is None
    # x + y = 1, x + y = 2 inconsistent
    assert xl.solve_integer(xl.intmat([[1, 1], [1, 1]]), (1, 2)) is None


def test_solve_rational():
    sol = xl.solve_rational(xl.intmat([[2, 0], [0, 3]]), (1, 1))
    assert sol == (Fraction(1, 2), Fraction(1, 3))
    assert xl.solve_rational(xl.intmat([[1, 1], [1, 1]]), (0, 1)) is None


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def test_group_from_relations_cyclic_quotients():
    # Z^2 / <(2,-2)> = Z (+) Z/2
    group, proj = xl.group_from_relations(2, [(2, -2)])
    assert group.free_rank == 1
    assert group.invariant_factors == (2,)
    assert proj.shape == (2, 2)
    # the relation really dies
    img = proj @ (2, -2)
    assert group.reduce_vector(tuple(int(v) for v in img)) == group.zero()


def test_group_from_relations_structures():
    cases = [
        # (ngens, relation columns, free_rank, factors)
        (2, [], 2, ()),
        (1, [(5,)], 0, (5,)),
        (3, [(1, 0, 0)], 2, ()),
        (2, [(2, 0), (0, 2)], 0, (2, 2)),
        (2, [(2, 0), (0, 3)], 0, (6,)),  # Z/2 (+) Z/3 = Z/6
        (2, [(4, 2)], 1, (2,)),
    ]
    for ngens, cols, rank, factors in cases:
        group, _ = xl.group_from_relations(ngens, cols)
        assert (group.free_rank, group.invariant_factors) == (rank, factors), \
            (ngens, cols)


def test_group_arithmetic_reduces_torsion():
    g = xl.FgAbelianGroup(1, (3,))
    assert g.lift_dim == 2
    assert g.add((1, 2), (0, 2)) == (1, 1)
    assert g.neg((0, 1)) == (0, 2)
    assert g.scale(4, (1, 1)) == (4, 1)
    assert g.reduce_vector((0, -1)) == (0, 2)
    assert g.sub((0, 0), (0, 1)) == (0, 2)


def test_quotient_and_subgroup_presentations():
    g = xl.FgAbelianGroup(2, ())
    quot, _ = xl.quotient_presentation(g, [(2, 0)])
    assert (quot.free_rank, quot.invariant_factors) == (1, (2,))
    sub, images = xl.subgroup_presentation(g, [(2, 0), (0, 3)])
    assert (sub.free_rank, sub.invariant_factors) == (2, ())
    assert len(images) == 2


def test_hom_kernel_and_cokernel():
    z = xl.FgAbelianGroup(1, ())
    z2 = xl.FgAbelianGroup(2, ())
    # x -> (2x, 2x): kernel 0, cokernel Z (+) Z/2
    ker = xl.hom_kernel(z, z2, [[2], [2]])
    coker = xl.hom_cokernel(z, z2, [[2], [2]])
    assert ker.is_trivial
    assert (coker.free_rank, coker.invariant_factors) == (1, (2,))
    # x -> 0: kernel Z, cokernel target
    ker = xl.hom_kernel(z, z2, [[0], [0]])
    coker = xl.hom_cokernel(z, z2, [[0], [0]])
    assert (ker.free_rank, ker.invariant_factors) == (1, ())
    assert (coker.free_rank, coker.invariant_factors) == (2, ())


def test_hom_well_defined_respects_torsion():
    z2 = xl.FgAbelianGroup(0, (2,))
    z = xl.FgAbelianGroup(1, ())
    # Z/2 -> Z sending the generator to 1 is not a homomorphism
    assert not xl.hom_is_well_defined(z2, z, [[1]])
    assert xl.hom_is_well_defined(z2, z, [[0]])
    # Z/2 -> Z/4 by 1 -> 2 is fine, by 1 -> 1 is not
    z4 = xl.FgAbelianGroup(0, (4,))
    assert xl.hom_is_well_defined(z2, z4, [[2]])
    assert not xl.hom_is_well_defined(z2, z4, [[1]])


def test_is_prime_matches_trial_division():
    for n in range(-3, 500):
        assert xl.is_prime(n) == oracle_is_prime(n), n
    assert xl.is_prime(2 ** 31 - 1)  # Mersenne prime
    assert not xl.is_prime(2 ** 31)


def test_order_invertibility():
    g = xl.FgAbelianGroup(1, (6,))
    assert xl.is_order_invertible(g, 0)
    assert xl.is_order_invertible(g, 5)
    assert not xl.is_order_invertible(g, 2)
    assert not xl.is_order_invertible(g, 3)
    with pytest.raises(DomainError):
        xl.is_order_invertible(g, 4)


# ---------------------------------------------------------------------------
# nonnegative Diophantine solving


def test_minimal_solutions_match_box_oracle():
    cases = [
        [[1, -1]],
        [[2, -3]],
        [[1, 1, -2]],
        [[2, -1, -1]],
        [[1, -1, 0], [0, 1, -1]],
        [[3, -2, 1, -1]],
    ]
    for rows in cases:
        a = xl.intmat(rows)
        got = sorted(xl.minimal_nonneg_solutions(a))
        assert got == oracle_minimal_nonneg(rows, 6), rows


def test_minimal_solutions_random_against_oracle():
    rng = random.Random(101)
    checked = 0
    while checked < 15:
        n = rng.randint(2, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)]]
        if not any(x > 0 for x in rows[0]) or not any(x < 0 for x in rows[0]):
            continue  # only mixed-sign rows have nonzero solutions
        got = sorted(xl.minimal_nonneg_solutions(xl.intmat(rows)))
        if got and max(max(s) for s in got) > 5:
            continue  # oracle box too small to be complete
        assert got == oracle_minimal_nonneg(rows, 5), rows
        checked += 1


def test_solve_nonneg_is_lex_smallest():
    cases = [
        ([[1, 1]], (3,)),
        ([[2, 3]], (12,)),
        ([[1, 2], [1, 0]], (5, 1)),
        ([[2, -1]], (1,)),
    ]
    for rows, b in cases:
        got = xl.solve_nonneg(xl.intmat(rows), b)
        want = oracle_lex_min_nonneg(rows, b, 12)
        assert got == want, (rows, b)


def test_solve_nonneg_unsolvable():
    assert xl.solve_nonneg(xl.intmat([[2]]), (3,)) is None
    assert xl.solve_nonneg(xl.intmat([[1, 1]]), (-1,)) is None
    assert not xl.has_nonneg_solution(xl.intmat([[-1]]), (2,))
    assert xl.has_nonneg_solution(xl.intmat([[2, 3]]), (7,))


def test_frobenius_gaps_of_2_3():
    # the numerical semigroup <2,3> misses exactly 1
    a = xl.intmat([[2, 3]])
    members = [n for n in range(8) if xl.has_nonneg_solution(a, (n,))]
    assert members == [0, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------------------------------
# input validation


def test_matrix_constructors_reject_garbage():
    with pytest.raises(InputError):
        xl.intmat([[1, 2], [3]])
    with pytest.raises(InputError):
        xl.intmat([], ncols=None)
    assert xl.intmat([], ncols=3).shape == (0, 3)
    assert xl.intmat_from_columns([], nrows=2).shape == (2, 0)


def test_intmat_surface():
    a = xl.intmat([[1, 2, 3], [4, 5, 6]])
    assert a.shape == (2, 3)
    assert a[1, 2] == 6 and a[-1, 0] == 4
    assert a.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert a @ (1, 0, -1) == (-2, -2)
    assert (a @ xl.intmat_from_columns([(1, 0, 0), (0, 0, 1)])).tolist() == \
        [[1, 3], [4, 6]]
    assert a.any() and not xl.zeros_mat(2, 3).any()
    assert a == xl.intmat([(1, 2, 3), (4, 5, 6)])
    assert a != xl.intmat([[1, 2, 3]]) and xl.zeros_mat(0, 2) != xl.zeros_mat(0, 3)
    assert hash(a) == hash(xl.intmat([[1, 2, 3], [4, 5, 6]]))
    assert xl.intmat_from_columns([(1, 4), (2, 5), (3, 6)]) == a
    with pytest.raises(AttributeError):
        a.shape = (3, 2)
    with pytest.raises(AttributeError):
        a.rows = ((0, 0, 0),)
    with pytest.raises(InputError):
        a @ (1, 2)
    with pytest.raises(InputError):
        xl.intmat([[1, True]])
    with pytest.raises(InputError):
        xl.intmat([[1, 2.0]])


class _ArrayLike:
    """Stands in for a caller's 2-d array: only ``shape`` and ``tolist``."""

    def __init__(self, rows, shape):
        self.rows, self.shape = rows, shape

    def tolist(self):
        return self.rows


def test_array_like_inputs_are_converted():
    a = _ArrayLike([[2, 4], [6, 8]], (2, 2))
    assert xl.smith_normal_form(a).diag == (2, 4)
    assert xl.kernel_basis(_ArrayLike([], (0, 2))).shape == (2, 2)
    with pytest.raises(InputError):
        xl.rank_of(_ArrayLike([1, 2], (2,)))


def test_group_rejects_bad_invariant_factors():
    with pytest.raises(InputError):
        xl.FgAbelianGroup(1, (1,))
    with pytest.raises(InputError):
        xl.FgAbelianGroup(1, (0,))
    with pytest.raises(InputError):
        xl.FgAbelianGroup(1, (3, 2))  # not a divisibility chain
    with pytest.raises(InputError):
        xl.FgAbelianGroup(-1, ())
