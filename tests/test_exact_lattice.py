"""Oracle-backed tests for the exact integer-lattice kernel.

Every nontrivial value is checked against an independent brute-force oracle
written here in plain Python: determinantal divisors for Smith invariant
factors, box enumeration for minimal nonnegative solutions, trial division
for primality.  The Contejean-Devie search is also checked against its
earlier plain breadth-first version.  Random cases use fixed seeds.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.log_hom_analysis as lha
import logmonoid.monoid_core as mc
from logmonoid.errors import DomainError, InputError, InternalCheckError
from conftest import (has_nonneg_solution, identity_mat, relations_among,
                      zeros_mat)


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


def _oracle_minimal_nonneg_solutions(a, *, coordinate_bounds=None, stop=None):
    """The plain Contejean-Devie breadth-first search, as it was before the
    solver carried scores, a domination index and frozen coordinates."""
    a = xl._as_matrix(a)
    m, n = a.shape
    if n == 0:
        return []
    cols = xl.mat_columns(a)
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


def _fraction_inverse(rows):
    """The inverse over Q by Fraction Gauss-Jordan elimination, or None for a
    singular matrix."""
    n = len(rows)
    aug = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
           for i, r in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k]:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [r[n:] for r in aug]


def test_snf_full_identities_on_random_matrices():
    for rows in _random_snf_inputs(20261019, 120):
        m, n = len(rows), len(rows[0])
        dec = xl._snf_full(xl.intmat(rows))
        assert isinstance(dec, xl.SmithDecomposition)
        u, v, diag = dec.left.tolist(), dec.right.tolist(), list(dec.diag)
        padded = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)]
                  for i in range(m)]
        assert _matmul(_matmul(u, rows), v) == padded, rows
        for mat, size in ((dec.left, m), (dec.right, n)):
            inv = xl._unimodular_inverse(mat).tolist()
            assert _matmul(mat.tolist(), inv) == _eye(size), rows
            assert inv == _fraction_inverse(mat.tolist()), rows
        assert all(x > 0 for x in diag), rows
        assert all(b % a == 0 for a, b in zip(diag, diag[1:])), rows


def test_unimodular_inverse_rejects_a_non_unimodular_matrix():
    with pytest.raises(InternalCheckError):
        xl._unimodular_inverse(xl.intmat([[2, 0], [0, 1]]))


def test_snf_full_outputs_are_pinned():
    # Canonical outputs downstream (kernel bases, quotient coordinates) depend
    # on the exact pivot order, not just on U A V = D.  This digest of
    # (U, diag, V) was computed from the outputs of the earlier version that
    # also tracked U^-1 and V^-1, so it shows that dropping them moved nothing.
    payload = json.dumps(
        [[dec.left.tolist(), list(dec.diag), dec.right.tolist()]
         for dec in (xl._snf_full(xl.intmat(rows))
                     for rows in _random_snf_inputs(20261018, 50))],
        separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        "946836e06fff999c8aad2a1c2d413c350534f5c23a114832a04d88ed4d4522cf"


def test_smith_normal_form_reports_a_broken_chain(monkeypatch):
    eye = identity_mat(2)
    monkeypatch.setattr(
        xl, "_snf_full", lambda a: xl.SmithDecomposition(eye, (2, 3), eye))
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
        rank = len(xl.smith_normal_form(xl.intmat(rows)).diag)
        assert rank == oracle_rational_rank(rows)


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


@pytest.mark.parametrize("method, args", [
    ("add", ((1, 0), (1,))), ("add", ((1,), (1, 0))),
    ("sub", ((1, 0), (1,))), ("sub", ((1,), (1, 0))),
    ("neg", ((1,),)), ("scale", (2, (1,)))],
    ids=["add-right", "add-left", "sub-right", "sub-left", "neg", "scale"])
def test_group_arithmetic_refuses_a_vector_of_the_wrong_length(method, args):
    g = xl.FgAbelianGroup(1, (2,))
    with pytest.raises(InputError, match="^lift vector has length 1, expected 2$"):
        getattr(g, method)(*args)


def test_relation_columns_with_slack_signs():
    g = xl.FgAbelianGroup(1, (2, 6))
    assert g.relation_columns() == [(0, 2, 0), (0, 0, 6)]


def test_quotient_and_subgroup_presentations():
    g = xl.FgAbelianGroup(2, ())
    quot, _ = xl.quotient_presentation(g, [(2, 0)])
    assert (quot.free_rank, quot.invariant_factors) == (1, (2,))
    sub, images = xl.subgroup_presentation(g, [(2, 0), (0, 3)])
    assert (sub.free_rank, sub.invariant_factors) == (2, ())
    assert len(images) == 2


def _two_step_subgroup_presentation(group, elements):
    """The old path: a quotient decides the span, then the relations come
    from a separate kernel of [elements | relations]."""
    elements = [group.reduce_vector(e) for e in elements]
    quot, _ = xl.quotient_presentation(group, elements)
    if quot.is_trivial:
        return group, elements
    system = xl.intmat_from_columns(elements + group.relation_columns(),
                                    nrows=group.lift_dim)
    relations = [col[:len(elements)]
                 for col in xl.mat_columns(xl.kernel_basis(system))]
    sub, proj = xl.group_from_relations(len(elements), relations)
    return sub, [sub.reduce_vector(col) for col in xl.mat_columns(proj)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.data())
def test_subgroup_presentation_matches_the_two_step_path(data):
    group = xl.FgAbelianGroup(
        data.draw(st.integers(0, 2)),
        data.draw(st.sampled_from([(), (2,), (3,), (2, 4), (6,)])))
    vec = st.tuples(*[st.integers(-4, 4)] * group.lift_dim)
    elements = data.draw(st.lists(vec, max_size=4))
    assert xl.subgroup_presentation(group, elements) == \
        _two_step_subgroup_presentation(group, elements)


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


@st.composite
def _injective_homs(draw):
    """An injective hom Z^k (+) T -> Z^m (+) Z/g_1 (+) ..., k <= m <= 3,
    T = 0 or Z/2: the free block is lower triangular with a nonzero
    diagonal, rows permuted, and the generator of Z/2 goes to half the last
    (even) invariant factor.  k = 0 with T = 0 is the trivial source."""
    k = draw(st.integers(0, 2))
    m = draw(st.integers(k, 3))
    torsion = draw(st.sampled_from([(), (2,)]))
    orders = draw(st.sampled_from([(4,), (2, 6)] if torsion else
                                  [(), (2,), (4,), (2, 6)]))
    source, target = xl.FgAbelianGroup(k, torsion), xl.FgAbelianGroup(m, orders)
    free = [[draw(st.integers(-3, 3)) if j < i else
             draw(st.sampled_from([-2, -1, 1, 3])) if j == i else 0
             for j in range(k)] for i in range(m)]
    free = [free[i] for i in draw(st.permutations(range(m)))]
    residues = [[draw(st.integers(0, g - 1)) for _ in range(k)] for g in orders]
    rows = [row + [0] * len(torsion) for row in free + residues]
    if torsion:
        rows[-1][-1] = orders[-1] // 2
    return source, target, xl.intmat(rows, ncols=source.lift_dim)


def _hom_kernel_with_fallback(source, target, matrix):
    """``hom_kernel`` with the removed fallback for a kernel without
    generators."""
    gens = relations_among(
        target, xl.mat_columns(xl._hom_matrix(source, target, matrix)))
    return xl.subgroup_presentation(source, gens)[0] if gens else \
        xl.FgAbelianGroup(0, ())


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_injective_homs())
def test_the_kernel_of_an_injective_hom_is_trivial(hom):
    source, target, matrix = hom
    assert xl._kills_relations(source, target, matrix)
    assert xl.hom_kernel(source, target, matrix) == \
        _hom_kernel_with_fallback(source, target, matrix) == \
        xl.FgAbelianGroup(0, ())


@pytest.mark.parametrize("target", [
    xl.FgAbelianGroup(0, ()), xl.FgAbelianGroup(2, ()),
    xl.FgAbelianGroup(1, (2, 6))])
def test_a_trivial_source_has_a_kernel_without_generators(target):
    # the case the removed fallback answered: no relations to present
    trivial, matrix = xl.FgAbelianGroup(0, ()), xl.intmat(
        [[]] * target.lift_dim, ncols=0)
    cols = xl.mat_columns(xl._hom_matrix(trivial, target, matrix))
    assert xl._kernel_columns(xl._decompose_among(target, cols), 0) == []
    assert xl.hom_kernel(trivial, target, matrix) == trivial


def test_hom_well_defined_respects_torsion():
    z2 = xl.FgAbelianGroup(0, (2,))
    z = xl.FgAbelianGroup(1, ())
    # Z/2 -> Z sending the generator to 1 is not a homomorphism
    assert not xl._kills_relations(z2, z, xl.intmat([[1]]))
    assert xl._kills_relations(z2, z, xl.intmat([[0]]))
    # Z/2 -> Z/4 by 1 -> 2 is fine, by 1 -> 1 is not
    z4 = xl.FgAbelianGroup(0, (4,))
    assert xl._kills_relations(z2, z4, xl.intmat([[2]]))
    assert not xl._kills_relations(z2, z4, xl.intmat([[1]]))
    # a matrix of the wrong shape is refused at the hom door
    for wrong in ([[0, 0]], [[0], [0]], xl.IntMatrix(((0, 0),), 2)):
        with pytest.raises(InputError):
            xl._hom_matrix(z2, z4, wrong)


def _hom_is_well_defined_per_coordinate(source, target, matrix):
    """The earlier test of a hom matrix: each torsion generator of the
    source, times its order, must map to zero coordinate by coordinate."""
    matrix = xl._as_matrix(matrix)
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


_TORSION = [(), (2,), (3,), (4,), (6,), (2, 4), (2, 6), (3, 9)]


@st.composite
def _lift_matrices(draw):
    """Groups with torsion on both sides and a matrix of the lift shape.

    Half the draws make each torsion column a hom on its own: zero on the
    free rows, and a multiple of g / gcd(f, g) on the row of each target
    factor g.  The other half keep the raw entries, which are rarely a hom
    when the source has torsion."""
    source, target = (xl.FgAbelianGroup(draw(st.integers(0, 2)),
                                        draw(st.sampled_from(_TORSION)))
                      for _ in range(2))
    rows = [[draw(st.integers(-12, 12)) for _ in range(source.lift_dim)]
            for _ in range(target.lift_dim)]
    if draw(st.booleans()):
        orders = (0,) * target.free_rank + target.invariant_factors
        for i, f in enumerate(source.invariant_factors, source.free_rank):
            for row, g in zip(rows, orders):
                row[i] = g // gcd(f, g) * row[i] if g else 0
    return source, target, xl.intmat(rows, ncols=source.lift_dim)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_lift_matrices())
def test_hom_well_defined_matches_the_per_coordinate_test(case):
    # relations mapping to zero is the per-coordinate torsion rule
    source, target, matrix = case
    assert xl._kills_relations(source, target, matrix) == \
        _hom_is_well_defined_per_coordinate(source, target, matrix)


@pytest.mark.parametrize("source, target", [
    ((0, (4,)), (1, (6,))), ((0, (2, 4)), (0, (6,))), ((1, (3,)), (0, (9,))),
    ((0, (6,)), (0, (2, 4)))],
    ids=["Z4-to-Z+Z6", "Z2+Z4-to-Z6", "Z+Z3-to-Z9", "Z6-to-Z2+Z4"])
def test_hom_well_defined_matches_the_per_coordinate_test_on_every_small_matrix(
        source, target):
    # every matrix with entries in [-6, 6]: homs and non-homs both occur
    source, target = xl.FgAbelianGroup(*source), xl.FgAbelianGroup(*target)
    seen = set()
    for entries in itertools.product(range(-6, 7), repeat=2):
        it = iter(entries)
        matrix = xl.intmat([[next(it) for _ in range(source.lift_dim)]
                            for _ in range(target.lift_dim)])
        verdict = xl._kills_relations(source, target, matrix)
        assert verdict == _hom_is_well_defined_per_coordinate(
            source, target, matrix), matrix
        seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("entry, target", [
    (xl.hom_kernel, xl.FgAbelianGroup(0, (3,))),
    (xl.hom_cokernel, xl.FgAbelianGroup(1, ())),
], ids=["kernel-Z2-to-Z3", "cokernel-Z2-to-Z"])
def test_a_matrix_that_is_not_a_hom_is_refused(entry, target):
    # the generator of Z/2 has order 2, and 1 has order 3 in Z/3 and is of
    # infinite order in Z
    z2 = xl.FgAbelianGroup(0, (2,))
    assert not xl._kills_relations(z2, target, xl.intmat([[1]]))
    with pytest.raises(DomainError,
                       match="^matrix is not a homomorphism of the ambient groups$"):
        entry(z2, target, [[1]])


def test_is_prime_matches_trial_division():
    for n in range(-3, 500):
        assert xl.is_prime(n) == oracle_is_prime(n), n
    assert xl.is_prime(2 ** 31 - 1)  # Mersenne prime
    assert not xl.is_prime(2 ** 31)


# the least strong pseudoprimes to the prime bases up to 37 (psi_12) and up
# to 41 (psi_13), Sorenson and Webster, Math. Comp. 86 (2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_is_exact_up_to_psi_13():
    # psi_12 passes Miller-Rabin on the bases 2 to 37; base 41 finds it
    assert PSI_12 == 399165290221 * 798330580441
    assert not xl.is_prime(PSI_12)
    assert xl.is_prime(318665857834031151167483)  # the next prime
    assert xl.is_prime(3317044064679887385961813)  # the last prime below psi_13
    assert not xl.is_prime(PSI_13 - 1)
    for n in (PSI_13, PSI_13 + 2, 2 ** 89 - 1):
        with pytest.raises(DomainError):
            xl.is_prime(n)


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


_DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                         max_examples=200,
                         suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _systems(draw, bounded=False, min_cols=1, max_cols=6):
    """A random m x n matrix, m <= 3, ``min_cols`` <= n <= ``max_cols``,
    entries in [-4, 4], and the old search's coordinate bounds for the
    capped search when ``bounded`` (1 on the last coordinate), else None."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(min_cols, max_cols))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    return rows, [None] * (n - 1) + [1] if bounded else None


def _capped_search(rows):
    """The search on the columns of ``rows``, the last coordinate capped."""
    gram = xl._gram(xl.mat_columns(xl.intmat(rows)))
    return xl._minimal_solutions(gram, capped=True)


def _lex_filter():
    """A predicate that, fed the old search's solutions in order, passes
    those the capped search yields: all of them up to the first (x, 1), and
    after it only those whose head is lex-below the head of every (x, 1)
    passed so far."""
    best = []

    def passes(t):
        if best and t[:-1] >= best[-1]:
            return False
        if t[-1]:
            best.append(t[:-1])
        return True

    return passes


@_DIFFERENTIAL
@given(_systems())
def test_minimal_solutions_match_old_search(case):
    rows, _ = case
    assert xl.minimal_nonneg_solutions(rows) == \
        _oracle_minimal_nonneg_solutions(rows), rows


@_DIFFERENTIAL
@given(_systems(bounded=True))
def test_minimal_solutions_match_old_search_with_bounds(case):
    rows, bounds = case
    passes = _lex_filter()
    assert list(_capped_search(rows)) == [
        t for t in _oracle_minimal_nonneg_solutions(
            rows, coordinate_bounds=bounds) if passes(t)], case


@settings(_DIFFERENTIAL, max_examples=150)
@given(_systems(bounded=True, max_cols=5), st.integers(0, 5), st.integers(1, 3))
def test_minimal_solutions_stop_where_old_search_stops(case, j, level):
    # stopping early is no longer iterating: the solutions seen up to the
    # first that satisfies the predicate are the ones the old search
    # returned, through the lex filter, with that predicate as its stop.
    # Five columns at most: on a six-column system without solutions the
    # old search takes 36 s.
    rows, bounds = case

    def stop(t):
        return t[j % len(t)] >= level

    got = []
    for t in _capped_search(rows):
        got.append(t)
        if stop(t):
            break
    passes, want = _lex_filter(), []

    def stop_passed(t):
        if not passes(t):
            return False
        want.append(t)
        return stop(t)

    _oracle_minimal_nonneg_solutions(rows, coordinate_bounds=bounds,
                                     stop=stop_passed)
    assert got == want, (case, j, level)


@st.composite
def _targets(draw):
    """A system A x = b with at most 4 columns, none included, and a target
    that is zero, drawn, or A x0 for some x0 >= 0.  The old search takes
    seconds on some homogenized systems with more columns."""
    rows, _ = draw(_systems(min_cols=0, max_cols=4))
    m, n = len(rows), len(rows[0])
    kind = draw(st.sampled_from(["zero", "drawn", "image"]))
    if kind == "zero":
        return rows, (0,) * m
    if kind == "drawn":
        return rows, tuple(draw(st.lists(st.integers(-6, 6), min_size=m,
                                         max_size=m)))
    x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return rows, tuple(sum(u * v for u, v in zip(r, x0)) for r in rows)


@_DIFFERENTIAL
@given(_targets())
def test_nonneg_solving_matches_the_old_homogenized_search(case):
    # the old path: the minimal solutions (x, 1) of [A | -b] found by the
    # old search with the last coordinate bounded by 1
    rows, b = case
    n = len(rows[0])
    hom = [r + [-x] for r, x in zip(rows, b)]
    sols = [s[:n] for s in _oracle_minimal_nonneg_solutions(
        hom, coordinate_bounds=[None] * n + [1]) if s[n] == 1]
    assert has_nonneg_solution(rows, b) == bool(sols), case
    assert xl.solve_nonneg(rows, b) == min(sols, default=None), case


def _box_solutions(rows, b, bound):
    """All x in [0, bound]^n with A x = b, in lexicographic order."""
    n = len(rows[0])
    return [x for x in itertools.product(range(bound + 1), repeat=n)
            if all(sum(u * v for u, v in zip(r, x)) == bi
                   for r, bi in zip(rows, b))]


@st.composite
def _positive_row_systems(draw):
    """A x = b whose first row is positive, so every solution lies in the
    box [0, b_0]^n and box enumeration decides the system; half the right
    sides are A x0 for some x0 >= 0."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    first = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = [first] + draw(st.lists(row, min_size=m - 1, max_size=m - 1))
    if draw(st.booleans()):
        x0 = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        b = [sum(u * v for u, v in zip(r, x0)) for r in rows]
    else:
        b = [draw(st.integers(0, 8))] + \
            [draw(st.integers(-6, 6)) for _ in range(m - 1)]
    return rows, tuple(b)


@_DIFFERENTIAL
@given(_positive_row_systems())
def test_nonneg_solving_matches_box_enumeration(case):
    rows, b = case
    box = _box_solutions(rows, b, b[0])
    assert has_nonneg_solution(rows, b) == bool(box), case
    assert xl.solve_nonneg(rows, b) == (box[0] if box else None), case


@_DIFFERENTIAL
@given(_systems(), st.data())
def test_solve_nonneg_on_mixed_signs_is_lex_below_the_box(case, data):
    # mixed signs leave solutions unbounded, so the box only bounds from above
    rows, _ = case
    n = len(rows[0])
    x0 = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    b = tuple(sum(u * v for u, v in zip(r, x0)) for r in rows)
    assert has_nonneg_solution(rows, b)
    x = xl.solve_nonneg(rows, b)
    assert all(c >= 0 for c in x) and xl.apply(xl.intmat(rows), x) == b
    box = _box_solutions(rows, b, 2)
    assert x <= box[0], (case, x0)
    assert x not in box or x == box[0], (case, x0)


def _random_cd_inputs(seed, count):
    """Fixed-seed systems up to 3 x 6 with entries in [-4, 4].  About 40% of
    draws also draw coordinate caps, which the search no longer takes; the
    draws stay so that the systems are the same as before."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 6)
        out.append([[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)])
        if rng.random() < 0.4:
            for _ in range(n):
                rng.choice([None, None, 0, 1, 2, 3])
    return out


def test_minimal_solutions_are_pinned():
    # The solutions come out level by level, sorted within a level, and
    # callers (fiber products, Kummer detection, membership) depend on that
    # order; this digest was recorded with the search before it became a
    # generator.
    payload = json.dumps(
        [xl.minimal_nonneg_solutions(rows)
         for rows in _random_cd_inputs(20261020, 50)],
        separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        "cbc48bce479c9bd3da4588e33d5727e38b29d0db168a50d64efbf74ce222791d"


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
    assert not has_nonneg_solution(xl.intmat([[-1]]), (2,))
    assert has_nonneg_solution(xl.intmat([[2, 3]]), (7,))


@pytest.mark.parametrize("cols", [
    # the columns of [[3, -2, 1, -5], [1, 4, -3, -2]]
    [(3, 1), (-2, 4), (1, -3), (-5, -2)],
    # the membership system of a 10-generator monoid of units of Z^2
    mc.AffineMonoid.from_vectors([
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (2, 1),
        (-2, -1), (1, 2), (-1, -2)])._system,
], ids=["4-columns", "units-of-Z2"])
def test_a_zero_target_costs_one_level(cols):
    # (0, ..., 0, 1) is the least tuple of level 1 and no tuple is lex-below
    # the head 0, so the capped search cuts every child of level 1; without
    # the cut it would go on through the homogeneous solutions of A
    n = len(cols)
    gram = xl._gram([*cols, (0, 0)])
    assert list(xl._minimal_solutions(gram, capped=True)) == [(0,) * n + (1,)]
    assert list(xl._nonneg_solutions(cols, (0, 0))) == [(0,) * n]
    a = xl.intmat_from_columns(cols, nrows=2)
    assert xl.solve_nonneg(a, (0, 0)) == (0,) * n
    assert has_nonneg_solution(a, (0, 0))


def test_frobenius_gaps_of_2_3():
    # the numerical semigroup <2,3> misses exactly 1
    a = xl.intmat([[2, 3]])
    members = [n for n in range(8) if has_nonneg_solution(a, (n,))]
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


_QUADRANT = cc.fan_from_cones(
    [cc.RationalCone.from_rays([(1, 0), (0, 1)], 2)], 2)
_HALF_ROW, _HALF = xl.IntMatrix(((1.5, 2),), 2), xl.IntMatrix(((1.5,),), 1)


@pytest.mark.parametrize("call", [
    lambda: xl.FgAbelianGroup(1.5),
    lambda: xl.FgAbelianGroup(1, (2.5,)),
    lambda: xl.FgAbelianGroup(1, ("2",)),
    lambda: xl.FgAbelianGroup(1, (2,)).reduce_vector((0.5, 1)),
    lambda: xl.solve_nonneg([[1, 2]], (1.5,)),
    lambda: has_nonneg_solution([[1, 2]], (1.5,)),
    lambda: xl.solve_integer([[1, 2]], (1.5,)),
    lambda: xl.hom_kernel(xl.FgAbelianGroup(1), xl.FgAbelianGroup(1), [[0.5]]),
    lambda: cc.stellar_subdivision(_QUADRANT, (0.5, 1)),
    lambda: cc.stellar_subdivision(_QUADRANT, ("1", 1)),
    lambda: xl.intmat([[1, 2], [3, 4]]) @ (0.5, 1),
    # an IntMatrix is built unchecked, so every door checks its entries
    lambda: xl.smith_normal_form(_HALF_ROW),
    lambda: xl.kernel_basis(_HALF_ROW),
    lambda: xl.solve_integer(_HALF_ROW, (1,)),
    lambda: xl.cokernel(_HALF_ROW),
    lambda: xl.minimal_nonneg_solutions(_HALF_ROW),
    lambda: xl.solve_nonneg(_HALF_ROW, (1,)),
    lambda: xl.hom_kernel(xl.FgAbelianGroup(1), xl.FgAbelianGroup(1), _HALF),
    lambda: xl.hom_cokernel(xl.FgAbelianGroup(1), xl.FgAbelianGroup(1), _HALF),
    lambda: lha.MonoidHom(mc.free_monoid(1), mc.free_monoid(1), _HALF),
    # True is not read as 1 at any door, as no CLI document reads it so
    lambda: xl.FgAbelianGroup(True),
    lambda: mc.free_monoid(True),
    lambda: xl.solve_integer([[1]], [True]),
    lambda: xl.solve_nonneg([[1]], [True]),
    lambda: xl.intmat([[2]]) @ (True,),
    lambda: mc.MonoidElement(free=(True, 2)),
    lambda: cc.RationalCone.from_rays([(True, 0), (0, 1)], 2),
    lambda: mc.MonoidPresentation(1, [((True,), (0,))]),
    lambda: mc.AffineMonoid.from_vectors([(True, 0), (0, 1)]),
    lambda: lha.kato_criterion(lha.MonoidHom(
        mc.free_monoid(1), mc.free_monoid(1), [[1]]), True),
    lambda: xl.FgAbelianGroup(1).scale(True, (1,)),
], ids=["free_rank", "factor", "factor_str", "reduce_vector", "solve_nonneg",
        "has_nonneg_solution", "solve_integer", "hom_kernel",
        "stellar_point", "stellar_point_str", "matmul_vector",
        "smith_intmatrix", "kernel_basis_intmatrix", "solve_integer_intmatrix",
        "cokernel_intmatrix", "minimal_nonneg_intmatrix",
        "solve_nonneg_intmatrix", "hom_kernel_intmatrix",
        "hom_cokernel_intmatrix", "monoid_hom_intmatrix",
        "free_rank_bool", "free_monoid_bool", "solve_integer_bool",
        "solve_nonneg_bool", "matmul_bool", "element_bool", "from_rays_bool",
        "presentation_bool", "from_vectors_bool", "kato_bool", "scale_bool"])
def test_non_integers_are_refused_not_truncated(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call", [
    lambda: mc.MonoidPresentation(1.5),
    lambda: cc.RationalCone.from_rays([], 1.5),
    lambda: cc.extreme_rays_of_halfspaces([], 1.5),
    lambda: xl.group_from_relations(1.5, []),
    lambda: xl.cokernel([], nrows=1.5),
    lambda: xl.intmat([], ncols=1.5),
    lambda: xl.intmat_from_columns([], nrows=1.5),
    lambda: cc.Fan(dim=1.5, maximal_cones=()),
    lambda: cc.Fan(dim="x", maximal_cones=()),
], ids=["ngens", "from_rays_dim", "halfspaces_dim", "group_ngens",
        "cokernel_nrows", "intmat_ncols", "from_columns_nrows", "fan_dim",
        "fan_dim_str"])
def test_non_integer_counts_are_refused(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call", [
    lambda: mc.MonoidPresentation(-1),
    lambda: xl.FgAbelianGroup(-1, ()),
    lambda: cc.RationalCone.from_rays([], -1),
    lambda: cc.extreme_rays_of_halfspaces([], -1),
    lambda: cc.Fan(dim=-2, maximal_cones=()),
    lambda: xl.intmat([], ncols=-1),
    lambda: xl.intmat_from_columns([], nrows=-1),
    lambda: xl.group_from_relations(-1, []),
], ids=["ngens", "free_rank", "from_rays_dim", "halfspaces_dim", "fan_dim",
        "intmat_ncols", "from_columns_nrows", "group_ngens"])
def test_negative_counts_are_refused(call):
    with pytest.raises(InputError, match="^negative "):
        call()


_Z2 = xl.FgAbelianGroup(0, (2,))


@pytest.mark.parametrize("call", [
    lambda: xl.intmat_from_columns([(1, 2)], nrows=3),
    lambda: xl.group_from_relations(3, [(2,)]),
    lambda: xl.hom_kernel(_Z2, _Z2, [[1], [0]]),
    lambda: xl.hom_cokernel(_Z2, _Z2, [[1], [0]]),
    lambda: xl.hom_cokernel(_Z2, _Z2, [[1, 0]]),
    lambda: cc.stellar_subdivision(_QUADRANT, (1, 1, 0)),
    lambda: cc.stellar_subdivision(cc.Fan(2, ()), (1, 1, 0)),
    # nrows is the row count of the cokernel's matrix, whatever the matrix
    lambda: xl.cokernel(xl.IntMatrix((), 0), nrows=3),
    lambda: xl.cokernel([[1]], nrows=3),
], ids=["from_columns", "group_from_relations", "hom_kernel",
        "hom_cokernel_rows", "hom_cokernel_cols", "stellar_point",
        "stellar_point_empty_fan", "cokernel_empty_intmatrix",
        "cokernel_rows"])
def test_wrong_shapes_are_refused_not_truncated(call):
    with pytest.raises(InputError):
        call()


def test_intmat_surface():
    a = xl.intmat([[1, 2, 3], [4, 5, 6]])
    assert a.shape == (2, 3)
    assert a[1, 2] == 6 and a[-1, 0] == 4
    assert a.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert a @ (1, 0, -1) == (-2, -2)
    assert (a @ xl.intmat_from_columns([(1, 0, 0), (0, 0, 1)])).tolist() == \
        [[1, 3], [4, 6]]
    assert a.any() and not zeros_mat(2, 3).any()
    assert a == xl.intmat([(1, 2, 3), (4, 5, 6)])
    assert a != xl.intmat([[1, 2, 3]]) and zeros_mat(0, 2) != zeros_mat(0, 3)
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


def test_nested_rows_and_int_matrices_are_converted():
    # a caller's matrix is nested integer rows or an IntMatrix, both checked
    rows = ((2, 4), (6, 8))
    for a in (list(map(list, rows)), rows, xl.IntMatrix(rows, 2)):
        assert xl.smith_normal_form(a).diag == (2, 4)
    assert xl.kernel_basis(xl.IntMatrix((), 2)).shape == (2, 2)
    for flat in ([1, 2], xl.IntMatrix((1, 2), 2)):
        with pytest.raises(InputError):
            xl.smith_normal_form(flat)


def test_the_empty_matrix_maps_into_the_trivial_group():
    # [] has the source's lift width at the hom door, as in MonoidHom
    z, trivial = xl.FgAbelianGroup(1), xl.FgAbelianGroup(0)
    assert xl.hom_kernel(z, trivial, []) == z
    assert xl.hom_cokernel(z, trivial, []).is_trivial
    assert xl._hom_matrix(z, trivial, []) == xl.IntMatrix((), 1)


def test_cokernel_of_the_empty_sequence_has_nrows_rows():
    assert xl.cokernel([], nrows=2) == xl.FgAbelianGroup(2)
    assert xl.cokernel([]).is_trivial


def test_group_rejects_bad_invariant_factors():
    with pytest.raises(InputError):
        xl.FgAbelianGroup(1, (1,))
    with pytest.raises(InputError):
        xl.FgAbelianGroup(1, (0,))
    with pytest.raises(InputError):
        xl.FgAbelianGroup(1, (3, 2))  # not a divisibility chain
    with pytest.raises(InputError):
        xl.FgAbelianGroup(-1, ())


# ---------------------------------------------------------------------------
# determinant and adjugate by fraction-free elimination


@st.composite
def _square_matrices(draw):
    """An n x n matrix, n <= 5, entries up to 9 or up to 10^6; sometimes
    the last row is an integer combination of the others (singular)."""
    n = draw(st.integers(1, 5))
    r = draw(st.sampled_from([1, 9, 10 ** 6]))
    row = st.lists(st.integers(-r, r), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1,
                               max_size=n - 1))
        rows[-1] = [sum(c * x for c, x in zip(coeffs, col))
                    for col in zip(*rows[:-1])] if n > 1 else [0]
    return rows


@settings(_DIFFERENTIAL, max_examples=300)
@given(_square_matrices())
def test_det_matches_smith_diagonal(rows):
    # |det| is the product of the invariant factors, 0 below full rank
    n = len(rows)
    det, adj = xl.det_adjugate(rows)
    diag = xl.smith_normal_form(rows).diag
    product = 1
    for d in diag:
        product *= d
    assert abs(det) == (product if len(diag) == n else 0)
    assert det == _det(rows)
    if det:
        scaled = [[det * x for x in r] for r in _eye(n)]
        assert _matmul(adj, rows) == scaled
        assert _matmul(rows, adj) == scaled
    else:
        assert adj is None


def test_det_adjugate_small_cases():
    assert xl.det_adjugate([]) == (1, ())
    assert xl.det_adjugate([[-4]]) == (-4, ((1,),))
    # a zero first pivot takes a row swap, which flips the sign
    assert xl.det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
    assert xl.det_adjugate([[1, 2], [2, 4]]) == (0, None)
    with pytest.raises(InputError):
        xl.det_adjugate([[1, 2]])
