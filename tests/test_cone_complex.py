"""Oracle-backed tests for rational cones and fans.

The conic-membership oracle is a self-contained Fourier-Motzkin elimination
over fractions; it shares no code with the library.  Hilbert bases are
checked for completeness by scanning an integer box, triangulations by
sampled rational points, resolutions by the refinement / support / regularity
properties, fan validation against the all-pairs intersection check, and
duality against double description from scratch.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.monoid_core as mc
from logmonoid._verify import (face_by_normal, facets, intersect, is_face_of,
                               smallest_containing_face)
from logmonoid.errors import DomainError, InputError, InternalCheckError


_DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                         max_examples=200,
                         suppress_health_check=[HealthCheck.too_slow])
# entry ranges keep the multiplicities, and so the oracle's all-pairs
# reduction, small: dimension -> largest absolute entry
_ENTRY_RANGE = {1: 9, 2: 6, 3: 3, 4: 2}


# ---------------------------------------------------------------------------
# oracle: v in cone(gens) over Q, by Fourier-Motzkin elimination


def oracle_in_cone(gens, v):
    """Whether v is a nonnegative rational combination of gens.

    Sets up the system sum_i x_i g_i = v, x >= 0 and eliminates the equality
    rows by substitution, then the variables by Fourier-Motzkin.
    """
    n = len(gens)
    if n == 0:
        return not any(v)
    # inequalities as rows (a_1..a_n, c) meaning a . x + c >= 0
    ineqs = [[Fraction(1) if j == i else Fraction(0) for j in range(n)]
             + [Fraction(0)] for i in range(n)]
    # equalities g . x = v_k
    eqs = [[Fraction(g[k]) for g in gens] + [Fraction(-v[k])]
           for k in range(len(v))]
    # substitute equalities away
    for eq in list(eqs):
        pivot = next((j for j in range(n) if eq[j] != 0), None)
        if pivot is None:
            if eq[n] != 0:
                return False
            continue
        for other in ineqs:
            if other[pivot] != 0:
                f = other[pivot] / eq[pivot]
                for j in range(n + 1):
                    other[j] -= f * eq[j]
        for other in eqs:
            if other is not eq and other[pivot] != 0:
                f = other[pivot] / eq[pivot]
                for j in range(n + 1):
                    other[j] -= f * eq[j]
        # x_pivot is now determined; drop it by keeping the equation only to
        # express nonnegativity of x_pivot: x_pivot = -(rest)/eq[pivot] >= 0
        row = [Fraction(0)] * (n + 1)
        for j in range(n + 1):
            row[j] = -eq[j] / eq[pivot] if j != pivot else Fraction(0)
        ineqs = [r for r in ineqs
                 if not (r[pivot] == 1 and sum(abs(x) for x in r) == 1)]
        ineqs.append(row)
        eq[:] = [Fraction(0)] * (n + 1)
    # Fourier-Motzkin on the remaining free variables
    for var in range(n):
        pos = [r for r in ineqs if r[var] > 0]
        neg = [r for r in ineqs if r[var] < 0]
        rest = [r for r in ineqs if r[var] == 0]
        new = list(rest)
        for p in pos:
            for q in neg:
                row = [p[j] * (-q[var]) + q[j] * p[var] for j in range(n + 1)]
                row[var] = Fraction(0)
                new.append(row)
        ineqs = new
    return all(r[n] >= 0 for r in ineqs)


def oracle_extreme(gens, i):
    """Whether gens[i] is NOT a nonnegative combination of the others."""
    others = gens[:i] + gens[i + 1:]
    return not oracle_in_cone(others, gens[i])


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v) if g else tuple(v)


# ---------------------------------------------------------------------------
# oracle sanity (the oracle itself must be right)


def test_oracle_in_cone_sanity():
    quad = [(1, 0), (0, 1)]
    assert oracle_in_cone(quad, (3, 5))
    assert not oracle_in_cone(quad, (-1, 0))
    assert oracle_in_cone([(2, 1), (1, 2)], (1, 1))
    assert not oracle_in_cone([(2, 1), (1, 2)], (1, 0))
    assert oracle_in_cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)], (2, 2, 2))
    assert not oracle_in_cone([(1, 0, 0), (0, 1, 0), (1, 1, 2)], (0, 0, 1))
    assert oracle_in_cone([], (0, 0))
    assert not oracle_in_cone([], (1, 0))


# ---------------------------------------------------------------------------
# construction, membership, duality


def test_cone_membership_matches_oracle():
    rng = random.Random(31)
    for _ in range(25):
        dim = rng.randint(2, 3)
        k = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = cc.RationalCone.from_rays(gens, dim)
        for _ in range(10):
            v = tuple(rng.randint(-4, 4) for _ in range(dim))
            assert cone.contains(v) == oracle_in_cone(gens, v), (gens, v)


def test_extreme_rays_match_oracle():
    rng = random.Random(37)
    for _ in range(25):
        dim = rng.randint(2, 3)
        k = rng.randint(2, 5)
        gens = [tuple(rng.randint(-2, 3) for _ in range(dim))
                for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = cc.RationalCone.from_rays(gens, dim)
        if not cone.is_strongly_convex:
            continue  # extremality of single rays only meaningful if pointed
        prims = sorted({_primitive(g) for g in gens})
        want = sorted(p for i, p in enumerate(prims)
                      if oracle_extreme(prims, i))
        assert sorted(cone.extreme_rays) == want, gens


def test_dual_cone_pairs():
    cases = [
        ([(1, 0), (0, 1)], [(1, 0), (0, 1)]),
        ([(2, -1), (0, 1)], [(1, 0), (1, 2)]),
        ([(1, 0), (1, 2)], [(2, -1), (0, 1)]),
        ([(1, 0), (1, 1), (1, 2)], [(2, -1), (0, 1)]),
    ]
    for rays, want in cases:
        dual = cc.dual_cone(cc.RationalCone.from_rays(rays, 2))
        assert sorted(dual.extreme_rays) == sorted(want), rays


def test_double_dual_is_identity():
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = cc.RationalCone.from_rays(gens, dim)
        assert cc.dual_cone(cc.dual_cone(cone)) == cone, gens


def test_dual_of_full_space_is_origin():
    full = cc.RationalCone.from_rays(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    dual = cc.dual_cone(full)
    assert dual.is_zero
    assert cc.dual_cone(dual) == full


# Oracles for duality: double description from scratch, without the dual
# description a canonical cone stores.


def _oracle_dual_cone(cone):
    """from_rays of the facet normals and +/- the span equations (two DD
    runs)."""
    gens = list(cone.facet_normals)
    for eq in cone.span_equations:
        gens.append(eq)
        gens.append(cc.vneg(eq))
    return cc.RationalCone.from_rays(gens, cone.dim)


def _oracle_cone_from_constraints(normals, equations, dim):
    """Generators of the constraint cone by one DD run, then from_rays on
    them (three DD runs)."""
    constraints = [tuple(int(x) for x in n) for n in normals]
    for eq in equations:
        eq = tuple(int(x) for x in eq)
        constraints.append(eq)
        constraints.append(cc.vneg(eq))
    rays, lin = cc.extreme_rays_of_halfspaces(constraints, dim)
    gens = list(rays)
    for l in lin:
        gens.append(l)
        gens.append(cc.vneg(l))
    return cc.RationalCone.from_rays(gens, dim)


def _vectors(dim):
    r = _ENTRY_RANGE[dim]
    return st.tuples(*[st.integers(-r, r)] * dim)


@st.composite
def _with_zero_and_repeat(draw, vectors, dim):
    """The list, sometimes with the zero vector or a repeat appended."""
    vectors = list(vectors)
    if draw(st.booleans()):
        vectors.append((0,) * dim)
    if vectors and draw(st.booleans()):
        vectors.append(draw(st.sampled_from(vectors)))
    return vectors


@st.composite
def _generator_lists(draw, dim=None):
    """Up to dim + 2 generators in Z^1..Z^4 and the dimension, zero and
    repeated ones included: sometimes inside a proper subspace (not
    full-dimensional), sometimes with the negatives of some generators
    (antipodal pairs, a lineality space)."""
    if dim is None:
        dim = draw(st.integers(1, 4))
    gens = draw(st.lists(_vectors(dim), max_size=dim + 2))
    if dim > 1 and draw(st.booleans()):
        # integer combinations of k vectors span at most a k-space
        k = draw(st.integers(1, dim - 1))
        basis = draw(st.lists(_vectors(dim), min_size=k, max_size=k))
        coeffs = st.lists(st.integers(-2, 2), min_size=k, max_size=k)
        gens = [tuple(sum(c * b[i] for c, b in zip(cs, basis))
                      for i in range(dim))
                for cs in draw(st.lists(coeffs, min_size=len(gens),
                                        max_size=len(gens)))]
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(gens),
                              max_size=len(gens)))
        gens += [cc.vneg(g) for g, flip in zip(gens, flips) if flip]
    return draw(_with_zero_and_repeat(gens, dim)), dim


def _any_cones(dim=None):
    """The cone of a ``_generator_lists`` draw."""
    return _generator_lists(dim).map(
        lambda case: cc.RationalCone.from_rays(*case))


@st.composite
def _constraint_systems(draw):
    """Normals and equations in Z^1..Z^4, zero and repeated ones included;
    either list may be empty."""
    dim = draw(st.integers(1, 4))
    normals = draw(st.lists(_vectors(dim), max_size=dim + 3))
    equations = draw(st.lists(_vectors(dim), max_size=2))
    return (draw(_with_zero_and_repeat(normals, dim)),
            draw(_with_zero_and_repeat(equations, dim)), dim)


@settings(_DIFFERENTIAL, max_examples=300)
@given(_any_cones())
def test_dual_cone_matches_oracle(cone):
    dual = cc.dual_cone(cone)
    assert dual == _oracle_dual_cone(cone)
    assert _oracle_dual_cone(dual) == cone


@settings(_DIFFERENTIAL, max_examples=300)
@given(_constraint_systems())
def test_cone_from_constraints_matches_oracle(case):
    assert cc.cone_from_constraints(*case) == \
        _oracle_cone_from_constraints(*case)


@settings(_DIFFERENTIAL, max_examples=150)
@given(st.integers(1, 4).flatmap(
    lambda dim: st.tuples(_any_cones(dim), _any_cones(dim))))
def test_intersect_matches_oracle(pair):
    a, b = pair
    assert intersect(a, b) == _oracle_cone_from_constraints(
        a.facet_normals + b.facet_normals,
        a.span_equations + b.span_equations, a.dim)


# Oracles for extremality: a rank per candidate ray inside the double
# description, and a second double description in from_rays, the paths that
# the incidence rule of ``cc._extreme_classes`` replaces.


def _oracle_extreme_rays_of_halfspaces(normals, dim):
    """Double description with a final filter that keeps the rays whose
    tight normals have rank dim - dim(lineality) - 1."""
    normals = [tuple(int(x) for x in n) for n in normals]
    normals = [n for n in normals if any(n)]
    rays = []
    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    for idx, n in enumerate(normals):
        hit = next((l for l in lin if cc.vdot(n, l) != 0), None)
        if hit is not None:
            lin.remove(hit)
            a = cc.vdot(n, hit)
            pivot = hit if a > 0 else cc.vneg(hit)
            a = abs(a)
            lin = [cc.primitive(cc.vcomb(a, l, -cc.vdot(n, l), pivot))
                   for l in lin]
            rays = [(cc.primitive(cc.vcomb(a, e, -cc.vdot(n, e), pivot)),
                     t | {idx}) for e, t in rays]
            rays.append((pivot, set(range(idx))))
            continue
        plus = [(e, t) for e, t in rays if cc.vdot(n, e) > 0]
        zero = [(e, t | {idx}) for e, t in rays if cc.vdot(n, e) == 0]
        minus = [(e, t) for e, t in rays if cc.vdot(n, e) < 0]
        kept = plus + zero
        for (ep, tp), (em, tm) in itertools.product(plus, minus):
            common = tp & tm
            if any(common <= t for e, t in rays
                   if e is not ep and e is not em):
                continue
            kept.append((cc.primitive(cc.vcomb(cc.vdot(n, ep), em,
                                               -cc.vdot(n, em), ep)),
                         common | {idx}))
        rays = kept
    if normals:
        kernel = xl.kernel_basis(xl.intmat(normals, ncols=dim))
        lin_canon = cc.hnf_row_basis(xl.mat_columns(kernel), dim)
    else:
        lin_canon = tuple(tuple(1 if j == i else 0 for j in range(dim))
                          for i in range(dim))
    target = dim - len(lin_canon) - 1
    survivors = []
    for e, tight in rays:
        tight_normals = [normals[i] for i in sorted(tight)]
        rank = len(xl.smith_normal_form(
            xl.intmat(tight_normals, ncols=dim)).diag) if tight_normals else 0
        if rank == target:
            survivors.append(e)
    if lin_canon:
        p, r, _ = cc._quotient_maps(lin_canon, dim)
        survivors = [xl.apply(r, cc.primitive(xl.apply(p, e)))
                     for e in survivors]
    else:
        survivors = [cc.primitive(e) for e in survivors]
    return tuple(sorted(set(survivors))), lin_canon


def _oracle_from_rays(vectors, dim):
    """Facets by one double description, then the extreme rays by a second
    one from the facets (two runs of the rank-filter oracle)."""
    vecs = []
    for v in vectors:
        v = tuple(int(x) for x in v)
        if any(v) and cc.primitive(v) not in vecs:
            vecs.append(cc.primitive(v))
    normals, equations = _oracle_extreme_rays_of_halfspaces(vecs, dim)
    constraints = list(normals)
    for eq in equations:
        constraints.append(eq)
        constraints.append(cc.vneg(eq))
    rays, lin = _oracle_extreme_rays_of_halfspaces(constraints, dim)
    return cc.RationalCone(dim=dim, extreme_rays=rays, lineality=lin,
                           facet_normals=normals, span_equations=equations)


@settings(_DIFFERENTIAL, max_examples=300)
@given(_generator_lists())
def test_from_rays_matches_oracle(case):
    assert cc.RationalCone.from_rays(*case) == _oracle_from_rays(*case)


@st.composite
def _independent_generator_lists(draw):
    """1 to dim linearly independent generators in Z^1..Z^4 and the
    dimension, in random order (so of either determinant sign), some not
    primitive, with entries up to 9 or up to 10^6."""
    dim = draw(st.integers(1, 4))
    k = draw(st.sampled_from([dim, dim, draw(st.integers(1, dim))]))
    r = draw(st.sampled_from([2, 9, 10 ** 6]))
    vec = st.tuples(*[st.integers(-r, r)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=k, max_size=k)
                .filter(lambda g: _rank(g) == k))
    scales = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return [tuple(c * x for x in g) for c, g in zip(scales, gens)], dim


def _oracle_det_abs(vectors):
    """|det| as the product of the Smith invariant factors (0 when
    singular), the old path of ``multiplicity``."""
    n = len(vectors)
    diag = xl.smith_normal_form(xl.intmat(vectors, ncols=n)).diag
    out = 1
    for d in diag:
        out *= d
    return out if len(diag) == n else 0


@settings(_DIFFERENTIAL, max_examples=300)
@given(_independent_generator_lists())
def test_from_rays_of_independent_generators_matches_oracle(case):
    gens, dim = case
    cone = cc.RationalCone.from_rays(gens, dim)
    assert cone == _oracle_from_rays(gens, dim)
    assert cone.is_simplicial
    if cone.is_full_dimensional:
        assert cc.multiplicity(cone) == _oracle_det_abs(cone.extreme_rays)


def test_independent_generators_make_no_double_description(count_calls):
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    # the closed form: one elimination instead of a double description,
    # for full-dimensional simplicial cones only
    for gens in ([(-3,)], [(1, 0), (1, 7)], [(2, 1), (1, 0)],
                 [(1, 0, 0), (0, 1, 0), (1, 1, -5)],
                 [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 9)]):
        cone = cc.RationalCone.from_rays(gens, len(gens[0]))
        assert cone.is_simplicial and cone.is_full_dimensional
    assert dd_calls == []
    cc.RationalCone.from_rays([(1, 0, 1), (1, 2, 1)], 3)
    cc.RationalCone.from_rays([(1, 0), (2, 0)], 2)
    assert len(dd_calls) == 2


def test_pointed_double_description_takes_no_smith_form(count_calls):
    # the incremental lineality says when the saturated kernel is 0, and
    # so do the generators tight on every facet in from_rays
    calls = count_calls(xl, "_snf_full")
    square = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    assert cc.extreme_rays_of_halfspaces(square, 3)[1] == ()
    assert cc.RationalCone.from_rays(square, 3).is_strongly_convex
    assert calls == []
    # a lineality still takes its saturated kernel and its quotient maps
    assert cc.extreme_rays_of_halfspaces([(0, 1, 0)], 3)[1] == \
        ((1, 0, 0), (0, 0, 1))
    assert len(calls) == 2


@settings(_DIFFERENTIAL, max_examples=300)
@given(_constraint_systems())
def test_extreme_rays_of_halfspaces_matches_oracle(case):
    normals, equations, dim = case
    constraints = list(normals)
    for eq in equations:
        constraints += [eq, cc.vneg(eq)]
    for system in (normals, constraints):
        assert cc.extreme_rays_of_halfspaces(system, dim) == \
            _oracle_extreme_rays_of_halfspaces(system, dim)


def test_extreme_rays_of_halfspaces_oracle_sanity():
    # the oracle against hand-computed cones: a quadrant, a half-plane and
    # a line, the full plane, and the cone over a square
    assert _oracle_extreme_rays_of_halfspaces([(1, 0), (0, 1)], 2) == \
        (((0, 1), (1, 0)), ())
    assert _oracle_extreme_rays_of_halfspaces([(0, 1)], 2) == \
        (((0, 1),), ((1, 0),))
    assert _oracle_extreme_rays_of_halfspaces(
        [(0, 1), (0, -1)], 2) == ((), ((1, 0),))
    assert _oracle_extreme_rays_of_halfspaces([], 2) == \
        ((), ((1, 0), (0, 1)))
    square = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    assert _oracle_extreme_rays_of_halfspaces(square, 3)[0] == \
        ((-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1))


@settings(_DIFFERENTIAL, max_examples=150)
@given(_any_cones())
def test_span_coordinates_match_integer_solve(cone):
    # one Smith decomposition per cone gives the coordinates that a solve
    # per vector gave: the span basis has full column rank
    assume(not cone.is_full_dimensional and not cone.is_zero)
    down, up, m = cc._to_span_coords(cone)
    basis = xl.intmat_from_columns(
        cc._saturated_kernel(cone.span_equations, cone.dim), nrows=cone.dim)
    for g in cone.generators + (cc.vadd(cone.generators[0],
                                        cone.generators[-1]),):
        assert down(g) == xl.solve_integer(basis, g)
        assert up(down(g)) == g
    with pytest.raises(InternalCheckError):
        down(cone.span_equations[0])


def test_duality_double_description_counts(count_calls):
    half = cc.RationalCone.from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 1)], 3)
    quadrant = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0)], 3)
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    cc.dual_cone(half)
    cc.dual_cone(quadrant)
    assert len(dd_calls) == 0
    cc.cone_from_constraints([(1, 0, 0), (0, 1, 0)], [(0, 0, 1)], 3)
    assert len(dd_calls) == 1
    dd_calls.clear()
    intersect(half, quadrant)
    assert len(dd_calls) == 1
    dd_calls.clear()
    cc.RationalCone.from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 1), (1, 1, 1)], 3)
    assert len(dd_calls) == 1


def test_lineality_detection():
    half = cc.RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    assert not half.is_strongly_convex
    assert len(half.lineality) == 1
    assert half.contains((-7, 0))
    assert not half.contains((0, -1))


def test_facet_normals_support_the_cone():
    rng = random.Random(43)
    for _ in range(15):
        dim = rng.randint(2, 3)
        gens = [tuple(rng.randint(-2, 3) for _ in range(dim))
                for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = cc.RationalCone.from_rays(gens, dim)
        for normal in cone.facet_normals:
            assert all(sum(n * x for n, x in zip(normal, r)) >= 0
                       for r in cone.generators)
        for eq in cone.span_equations:
            assert all(sum(n * x for n, x in zip(eq, r)) == 0
                       for r in cone.generators)


# ---------------------------------------------------------------------------
# faces


def test_faces_of_quadrant():
    quad = cc.RationalCone.from_rays([(1, 0), (0, 1)], 2)
    fl = cc.faces(quad)
    assert len(fl) == 4
    dims = sorted(f.span_dim for f in fl)
    assert dims == [0, 1, 1, 2]


def test_faces_of_simplicial_3d():
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    fl = cc.faces(cone)
    assert len(fl) == 8  # the boolean lattice on three rays


def test_faces_of_square_cone():
    cone = cc.RationalCone.from_rays(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    fl = cc.faces(cone)
    # 1 apex + 4 rays + 4 two-dimensional facets + the cone
    assert len(fl) == 10


def test_face_by_normal_and_containment():
    cone = cc.RationalCone.from_rays([(2, -1), (0, 1)], 2)
    edge = face_by_normal(cone, (1, 2))
    assert edge.extreme_rays == ((2, -1),)
    assert is_face_of(edge, cone)
    inner = cc.RationalCone.from_rays([(1, 0)], 2)
    assert not is_face_of(inner, cone)


def test_smallest_containing_face():
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    f = smallest_containing_face(cone, [(1, 1, 0)])
    assert sorted(f.extreme_rays) == [(0, 1, 0), (1, 0, 0)]
    z = smallest_containing_face(cone, [(0, 0, 0)])
    assert z.is_zero


def test_faces_nonpointed():
    half = cc.RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    fl = cc.faces(half)
    # the lineality line and the half-plane itself
    assert len(fl) == 2
    assert sorted(f.span_dim for f in fl) == [1, 2]


def _oracle_faces(cone):
    """The faces by breadth-first search through ``facets``, each face
    built again for every facet of the level above that it lies in."""
    found = {cone}
    frontier = [cone]
    while frontier:
        nxt = []
        for c in frontier:
            for f in facets(c):
                if f not in found:
                    found.add(f)
                    nxt.append(f)
        frontier = nxt
    return sorted(found, key=cc.RationalCone.sort_key)


@settings(_DIFFERENTIAL, max_examples=300)
@given(_any_cones())
def test_faces_match_oracle(cone):
    assert cc.faces(cone) == _oracle_faces(cone)


@pytest.mark.parametrize("gens, dim", [
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3),
    ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
    ([(1, 0), (-1, 0), (0, 1)], 2),
    ([(1, 0), (-1, 0)], 2),
    ([], 2),
])
def test_faces_build_one_cone_per_proper_face(gens, dim, count_calls):
    cone = cc.RationalCone.from_rays(gens, dim)
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    fl = cc.faces(cone)
    assert len(from_rays_calls) == len(fl) - 1


# ---------------------------------------------------------------------------
# Hilbert bases


def test_hilbert_basis_flag_cone():
    cone = cc.RationalCone.from_rays([(2, -1), (0, 1)], 2)
    assert cc.hilbert_basis(cone) == ((0, 1), (1, 0), (2, -1))


def test_hilbert_basis_quadrant():
    cone = cc.RationalCone.from_rays([(1, 0), (0, 1)], 2)
    assert cc.hilbert_basis(cone) == ((0, 1), (1, 0))


def test_hilbert_basis_complete_via_parallelepiped():
    # completeness criterion: every cone point is (ray multiples) + (a point
    # of the closed fundamental parallelepiped), so the basis generates the
    # whole cone monoid iff the rays are in the basis and every lattice point
    # of the parallelepiped is a bounded N-combination of basis elements
    rng = random.Random(47)
    checked = 0
    while checked < 10:
        r1 = tuple(rng.randint(-3, 3) for _ in range(2))
        r2 = tuple(rng.randint(-3, 3) for _ in range(2))
        det = r1[0] * r2[1] - r1[1] * r2[0]
        if det == 0:
            continue
        cone = cc.RationalCone.from_rays([r1, r2], 2)
        if not cone.is_strongly_convex:
            continue
        basis = cc.hilbert_basis(cone)
        for r in cone.extreme_rays:
            assert r in basis
        # lattice points of {t r1 + s r2 : 0 <= t, s <= 1}
        span = max(abs(x) for x in r1 + r2) * 2 + 1
        para = []
        for p in itertools.product(range(-span, span + 1), repeat=2):
            t = Fraction(p[0] * r2[1] - p[1] * r2[0], det)
            s = Fraction(r1[0] * p[1] - r1[1] * p[0], det)
            if 0 <= t <= 1 and 0 <= s <= 1 and any(p):
                para.append(p)
        bound = 12
        for p in para:
            found = any(
                tuple(sum(c * h[i] for c, h in zip(coeffs, basis))
                      for i in range(2)) == p
                for coeffs in itertools.product(range(bound + 1),
                                                repeat=len(basis)))
            assert found, (r1, r2, p)
        # and each basis element is irreducible
        for h in basis:
            for k in basis:
                if h != k:
                    diff = tuple(a - b for a, b in zip(h, k))
                    assert not (any(diff) and cone.contains(diff)), (h, k)
        checked += 1


def _solve_rational(a, b):
    """One rational solution of a x = b as a tuple of Fractions, or None,
    from the Smith decomposition of a."""
    m, n = a.shape
    dec = xl._snf_full(a)
    w = xl.apply(dec.left, map(int, b))
    y = [Fraction(0)] * n
    for i in range(m):
        di = dec.diag[i] if i < len(dec.diag) else 0
        if di != 0:
            y[i] = Fraction(w[i], di)
        elif w[i] != 0:
            return None
    return tuple(sum(Fraction(c) * yk for c, yk in zip(row, y))
                 for row in dec.right.rows)


def test_solve_rational():
    sol = _solve_rational(xl.intmat([[2, 0], [0, 3]]), (1, 1))
    assert sol == (Fraction(1, 2), Fraction(1, 3))
    assert _solve_rational(xl.intmat([[1, 1], [1, 1]]), (0, 1)) is None


def _oracle_parallelepiped_points(rays, m):
    """The parallelepiped enumeration with one SNF-backed rational solve per
    residue of ``itertools.product``: shares no code with the numerator
    odometer of ``_parallelepiped_numerators``."""
    a = xl.intmat_from_columns(rays, nrows=m)
    dec = xl._snf_full(a)
    uinv = xl._unimodular_inverse(dec.left)
    out = []
    for residue in itertools.product(*(range(f) for f in dec.diag)):
        x = uinv @ residue
        coeffs = _solve_rational(a, x)
        floors = [c.numerator // c.denominator for c in coeffs]
        point = tuple(x[i] - sum(f * r[i] for f, r in zip(floors, rays))
                      for i in range(m))
        if any(point):
            out.append((point, tuple(c - f for c, f in zip(coeffs, floors))))
    return out


def _random_independent_rays(rng):
    while True:
        m = rng.randint(1, 4)
        rays = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(m)]
        if len(xl.smith_normal_form(
                xl.intmat_from_columns(rays, nrows=m)).diag) == m:
            return rays


def test_parallelepiped_points_match_rational_solve():
    # the fixed cases have two or three nontrivial invariant factors, so
    # every carry of the odometer runs: (2, 2, 2), (2, 6), (2, 4, 12),
    # (2, 48) and (2, 6, 12)
    rng = random.Random(2026)
    fixed = [[(2, 0, 0), (0, 2, 0), (0, 0, 2)],
             [(2, 0, 0), (0, 6, 0), (0, 0, 1)],
             [(2, 0, 0), (0, 4, 0), (0, 0, 12)],
             [(2, 0, 0), (0, 4, 0), (1, 1, 12)],
             [(4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 6, 0), (1, 0, 0, 3)]]
    cases = fixed + [_random_independent_rays(rng) for _ in range(40)]
    for rays in cases:
        m = len(rays)
        diag = xl.smith_normal_form(xl.intmat_from_columns(rays, nrows=m)).diag
        big, nums = cc._parallelepiped_numerators(rays, m)
        assert big == (diag[-1] if diag else 1)
        assert all(type(n) is int and 0 <= n < big for ns in nums for n in ns)
        got = sorted((cc._parallelepiped_point(ns, big, rays),
                      tuple(Fraction(n, big) for n in ns)) for ns in nums)
        assert got == sorted(_oracle_parallelepiped_points(rays, m)), rays
        det = 1
        for f in diag:
            det *= f
        assert len(got) == det - 1
        for point, frac in got:
            assert point == tuple(sum(c * r[i] for c, r in zip(frac, rays))
                                  for i in range(m))
    for rays in fixed:
        diag = xl.smith_normal_form(
            xl.intmat_from_columns(rays, nrows=len(rays))).diag
        assert sum(f > 1 for f in diag) >= 2, rays


def test_parallelepiped_point_refuses_numerators_off_the_lattice():
    with pytest.raises(InternalCheckError):
        cc._parallelepiped_point((1, 0), 2, [(1, 0), (0, 2)])


def _oracle_hilbert_basis(cone):
    """The full parallelepiped candidate set reduced all-pairs: the path
    that the continued fraction (dimension 2) and the degree-order reduction
    (dimension >= 3) of ``hilbert_basis`` replace."""
    if not cone.is_strongly_convex:
        raise DomainError("Hilbert bases are defined for strongly convex cones")
    if cone.is_zero:
        return ()
    down, up, m = cc._to_span_coords(cone)
    inner = cc.RationalCone.from_rays([down(r) for r in cone.extreme_rays], m)
    candidates = {down(r) for r in cone.extreme_rays}
    for simplex in cc.pulling_triangulation(inner):
        for point, _ in _oracle_parallelepiped_points(list(simplex), m):
            candidates.add(point)

    def inside(v):
        return all(cc.vdot(n, v) >= 0 for n in inner.facet_normals)

    candidates = sorted(candidates)
    keep = []
    for h in candidates:
        reducible = False
        for c in candidates:
            if c == h:
                continue
            diff = tuple(a - b for a, b in zip(h, c))
            if any(diff) and inside(diff):
                reducible = True
                break
        if not reducible:
            keep.append(h)
    return tuple(sorted(up(h) for h in keep))


def _oracle_hilbert_basis_in_span(cone):
    """The degree-order reduction of ``hilbert_basis`` with the cone rebuilt
    by from_rays in span coordinates, triangulated and ranked there."""
    if not cone.is_strongly_convex:
        raise DomainError("Hilbert bases are defined for strongly convex cones")
    if cone.is_zero:
        return ()
    down, up, m = cc._to_span_coords(cone)
    rays = [down(r) for r in cone.extreme_rays]
    if m == 2:
        return tuple(sorted(up(h) for h in cc._hilbert_basis_2d(*rays)))
    inner = cc.RationalCone.from_rays(rays, m)
    candidates = set(rays)
    for simplex in cc.pulling_triangulation(inner):
        for point, _ in _oracle_parallelepiped_points(list(simplex), m):
            candidates.add(point)
    ranked = []
    for h in candidates:
        values = tuple(cc.vdot(n, h) for n in inner.facet_normals)
        ranked.append((sum(values), h, values))
    kept = []
    for _, h, values in sorted(ranked):
        if not any(all(x >= y for x, y in zip(values, other))
                   for _, other in kept):
            kept.append((h, values))
    return tuple(sorted(up(h) for h, _ in kept))


@settings(_DIFFERENTIAL, max_examples=150)
@given(_any_cones())
def test_hilbert_basis_matches_span_oracle(cone):
    # pulled and ranked in the cone's own coordinates, not in a copy of the
    # cone rebuilt in span coordinates
    assume(cone.is_strongly_convex)
    assert cc.hilbert_basis(cone) == _oracle_hilbert_basis_in_span(cone)


def _assert_matches_oracle(gens, dim):
    cone = cc.RationalCone.from_rays(gens, dim)
    if not cone.is_strongly_convex:
        with pytest.raises(DomainError):
            cc.hilbert_basis(cone)
        return
    assert cc.hilbert_basis(cone) == _oracle_hilbert_basis(cone), gens


def _rank(vectors):
    return len(xl.smith_normal_form(
        xl.intmat(vectors, ncols=len(vectors[0]))).diag)


@st.composite
def _random_cones(draw):
    """Generators of a full-dimensional cone in Z^1..Z^4: as many as the
    dimension (simplicial) or up to two more."""
    dim = draw(st.integers(1, 4))
    r = _ENTRY_RANGE[dim]
    size = dim + draw(st.integers(0, 2))
    vec = st.tuples(*[st.integers(-r, r)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=size, max_size=size, unique=True)
                .filter(lambda g: _rank(g) == dim))
    return gens, dim


@_DIFFERENTIAL
@given(_random_cones())
def test_hilbert_basis_matches_oracle_random_cones(case):
    _assert_matches_oracle(*case)


@st.composite
def _nonsimplicial_cones(draw):
    """dim + 1 or dim + 2 generators with positive last coordinate (so the
    cone is pointed) spanning a non-simplicial cone in Z^3 or Z^4."""
    dim = draw(st.sampled_from([3, 4]))
    r = _ENTRY_RANGE[dim]
    size = dim + draw(st.integers(1, 2))
    vec = st.tuples(*[st.integers(-r, r)] * (dim - 1), st.integers(1, r))
    gens = draw(st.lists(vec, min_size=size, max_size=size, unique=True)
                .filter(lambda g: not cc.RationalCone.from_rays(
                    g, dim).is_simplicial))
    return gens, dim


@settings(_DIFFERENTIAL, max_examples=100)
@given(_nonsimplicial_cones())
def test_hilbert_basis_matches_oracle_nonsimplicial(case):
    _assert_matches_oracle(*case)


@settings(_DIFFERENTIAL, max_examples=100)
@given(st.lists(st.tuples(st.integers(-25, 25), st.integers(-25, 25)),
                min_size=2, max_size=2).filter(lambda g: _rank(g) == 2))
def test_hilbert_basis_matches_oracle_2d(gens):
    _assert_matches_oracle(gens, 2)


@st.composite
def _embedded_2d_cones(draw):
    """Two vectors of Z^3 or Z^4 and a positive combination of them: a 2D
    cone whose span lattice is not a coordinate plane."""
    dim = draw(st.sampled_from([3, 4]))
    vec = st.tuples(*[st.integers(-6, 6)] * dim).filter(any)
    a, b = draw(st.tuples(vec, vec).filter(lambda p: _rank(p) == 2))
    s, t = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [a, b, tuple(s * x + t * y for x, y in zip(a, b))], dim


@_DIFFERENTIAL
@given(_embedded_2d_cones())
def test_hilbert_basis_matches_oracle_embedded_2d(case):
    _assert_matches_oracle(*case)


@st.composite
def _embedded_3d_cones(draw):
    """Three independent vectors of Z^4 and an integer combination of them:
    a cone spanning a 3D subspace that is not a coordinate one, simplicial
    or not, pointed or not."""
    vec = st.tuples(*[st.integers(-2, 2)] * 4).filter(any)
    gens = list(draw(st.tuples(vec, vec, vec).filter(lambda p: _rank(p) == 3)))
    coeffs = draw(st.tuples(*[st.integers(-1, 2)] * 3))
    extra = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4))
    return gens + [extra] * any(extra), 4


@settings(_DIFFERENTIAL, max_examples=100)
@given(_embedded_3d_cones())
def test_hilbert_basis_matches_oracle_embedded_3d(case):
    _assert_matches_oracle(*case)


def _hj_digits(m, q):
    """m/q = a_1 - 1/(a_2 - 1/(... - 1/a_s)), every a_i >= 2, in exact
    rational arithmetic."""
    x = Fraction(m, q)
    digits = []
    while True:
        a = -((-x.numerator) // x.denominator)
        digits.append(a)
        if x == a:
            return digits
        x = 1 / (a - x)


def _hj_basis(m, q):
    """Hilbert basis of cone((0,1), (m,-q)), 0 < q < m coprime: the columns
    of the products of the matrices [[0, -1], [1, a_i]] applied to the
    basis ((0,1), (1,0))."""
    pair = ((0, 1), (1, 0))
    out = list(pair)
    for a in _hj_digits(m, q):
        (p0, p1), (c0, c1) = pair
        pair = ((c0, c1), (a * c0 - p0, a * c1 - p1))
        out.append(pair[1])
    assert out[-1] == (m, -q)
    return tuple(sorted(out))


def test_hilbert_basis_long_thin_cone():
    cone = cc.RationalCone.from_rays([(0, 1), (100000, -1)], 2)
    assert cc.hilbert_basis(cone) == ((0, 1), (1, 0), (100000, -1))


def test_hilbert_basis_of_a_2001_element_cone():
    cone = cc.RationalCone.from_rays([(0, 1), (2000, -1999)], 2)
    assert cc.hilbert_basis(cone) == tuple(
        sorted((k, 1 - k) for k in range(2001)))


def test_hilbert_basis_of_a_2002_element_3d_cone():
    # (1,1,k) = p + q forces a summand with first coordinate 0, which is
    # (0,1,0), and (1,0,k) is in the cone only for k = 0: the basis is the
    # two rays and every (1,1,k), one per parallelepiped point
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2000)], 3)
    assert cc.hilbert_basis(cone) == tuple(sorted(
        [(1, 0, 0), (0, 1, 0)] + [(1, 1, k) for k in range(1, 2001)]))


def test_hilbert_basis_matches_continued_fraction_up_to_a_million():
    rng = random.Random(61)
    checked = 0
    for m in [2, 3, 7, 60, 997, 10 ** 4, 123457, 10 ** 6 - 1, 10 ** 6]:
        # q = m - 1 gives m + 1 basis elements: only for the smaller m
        qs = {1} | ({m - 1} if m <= 10 ** 4 else set())
        qs |= {rng.randrange(1, m) for _ in range(4)}
        for q in sorted(qs):
            if gcd(m, q) != 1:
                continue
            cone = cc.RationalCone.from_rays([(0, 1), (m, -q)], 2)
            basis = cc.hilbert_basis(cone)
            assert basis == _hj_basis(m, q), (m, q)
            checked += 1
    assert checked >= 30


def _det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def test_hilbert_basis_2d_walk_is_unimodular_and_convex():
    # the basis of a 2D cone, ordered from one ray to the other, has
    # det(u_i, u_{i+1}) of one sign and absolute value 1, and
    # u_{i-1} + u_{i+1} = a_i u_i with a_i >= 2
    rng = random.Random(67)
    checked = 0
    while checked < 40:
        r1, r2 = (tuple(rng.randint(-300, 300) for _ in range(2))
                  for _ in range(2))
        if _det2(r1, r2) == 0:
            continue
        cone = cc.RationalCone.from_rays([r1, r2], 2)
        first, last = cone.extreme_rays
        sign = 1 if _det2(first, last) > 0 else -1
        basis = sorted(cc.hilbert_basis(cone), key=functools.cmp_to_key(
            lambda u, v: -sign * _det2(u, v)))
        assert basis[0] == first and basis[-1] == last
        dets = {_det2(u, v) for u, v in zip(basis, basis[1:])}
        assert dets == {sign}, (r1, r2)
        for u, v, w in zip(basis, basis[1:], basis[2:]):
            s = (u[0] + w[0], u[1] + w[1])
            a = s[0] // v[0] if v[0] else s[1] // v[1]
            assert a >= 2 and s == (a * v[0], a * v[1]), (r1, r2)
        checked += 1


def test_hilbert_basis_3d_simplicial():
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    basis = cc.hilbert_basis(cone)
    assert (1, 1, 1) in basis  # the interior parallelepiped point
    for h in basis:
        assert cone.contains(h)


def test_hilbert_basis_rejects_nonpointed():
    half = cc.RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(DomainError):
        cc.hilbert_basis(half)


def test_cone_lattice_generators_nonpointed():
    # for a non-pointed cone the monoid of lattice points is still finitely
    # generated: Hilbert basis of the pointed quotient plus +/- lineality
    half = [(1, 0), (-1, 0), (0, 1)]
    gens = cc.cone_lattice_generators(cc.RationalCone.from_rays(half, 2))
    m = mc.AffineMonoid.from_vectors(gens)
    for v in [(5, 0), (-5, 0), (3, 2), (-3, 2)]:
        assert m.contains(v)
    assert not m.contains((0, -1))


# ---------------------------------------------------------------------------
# multiplicity and regularity


def test_multiplicity_family():
    for k in range(1, 8):
        cone = cc.RationalCone.from_rays([(1, 0), (1, k)], 2)
        assert cc.multiplicity(cone) == k
        assert cc.is_regular(cone) == (k == 1)


def test_multiplicity_keeps_no_global_cache():
    # a long-lived process must not accumulate every cone ever measured
    assert not hasattr(cc.multiplicity, "cache_info")


def test_multiplicity_respects_span_lattice():
    # a 2-dimensional cone inside Z^3: multiplicity uses the saturated span
    # lattice, not the raw coordinates
    cone = cc.RationalCone.from_rays([(1, 0, 1), (1, 2, 1)], 3)
    assert cc.multiplicity(cone) == 2


def test_multiplicity_requires_simplicial():
    square = cc.RationalCone.from_rays(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    with pytest.raises(DomainError):
        cc.multiplicity(square)
    assert not cc.is_regular(square)


def test_multiplicity_requires_pointed():
    half = cc.RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    with pytest.raises(DomainError):
        cc.multiplicity(half)


def test_zero_cone_is_regular():
    zero = cc.RationalCone.from_rays([], 2)
    assert cc.multiplicity(zero) == 1
    assert cc.is_regular(zero)


# ---------------------------------------------------------------------------
# triangulation


def test_pulling_triangulation_covers_cone():
    square = cc.RationalCone.from_rays(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    simplices = cc.pulling_triangulation(square)
    assert all(len(s) == 3 for s in simplices)
    assert len(simplices) == 2
    # sampled rational points of the cone lie in at least one simplex
    rng = random.Random(53)
    for _ in range(20):
        coeffs = [rng.randint(0, 3) for _ in range(4)]
        pt = tuple(sum(c * r[i] for c, r in zip(coeffs, square.extreme_rays))
                   for i in range(3))
        assert any(oracle_in_cone(list(s), pt) for s in simplices), pt


def test_pulling_triangulation_of_simplicial_is_itself():
    cone = cc.RationalCone.from_rays([(1, 0), (1, 5)], 2)
    assert cc.pulling_triangulation(cone) == [cone.extreme_rays]


def _oracle_pulling_triangulation(cone):
    """Pulling at the lex-smallest ray with every facet built as a cone
    by ``facets``, and a simplicial test at every level."""
    if len(cone.extreme_rays) == cone.span_dim:
        return [cone.extreme_rays]
    v = cone.extreme_rays[0]
    out = set()
    for f in facets(cone):
        if f.contains(v):
            continue
        for simplex in _oracle_pulling_triangulation(f):
            out.add(tuple(sorted(simplex + (v,))))
    return sorted(out)


@st.composite
def _pointed_cones_to_z5(draw):
    """A strongly convex cone on up to dim + 3 generators in Z^1..Z^5,
    zero and repeated ones included; sometimes inside a proper subspace.
    The generators are drawn with a positive first coordinate, which keeps
    the cone pointed, and then have their coordinates permuted and their
    signs flipped."""
    dim = draw(st.integers(1, 5))
    r = _ENTRY_RANGE.get(dim, 2)
    vec = st.tuples(st.integers(1, r), *[st.integers(-r, r)] * (dim - 1))
    # counted down: hypothesis favours small integers, and non-simplicial
    # cones need more generators than their dimension
    size = dim + 3 - draw(st.integers(0, dim + 3))
    gens = draw(st.lists(vec, min_size=size, max_size=size, unique=True))
    if dim > 1 and draw(st.booleans()):
        # nonnegative combinations of k vectors span at most a k-space
        k = draw(st.integers(1, dim - 1))
        basis = draw(st.lists(vec, min_size=k, max_size=k))
        coeffs = st.lists(st.integers(0, 2), min_size=k, max_size=k)
        gens = [tuple(sum(c * b[i] for c, b in zip(cs, basis))
                      for i in range(dim))
                for cs in draw(st.lists(coeffs, min_size=size,
                                        max_size=size))]
    order = draw(st.permutations(range(dim)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=dim,
                          max_size=dim))
    gens = [tuple(s * g[i] for s, i in zip(signs, order)) for g in gens]
    return cc.RationalCone.from_rays(
        draw(_with_zero_and_repeat(gens, dim)), dim)


@settings(_DIFFERENTIAL, max_examples=300)
@given(_pointed_cones_to_z5())
def test_pulling_triangulation_matches_oracle(cone):
    assert cc.pulling_triangulation(cone) == \
        _oracle_pulling_triangulation(cone)


@pytest.mark.parametrize("gens, dim", [
    ([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3),
    ([(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 1, 0, 1),
      (1, 0, 1, 1), (0, 1, 1, 1)], 4),
    ([(1, 0, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0)], 4),
])
def test_pulling_triangulation_builds_no_cone(gens, dim, count_calls):
    cone = cc.RationalCone.from_rays(gens, dim)
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    assert len(cc.pulling_triangulation(cone)) > 1
    assert from_rays_calls == []


# ---------------------------------------------------------------------------
# fans


def _fan(ray_lists, dim):
    return cc.fan_from_cones(
        [cc.RationalCone.from_rays(r, dim) for r in ray_lists], dim)


def test_fan_rejects_bad_intersections():
    with pytest.raises(DomainError):
        _fan([[(1, 0), (0, 1)], [(1, 1), (-1, 1)]], 2)


def test_fan_rejects_nonpointed_cones():
    with pytest.raises(DomainError):
        _fan([[(1, 0), (-1, 0)]], 2)


def test_fan_drops_contained_cones():
    fan = _fan([[(1, 0), (0, 1)], [(1, 0)]], 2)
    assert len(fan.maximal_cones) == 1
    # a contained cone need not share a ray with the cone containing it
    fan = _fan([[(1, 0), (0, 1)], [(1, 1)]], 2)
    assert fan.maximal_cones == (
        cc.RationalCone.from_rays([(1, 0), (0, 1)], 2),)


def test_fan_support_and_rays():
    fan = _fan([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]], 2)
    assert fan.support_contains((0, 5))
    assert fan.support_contains((-2, 1))
    assert not fan.support_contains((0, -1))
    assert sorted(fan.rays()) == [(-1, 0), (0, 1), (1, 0)]


def test_stellar_subdivision_square_cone():
    fan = _fan([[(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]], 3)
    divided = cc.stellar_subdivision(fan, (0, 0, 1))
    assert len(divided.maximal_cones) == 4
    assert divided.is_regular()


def test_stellar_outside_support_rejected():
    fan = _fan([[(1, 0), (0, 1)]], 2)
    with pytest.raises(DomainError):
        cc.stellar_subdivision(fan, (-1, 0))


def barycentric_subdivision(fan, validate=True):
    """Stellar subdivision at every face barycenter, in descending dimension.

    The barycenter of a face is the sum of its primitive extreme rays; faces
    of dimension <= 1 are fixed points of the operation and are skipped.
    Generates fans for the differential tests below.
    """
    faces_by_dim = {}
    for f in fan.all_cones():
        if f.span_dim >= 2:
            faces_by_dim.setdefault(f.span_dim, []).append(f)
    current = fan
    for d in sorted(faces_by_dim, reverse=True):
        for f in sorted(faces_by_dim[d], key=cc.RationalCone.sort_key):
            barycenter = f.extreme_rays[0]
            for r in f.extreme_rays[1:]:
                barycenter = cc.vadd(barycenter, r)
            current, _ = cc._stellar_pieces(current, cc.primitive(barycenter))
    if validate:
        current.validate()
    return current


def test_barycentric_subdivision_quadrant():
    fan = _fan([[(1, 0), (0, 1)]], 2)
    bary = barycentric_subdivision(fan)
    assert len(bary.maximal_cones) == 2
    assert sorted(bary.rays()) == [(0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# fan validation against the all-pairs oracle


def _oracle_validate(fan):
    """The all-pairs validator without certificates: one intersection and
    two face tests for every pair of maximal cones."""
    cones = fan.maximal_cones
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            common = intersect(cones[i], cones[j])
            if not is_face_of(common, cones[i]) or \
                    not is_face_of(common, cones[j]):
                raise DomainError(
                    "cones do not meet along a common face")
    return fan


def _verdict(check, fan):
    """None if the check passes, else the message of its DomainError."""
    try:
        check(fan)
    except DomainError as exc:
        return str(exc)
    return None


_BAD_MEET = "cones do not meet along a common face"


@st.composite
def _pointed_cones(draw, dim, bound=2):
    """A nonzero strongly convex cone on 1 to dim + 1 generators with
    entries in [-bound, bound]; in Z^3 it may span only a line or a
    plane."""
    vec = st.tuples(*[st.integers(-bound, bound)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=1, max_size=dim + 1, unique=True))
    cone = cc.RationalCone.from_rays(gens, dim)
    assume(cone.is_strongly_convex)
    return cone


@st.composite
def _library_fans(draw):
    """A fan built without validation by the library's own subdivisions of
    a random cone in Z^2 or Z^3, alone or with its negative (the two meet
    only at 0)."""
    dim = draw(st.sampled_from([2, 3]))
    cone = draw(_pointed_cones(dim, bound=3))
    cones = [cone]
    if draw(st.booleans()):
        cones.append(cc.RationalCone.from_rays(
            [cc.vneg(r) for r in cone.extreme_rays], dim))
    fan = cc.Fan(dim=dim, maximal_cones=tuple(cones))
    for step in draw(st.lists(st.sampled_from(
            ["resolve", "stellar", "barycentric"]), min_size=1, max_size=2)):
        # the oracle makes three DD runs per pair: a second step on a fan
        # of hundreds of cones would cost minutes
        if len(fan.maximal_cones) > 8:
            break
        if step == "resolve":
            fan = cc.resolve(fan, validate=False)
        elif step == "barycentric":
            fan = barycentric_subdivision(fan, validate=False)
        else:
            coeffs = draw(st.lists(st.integers(0, 2), min_size=len(
                cone.extreme_rays), max_size=len(cone.extreme_rays)))
            point = tuple(sum(c * r[i] for c, r in zip(
                coeffs, cone.extreme_rays)) for i in range(dim))
            assume(any(point))
            fan = cc.stellar_subdivision(fan, point, validate=False)
    return fan


@settings(_DIFFERENTIAL, max_examples=100)
@given(_library_fans())
def test_validate_matches_oracle_on_library_fans(fan):
    assert _verdict(_oracle_validate, fan) is None
    # the separation lemma certifies every pair of a valid fan
    assert _verdict(cc.Fan.validate, fan) is None


@settings(_DIFFERENTIAL, max_examples=150)
@given(st.sampled_from([2, 3]).flatmap(
    lambda dim: st.tuples(_pointed_cones(dim), _pointed_cones(dim))))
def test_validate_matches_oracle_on_random_pairs(pair):
    fan = cc.Fan(dim=pair[0].dim, maximal_cones=pair)
    assume(len(fan.maximal_cones) == 2)
    expected = _verdict(_oracle_validate, fan)
    assert _verdict(cc.Fan.validate, fan) == expected


@st.composite
def _overlapping_pairs(draw):
    """Two full-dimensional cones in Z^2 or Z^3, neither inside the other,
    that share the interior point p = sum of the rays of the first: p is a
    positive combination of generators spanning the second as well, so the
    intersection is full-dimensional and a face of neither cone."""
    dim = draw(st.sampled_from([2, 3]))
    first = draw(_pointed_cones(dim))
    assume(first.is_full_dimensional)
    p = tuple(sum(r[i] for r in first.extreme_rays) for i in range(dim))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    others = draw(st.lists(vec, min_size=dim - 1, max_size=dim))
    scale = draw(st.integers(1, 3))
    last = tuple(scale * p[i] - sum(o[i] for o in others)
                 for i in range(dim))
    gens = others + [last]
    assume(any(last) and _rank(gens) == dim)
    second = cc.RationalCone.from_rays(gens, dim)
    assume(second.is_strongly_convex)
    assume(not first.contains_cone(second))
    assume(not second.contains_cone(first))
    return cc.Fan(dim=dim, maximal_cones=(first, second))


@settings(_DIFFERENTIAL, max_examples=60)
@given(_overlapping_pairs())
def test_validate_matches_oracle_on_overlapping_pairs(fan):
    assert len(fan.maximal_cones) == 2
    assert _verdict(_oracle_validate, fan) == _BAD_MEET
    assert _verdict(cc.Fan.validate, fan) == _BAD_MEET


def test_validate_rejects_star_of_david():
    # cross-sections at height 1 are two triangles forming a hexagram: the
    # cones overlap, yet no ray of either lies in the other
    up = cc.RationalCone.from_rays([(0, 2, 1), (-2, -1, 1), (2, -1, 1)], 3)
    down = cc.RationalCone.from_rays([(0, -2, 1), (2, 1, 1), (-2, 1, 1)], 3)
    assert not any(down.contains(r) for r in up.extreme_rays)
    assert not any(up.contains(r) for r in down.extreme_rays)
    # a form positive on both cones vanishes on no ray of either, but it
    # does not separate them
    assert not cc._separates_along_common_face((0, 0, 1), up, down)
    fan = cc.Fan(dim=3, maximal_cones=(up, down))
    assert _verdict(_oracle_validate, fan) == _BAD_MEET
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.fan_from_cones([up, down], 3)


def test_validate_2d_resolutions_without_double_description(count_calls):
    # in 2D every pair of cones of a subdivision of a pointed cone has a
    # separating facet normal, so validation needs no double description
    fans = [cc.resolve(_fan([[(1, 0), (1, k)]], 2), validate=False)
            for k in range(1, 26)]
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    for fan in fans:
        fan.validate()
    assert sum(len(f.maximal_cones) for f in fans) == 25 * 26 // 2
    assert dd_calls == []


# ---------------------------------------------------------------------------
# stellar subdivision against the facet-by-facet path


def _oracle_stellar_pieces(fan, point):
    """Every replaced cone joined with each of its facets not containing
    the point, and the new fan by the public constructor's all-pairs
    reduction."""
    v = cc.primitive(point)
    new_max = []
    replaced = []
    for c in fan.maximal_cones:
        if not c.contains(v):
            new_max.append(c)
            continue
        pieces = []
        for f in facets(c):
            if f.contains(v):
                continue
            pieces.append(cc.RationalCone.from_rays(f.generators + (v,),
                                                    fan.dim))
        new_max.extend(pieces)
        replaced.append((c, tuple(pieces)))
    if not replaced:
        raise DomainError("subdivision point lies outside the fan support")
    return cc.Fan(dim=fan.dim, maximal_cones=tuple(new_max)), replaced


def _outcome(f, *args):
    """The result of the call, or the type and message of its error."""
    try:
        return f(*args)
    except (DomainError, InternalCheckError) as exc:
        return type(exc), str(exc)


def _with_oracle_pieces(f, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "_stellar_pieces", _oracle_stellar_pieces)
        return _outcome(f, *args)


@st.composite
def _stellar_cases(draw):
    """A fan of one to three cones in Z^2 or Z^3, built without validation
    (so its cones may overlap), and a nonnegative combination of the rays
    of one of its cones."""
    dim = draw(st.sampled_from([2, 3]))
    cones = draw(st.lists(_pointed_cones(dim), min_size=1, max_size=3))
    fan = cc.Fan(dim=dim, maximal_cones=tuple(cones))
    rays = draw(st.sampled_from(fan.maximal_cones)).extreme_rays
    coeffs = draw(st.lists(st.integers(0, 2), min_size=len(rays),
                           max_size=len(rays)))
    point = tuple(sum(c * r[i] for c, r in zip(coeffs, rays))
                  for i in range(dim))
    assume(any(point))
    return fan, point


@settings(_DIFFERENTIAL, max_examples=200)
@given(_stellar_cases())
def test_stellar_pieces_match_oracle(case):
    fan, point = case
    new, replaced = cc._stellar_pieces(fan, point)
    old, old_replaced = _oracle_stellar_pieces(fan, point)
    assert new == old
    assert [(c, set(p)) for c, p in replaced] == \
        [(c, set(p)) for c, p in old_replaced]
    assert _outcome(cc.stellar_subdivision, fan, point, False) == \
        _with_oracle_pieces(cc.stellar_subdivision, fan, point, False)


@settings(_DIFFERENTIAL, max_examples=100)
@given(st.one_of(
    _stellar_cases().map(lambda case: case[0]),
    # with the oracle's all-pairs reduction in every step, resolving a
    # library fan of 24 cones takes 30 s (0.2 s without it)
    _library_fans().filter(lambda fan: len(fan.maximal_cones) <= 4)))
def test_subdivisions_match_oracle_pieces(fan):
    # fans built without validation may overlap, and then resolve may fail:
    # it must fail in the same way
    for f in (barycentric_subdivision, cc.resolve):
        assert _outcome(f, fan, False) == _with_oracle_pieces(f, fan, False)


def test_stellar_drops_a_piece_inside_a_piece_of_another_cone():
    # an unvalidated fan whose two cones contain v = (1, 3): the piece
    # cone((0, 1), v) of the quadrant lies in the second cone, which is its
    # own only piece
    quadrant = cc.RationalCone.from_rays([(1, 0), (0, 1)], 2)
    wide = cc.RationalCone.from_rays([(-1, 1), (1, 3)], 2)
    fan = cc.Fan(dim=2, maximal_cones=(quadrant, wide))
    new, _ = cc._stellar_pieces(fan, (1, 3))
    assert new.maximal_cones == (
        cc.RationalCone.from_rays([(-1, 1), (1, 3)], 2),
        cc.RationalCone.from_rays([(1, 0), (1, 3)], 2))
    assert new == _oracle_stellar_pieces(fan, (1, 3))[0]


def test_resolve_of_simplicial_fans_makes_no_double_description(count_calls):
    fans = [_fan([[(1, 0), (1, 12)]], 2),
            _fan([[(1, 0), (2, 7)], [(2, 7), (-3, 5)]], 2),
            _fan([[(1, 0, 0), (0, 1, 0), (1, 1, 6)]], 3),
            _fan([[(1, 0, 0), (0, 1, 0), (1, 2, 5)],
                  [(1, 0, 0), (0, 1, 0), (-1, 3, -4)]], 3)]
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    for fan in fans:
        assert cc.resolve(fan, validate=False).is_regular()
    assert dd_calls == []


# ---------------------------------------------------------------------------
# resolution


def test_resolve_a_k_family():
    for k in range(1, 9):
        fan = _fan([[(1, 0), (1, k)]], 2)
        resolved = cc.resolve(fan)
        assert len(resolved.maximal_cones) == k, k
        assert resolved.is_regular()


def test_resolve_preserves_support_and_refines():
    rng = random.Random(59)
    for _ in range(12):
        dim = rng.choice([2, 3])
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(dim)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        cone = cc.RationalCone.from_rays(gens, dim)
        if not cone.is_strongly_convex or cone.is_zero:
            continue
        fan = cc.fan_from_cones([cone], dim)
        resolved = cc.resolve(fan)
        assert resolved.is_regular()
        # refinement: every resolved cone inside the original
        for piece in resolved.maximal_cones:
            assert cone.contains_cone(piece)
        # support: original rays and sampled interior points still covered
        for r in cone.extreme_rays:
            assert resolved.support_contains(r)
        total = tuple(sum(r[i] for r in cone.extreme_rays)
                      for i in range(dim))
        if any(total):
            assert resolved.support_contains(total)


def test_resolve_regular_fan_is_unchanged():
    fan = _fan([[(1, 0), (0, 1)], [(0, 1), (-1, 0)]], 2)
    resolved = cc.resolve(fan)
    assert resolved == fan
    # simplicial cones are kept, not rebuilt from their rays
    assert all(a is b for a, b in zip(resolved.maximal_cones,
                                       fan.maximal_cones))


def test_resolve_3d_cone():
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    fan = cc.fan_from_cones([cone], 3)
    resolved = cc.resolve(fan)
    assert resolved.is_regular()
    assert len(resolved.maximal_cones) >= 2


def test_resolve_of_a_non_fan_is_a_domain_error():
    # the two cones overlap in cone((1, 1), (1, 2)), a face of neither: the
    # caller's input is at fault, not the triangulation
    fan = cc.Fan(dim=2, maximal_cones=(
        cc.RationalCone.from_rays([(1, 0), (1, 2)], 2),
        cc.RationalCone.from_rays([(1, 1), (0, 1)], 2)))
    with pytest.raises(DomainError):
        fan.validate()
    with pytest.raises(DomainError) as exc:
        cc.resolve(fan)
    assert not isinstance(exc.value, InternalCheckError)


def test_resolve_of_a_fan_reports_a_broken_triangulation(monkeypatch):
    # a true fan whose (injected) triangulation overlaps is an internal fault
    square = cc.RationalCone.from_rays(
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3)
    fan = cc.fan_from_cones([square], 3)
    monkeypatch.setattr(cc, "pulling_triangulation", lambda cone: [
        ((1, 0, 1), (0, 1, 1), (-1, 0, 1)),
        ((1, 0, 1), (0, 1, 1), (0, -1, 1))])
    with pytest.raises(InternalCheckError, match="triangulated"):
        cc.resolve(fan)


# ---------------------------------------------------------------------------
# canonical form and validation errors


def test_cone_equality_is_set_equality():
    a = cc.RationalCone.from_rays([(2, 0), (0, 3), (1, 1)], 2)
    b = cc.RationalCone.from_rays([(0, 1), (1, 0)], 2)
    assert a == b
    assert hash(a) == hash(b)


def test_from_rays_rejects_bad_input():
    with pytest.raises(InputError):
        cc.RationalCone.from_rays([(1, 0, 0)], 2)
    with pytest.raises(InputError):
        cc.primitive((0, 0))
