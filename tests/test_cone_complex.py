"""Oracle-backed tests for rational cones and fans.

The conic-membership oracle is a self-contained Fourier-Motzkin elimination
over fractions; it shares no code with the library.  Hilbert bases are
checked for completeness by scanning an integer box, triangulations by
sampled rational points, resolutions by the refinement / support / regularity
properties, fan validation against the all-pairs intersection check, and
duality against double description from scratch.
"""

import bisect
import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import logmonoid.cli as cli
import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.monoid_core as mc
from logmonoid._verify import (_covers, _smith_multiplicity, check_resolve,
                               face_by_normal, facets, intersect,
                               is_face_of, smallest_containing_face)
from logmonoid.errors import DomainError, InputError, InternalCheckError
from conftest import all_cones, monoid_of_cone


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
        lin_canon = xl.hnf_row_basis(xl.mat_columns(kernel), dim)
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
        p, r = xl._quotient_maps(lin_canon, dim)
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
    """|det| in the span lattice as the product of the Smith invariant
    factors (0 when dependent), the old path of ``multiplicity``: the index
    of the lattice the vectors span in its saturation."""
    n = len(vectors)
    diag = xl.smith_normal_form(
        xl.intmat(vectors, ncols=len(vectors[0]))).diag
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
    assert cc.multiplicity(cone) == _oracle_det_abs(cone.extreme_rays)


def test_independent_generators_make_no_double_description(count_calls):
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    # the closed form: one elimination in the span lattice instead of a
    # double description, for every list of independent generators
    for gens in ([(-3,)], [(1, 0), (1, 7)], [(2, 1), (1, 0)],
                 [(1, 0, 0), (0, 1, 0), (1, 1, -5)],
                 [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 9)],
                 [(1, 0, 1), (1, 2, 1)], [(0, 2, 0, 4)], [(0, 0, 0)]):
        cone = cc.RationalCone.from_rays(gens, len(gens[0]))
        assert cone.is_simplicial
    assert dd_calls == []
    cc.RationalCone.from_rays([(1, 0, 1), (1, 2, 1), (2, 2, 2)], 3)
    cc.RationalCone.from_rays([(1, 0), (2, 0), (-1, 0)], 2)
    assert len(dd_calls) == 2


def test_dependent_generators_fewer_than_dim_take_one_saturated_kernel(
        count_calls):
    # from_rays computes the span equations to test independence and hands
    # them to the double description as its lineality
    calls = count_calls(xl, "_saturated_kernel")
    gens = [(1, 0, 0, 1), (1, 2, 0, 1), (2, 2, 0, 2)]
    cone = cc.RationalCone.from_rays(gens, 4)
    assert len(calls) == 1
    assert cone == _oracle_from_rays(gens, 4)
    assert cone.span_equations == ((1, 0, 0, -1), (0, 0, 1, 0))


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
    # per vector gives: the basis that ``up`` embeds spans the integer
    # kernel of the span equations and has full column rank
    assume(not cone.is_full_dimensional and not cone.is_zero)
    down, up, lift = cone._span
    m = cone.span_dim
    units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    basis = xl.intmat_from_columns([up(e) for e in units], nrows=cone.dim)
    assert xl.hnf_row_basis(xl.mat_columns(basis), cone.dim) == \
        xl._saturated_kernel(cone.span_equations, cone.dim)
    for g in cone.generators + (cc.vadd(cone.generators[0],
                                        cone.generators[-1]),):
        assert down(g) == xl.solve_integer(basis, g)
        assert up(down(g)) == g
    # each canonical facet normal is the lift of the form it is on the
    # span lattice
    for n in cone.facet_normals:
        assert lift(tuple(cc.vdot(n, b) for b in xl.mat_columns(basis))) == n


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


@pytest.mark.parametrize("call", [
    lambda: cc.RationalCone.from_rays([(1.5, 0), (0, 1)], 2),
    lambda: cc.RationalCone.from_rays([(1, 0), (0, 1)], 2).contains((0.5, 0)),
    lambda: cc.extreme_rays_of_halfspaces([(1.5, 0), (0, 1)], 2),
    # no normals or no equations at all: None is not an empty list
    lambda: cc.extreme_rays_of_halfspaces(None, 2),
    lambda: cc.cone_from_constraints(None, [], 2),
    lambda: cc.cone_from_constraints([(1, 0)], None, 2),
], ids=["from_rays", "contains", "extreme_rays_of_halfspaces",
        "extreme_rays_of_halfspaces-none", "cone_from_constraints-no-normals",
        "cone_from_constraints-no-equations"])
def test_non_integers_are_refused_not_truncated(call):
    with pytest.raises(InputError):
        call()


class _Two:
    """An integer that is not an int: ``operator.index`` reads it as 2."""

    def __index__(self):
        return 2


def test_fan_dimension_is_coerced_to_an_int():
    ray = cc.RationalCone.from_rays([(1, 0)], 2)
    fan = cc.Fan(dim=_Two(), maximal_cones=(ray,))
    assert type(fan.dim) is int and fan.dim == 2
    assert fan.maximal_cones == (ray,)


def test_intmat_coerces_an_index_integer_to_an_int():
    # the one integer rule: intmat takes what every other door takes
    m = xl.intmat([[_Two()]])
    assert m == xl.IntMatrix(((2,),), 1) and type(m[0, 0]) is int


@pytest.mark.parametrize("call, message", [
    (lambda: cc.RationalCone.from_rays([(1, 2, 3)], 2),
     "ray has length 3, expected 2"),
    (lambda: cc.RationalCone.from_rays([(1, 0)], 2).contains((1, 2, 3)),
     "vector has length 3, expected 2"),
], ids=["from_rays", "contains"])
def test_vectors_of_the_wrong_length_are_refused_with_one_message(call, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        call()


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


# two or three nontrivial invariant factors each, so every carry between
# wheels runs: (2, 2, 2), (2, 6), (2, 4, 12), (2, 48) and (2, 6, 12)
_MULTI_WHEEL_RAYS = [
    [(2, 0, 0), (0, 2, 0), (0, 0, 2)],
    [(2, 0, 0), (0, 6, 0), (0, 0, 1)],
    [(2, 0, 0), (0, 4, 0), (0, 0, 12)],
    [(2, 0, 0), (0, 4, 0), (1, 1, 12)],
    [(4, 0, 0, 0), (0, 2, 0, 0), (0, 0, 6, 0), (1, 0, 0, 3)]]


def test_parallelepiped_points_match_rational_solve():
    rng = random.Random(2026)
    fixed = _MULTI_WHEEL_RAYS
    cases = fixed + [_random_independent_rays(rng) for _ in range(40)]
    for rays in cases:
        m = len(rays)
        diag = xl.smith_normal_form(xl.intmat_from_columns(rays, nrows=m)).diag
        big, nums = xl._parallelepiped_numerators(rays)
        assert big == (diag[-1] if diag else 1)
        assert all(type(n) is int and 0 <= n < big for ns in nums for n in ns)
        got = sorted(zip(cc._lattice_points(nums, big, rays),
                         (tuple(Fraction(n, big) for n in ns) for ns in nums)))
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
        cc._lattice_points([(1, 0)], 2, [(1, 0), (0, 2)])
    with pytest.raises(InternalCheckError):
        cc._lattice_points([(0, 0), (1, 1), (1, 0)], 2, [(1, 0), (0, 2)])


def _odometer_numerators(ray_coords):
    """The numerator odometer that ``_parallelepiped_numerators`` replaces:
    one Python step per class, adding one column of V diag(L/d) mod L, the
    first wheel fastest; a wrapping digit adds its column a d-th time,
    which is 0 mod L."""
    m = len(ray_coords)
    dec = xl._snf_full(xl._from_columns(ray_coords, m))
    orders = dec.diag
    big = orders[-1] if orders else 1
    wheels = [(d, tuple(row[k] * (big // d) % big for row in dec.right.rows))
              for k, d in enumerate(orders) if d > 1]
    digits = [0] * len(wheels)
    nums = (0,) * m
    out = []
    while True:
        for k, (d, col) in enumerate(wheels):
            nums = tuple([(a + b) % big for a, b in zip(nums, col)])
            digits[k] += 1
            if digits[k] < d:
                break
            digits[k] = 0
        else:
            return big, out
        out.append(nums)


def _oracle_irreducible(ranked):
    """The reduction that ``_irreducible`` replaces: ``any`` over a
    generator of domination tests on an ``islice`` of the kept values."""
    kept, degrees, kept_values = [], [], []
    for deg, values, item in ranked:
        cut = bisect.bisect_right(degrees, deg // 2)
        if not any(all(map(operator.le, b, values))
                   for b in itertools.islice(kept_values, cut)):
            kept.append(item)
            degrees.append(deg)
            kept_values.append(values)
    return kept


def _oracle_lattice_point(nums, big, ray_coords):
    """The point sum_i (N_i / L) r_i of one numerator tuple, a coordinate
    at a time with ``divmod``, as ``_lattice_points`` did it per point."""
    point = []
    for coords in zip(*ray_coords):
        q, r = divmod(sum(n * c for n, c in zip(nums, coords)), big)
        assert not r
        point.append(q)
    return tuple(point)


def _oracle_subdivision_point(cone):
    """``_subdivision_point`` through the odometer, a key function per
    class and one point per call."""
    down, up, _ = cone._span
    rays = [down(r) for r in cone.extreme_rays]
    big, nums = _odometer_numerators(rays)
    best = min(nums, key=lambda n: (sum(n), n))
    return up(_oracle_lattice_point(best, big, rays))


@st.composite
def _independent_ray_sets(draw):
    """m linearly independent rays in Z^m for m from 1 to 4, not all
    primitive, with entries small enough that the odometer stays fast."""
    m = draw(st.integers(1, 4))
    r = {1: 60, 2: 12, 3: 6, 4: 3}[m]
    vec = st.tuples(*[st.integers(-r, r)] * m)
    return draw(st.lists(vec, min_size=m, max_size=m)
                .filter(lambda g: _rank(g) == m))


@settings(_DIFFERENTIAL, max_examples=200)
@given(_independent_ray_sets())
@example(_MULTI_WHEEL_RAYS[0])
@example(_MULTI_WHEEL_RAYS[1])
@example(_MULTI_WHEEL_RAYS[2])
@example(_MULTI_WHEEL_RAYS[3])
@example(_MULTI_WHEEL_RAYS[4])
def test_parallelepiped_kernel_matches_the_loops_it_replaces(rays):
    # the same classes in the same order, the same survivors in the same
    # order, the same points and the same subdivision point as the
    # per-class loops
    big, nums = xl._parallelepiped_numerators(rays)
    assert (big, nums) == _odometer_numerators(rays)
    ranked = sorted((sum(n), n, n) for n in nums)
    assert cc._irreducible(ranked) == _oracle_irreducible(ranked)
    if len(rays) == 3:
        assert cc._minimal_triples(nums) == sorted(_oracle_irreducible(ranked))
    assert cc._lattice_points(nums, big, rays) == [
        _oracle_lattice_point(n, big, rays) for n in nums]
    cone = cc.RationalCone.from_rays(rays, len(rays))
    if cc.multiplicity(cone) > 1:
        assert cc._subdivision_point(cone) == _oracle_subdivision_point(cone)


@settings(_DIFFERENTIAL, max_examples=200)
@given(st.lists(st.tuples(*[st.integers(0, 5)] * 3).filter(any),
                unique=True, max_size=40))
def test_irreducible_matches_the_loop_it_replaces(values):
    # ranked by a positive form other than the sum, items apart from values
    ranked = sorted((v[0] + 2 * v[1] + 3 * v[2], v, i)
                    for i, v in enumerate(values))
    assert cc._irreducible(ranked) == _oracle_irreducible(ranked)


@st.composite
def _triples_with_ties(draw):
    """Distinct nonzero triples over few first coordinates and few
    projections to the last two, so that triples tie in the first
    coordinate and share their projection, in no particular order."""
    firsts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=1, max_size=6))
    triples = draw(st.lists(
        st.tuples(st.sampled_from(firsts), st.sampled_from(pairs)),
        max_size=30))
    return draw(st.permutations(
        sorted({(a, b, c) for a, (b, c) in triples if a or b or c})))


def _closed_under_differences(triples):
    """The least set of triples that holds the given ones and h - b for any
    two of its members b <= h, b != h: like the numerators of a
    parallelepiped, whose differences of that kind are numerators too.
    ``_irreducible`` needs that for its degree bound."""
    out = set(triples)
    todo = list(out)
    while todo:
        h = todo.pop()
        for b in list(out):
            for x, y in ((h, b), (b, h)):
                d = tuple(map(operator.sub, x, y))
                if any(d) and min(d) >= 0 and d not in out:
                    out.add(d)
                    todo.append(d)
    return sorted(out)


def _minimal_by_all_pairs(triples):
    return sorted(t for t in triples if not any(
        u != t and all(map(operator.le, u, t)) for u in triples))


@settings(_DIFFERENTIAL, max_examples=300)
@given(_triples_with_ties())
@example([(0, 1, 2), (1, 1, 2), (0, 2, 1), (2, 0, 4), (2, 0, 3), (3, 2, 1)])
@example([(1, 2, 3), (1, 3, 2), (1, 2, 2), (0, 3, 3), (0, 4, 1), (4, 0, 0)])
def test_minimal_triples_match_the_degree_ranked_reduction(triples):
    # as sets, the sweep keeps what the reduction it replaces for span
    # dimension 3 keeps, on a set closed like the numerators it reduces;
    # it needs no closure, and keeps the minimal ones of any set, in lex
    # order
    closed = _closed_under_differences(triples)
    ranked = sorted((sum(t), t, t) for t in closed)
    kept = cc._minimal_triples(closed[::-1])
    assert kept == sorted(_oracle_irreducible(ranked))
    assert kept == _minimal_by_all_pairs(closed)
    assert cc._minimal_triples(triples) == _minimal_by_all_pairs(triples)


def _oracle_hilbert_basis(cone):
    """The full parallelepiped candidate set reduced all-pairs: the path
    that the continued fraction (dimension 2) and the degree-order reduction
    (dimension >= 3) of ``hilbert_basis`` replace."""
    if not cone.is_strongly_convex:
        raise DomainError("Hilbert bases are defined for strongly convex cones")
    if cone.is_zero:
        return ()
    down, up, _ = cone._span
    m = cone.span_dim
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
    down, up, _ = cone._span
    m = cone.span_dim
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


@st.composite
def _span_3_simplices(draw):
    """Three independent vectors of Z^3 or Z^4: a simplicial cone of span
    dimension 3, of multiplicity up to about a hundred."""
    dim = draw(st.sampled_from([3, 4]))
    vec = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=3, max_size=3, unique=True)
                .filter(lambda g: _rank(g) == 3))
    return gens, dim


@settings(_DIFFERENTIAL, max_examples=150)
@given(_span_3_simplices())
@example(([(1, 0, 0), (0, 1, 0), (37, 91, 200)], 3))
@example(([(1, 0, 0), (0, 1, 0), (1, 1, 60)], 3))
@example(([(2, 0, 0), (0, 4, 0), (1, 1, 12)], 3))
@example(([(1, 0, 0, 0), (0, 1, 0, 0), (3, 5, 40, 40)], 4))
@example(([(1, 1, 0, 2), (0, 1, 1, -1), (3, -2, 5, 7)], 4))
def test_hilbert_basis_matches_oracle_span_3_simplices(case):
    # the Pareto-minima sweep of the parallelepiped numerators against the
    # all-pairs reduction of every candidate point
    gens, dim = case
    cone = cc.RationalCone.from_rays(gens, dim)
    assert cone.is_simplicial and cone.span_dim == 3
    assert cc.hilbert_basis(cone) == _oracle_hilbert_basis(cone), gens


def test_hilbert_basis_of_a_multiplicity_200000_simplex():
    # 199,999 parallelepiped points and 7,589 basis elements; the digest
    # is that of the basis the degree-ranked reduction returned, in 8-9 s
    cone = cc.RationalCone.from_rays(
        [(1, 0, 0), (0, 1, 0), (37, 91, 200000)], 3)
    start = time.perf_counter()
    basis = cc.hilbert_basis(cone)
    elapsed = time.perf_counter() - start
    assert len(basis) == 7589
    payload = json.dumps(basis, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        "e36d7b2e376deebd73781980b87cdfc1abf3180f17478213b6c426b591d48970"
    assert elapsed < 3, f"{elapsed:.2f} s"


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


def _monoid_of_cone_by_cases(cone):
    """``monoid_of_cone`` with the removed cases: a full-dimensional cone
    through the public constructor on Z^dim, the zero cone as the trivial
    monoid."""
    gens = cc.cone_lattice_generators(cone)
    if cone.is_full_dimensional:
        amb = xl.FgAbelianGroup(cone.dim, ())
        return mc.AffineMonoid(amb, [mc.MonoidElement(free=g) for g in gens])
    return mc.AffineMonoid.from_vectors(gens) if gens else mc.free_monoid(0)


@st.composite
def _cones_of_every_dimension(draw):
    """A cone in Z^0..Z^3 on up to dim + 1 rays with entries in [-2, 2]:
    the zero cone, lower-dimensional and full-dimensional cones, pointed or
    not."""
    dim = draw(st.integers(0, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * dim)
    return cc.RationalCone.from_rays(
        draw(st.lists(vec, max_size=dim + 1)), dim)


@settings(_DIFFERENTIAL, max_examples=150)
@given(_cones_of_every_dimension())
@example(cc.RationalCone.from_rays([], 0))
@example(cc.RationalCone.from_rays([(0, 0, 0)], 3))
@example(cc.RationalCone.from_rays([(1, 0, 0), (1, 2, 0)], 3))
@example(cc.RationalCone.from_rays([(1, 1), (-1, -1)], 2))
@example(cc.RationalCone.from_rays([(1, 0), (1, 3)], 2))
@example(cc.RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)], 2))
def test_monoid_of_cone_matches_the_case_split(cone):
    assert monoid_of_cone(cone) == _monoid_of_cone_by_cases(cone)


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


def test_simplicial_cones_keep_their_determinant(count_calls):
    # the closed form of from_rays computes det(R) once, and multiplicity,
    # is_regular and Fan.is_regular read it
    cones = [cc.RationalCone.from_rays(gens, len(gens[0])) for gens in (
        [(-3,)], [(1, 0), (1, 7)], [(1, 0, 0), (0, 1, 0), (1, 1, -5)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 2, 3, 9)],
        [(1, 0, 1), (1, 2, 1)])]
    cones.append(cc._simplicial_cone([(0, 1), (1, 0)], 2, (),
                                     cc._span_maps((), 2)))
    dets = count_calls(xl, "det_adjugate")
    assert [cc.multiplicity(c) for c in cones] == [1, 7, 5, 9, 2, 1]
    assert [cc.is_regular(c) for c in cones] == [True, False, False, False,
                                                 False, True]
    assert not cc.Fan(dim=3, maximal_cones=(cones[2],)).is_regular()
    assert dets == []
    # a cone from double description computes it on first use only
    plane = cc.RationalCone.from_rays([(1, 0, 1), (1, 2, 1), (2, 2, 2)], 3)
    assert cc.multiplicity(plane) == 2
    first = len(dets)
    assert cc.multiplicity(plane) == 2
    assert len(dets) == first


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


@pytest.mark.parametrize("dim", range(4))
def test_zero_cone_takes_the_general_path(dim):
    # the span lattice is Z^0: no rays have determinant 1, and the pulling
    # triangulation is one empty simplex without parallelepiped points
    zero = cc.RationalCone.from_rays([], dim)
    assert cc.multiplicity(zero) == 1
    assert cc.hilbert_basis(zero) == ()
    # no forms cut out all of Z^dim
    assert xl._saturated_kernel((), dim) == tuple(
        tuple(int(i == j) for j in range(dim)) for i in range(dim))


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
# the multiplicity each cone keeps, on every route that builds a cone


def _from_rays(case):
    return [cc.RationalCone.from_rays(*case)]


def _joins_at(case, coeffs):
    """The joins of a full-dimensional simplicial cone with the nonzero
    nonnegative combination ``coeffs`` of its rays."""
    cone = cc.RationalCone.from_rays(*case)
    v = tuple(sum(c * r[i] for c, r in zip(coeffs, cone.extreme_rays))
              for i in range(cone.dim))
    if len(cone.extreme_rays) != cone.dim or not any(v):
        return []
    return list(cc._joins(cone, cc.primitive(v)))


def _pieces_2d(rays, dim):
    if dim == 3:
        rays = [(a, b, a + 2 * b) for a, b in rays]
    if _rank(rays) < 2:
        return []
    return list(cc._regular_pieces_2d(cc.RationalCone.from_rays(rays, dim)))


def _pulled(cone):
    if not cone.is_strongly_convex:
        return []
    return [cc.RationalCone.from_rays(t, cone.dim)
            for t in cc.pulling_triangulation(cone)]


def _dual_and_replaced(case, other):
    """The dual of a full-dimensional simplicial cone, and that cone with
    every field replaced by those of ``other``, each after the multiplicity
    of the cone it comes from was read."""
    cone = cc.RationalCone.from_rays(*case)
    if len(cone.extreme_rays) != cone.dim:
        return []
    cc.multiplicity(cone)
    [c] = _from_rays(other)
    return [cc.dual_cone(cone), dataclasses.replace(cone, **{
        f.name: getattr(c, f.name) for f in dataclasses.fields(c)})]


_small_rays_2d = st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                          min_size=2, max_size=2)


@settings(_DIFFERENTIAL, max_examples=300)
@given(st.one_of(
    _independent_generator_lists().map(_from_rays),
    st.builds(_joins_at, _independent_generator_lists(),
              st.lists(st.integers(0, 2), min_size=4, max_size=4)),
    st.builds(_pieces_2d, _small_rays_2d, st.sampled_from([2, 3])),
    _pointed_cones_to_z5().map(_pulled),
    st.builds(_dual_and_replaced, _independent_generator_lists(),
              _independent_generator_lists())))
def test_kept_multiplicity_matches_the_smith_invariant_factors(cones):
    for cone in cones:
        assert cone.is_simplicial
        m = _smith_multiplicity(cone)
        assert cc.multiplicity(cone) == m
        if cone.is_full_dimensional:
            assert m == _oracle_det_abs(cone.extreme_rays)


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


def test_the_constructor_refuses_an_overlapping_pair():
    # the cones overlap in cone((1, 1), (1, 2)): they make no fan, and the
    # step at (1, 1) trusts its input and keeps the overlap, so the
    # constructor, which every caller's fan goes through, refuses them
    cones = (cc.RationalCone.from_rays([(1, 0), (1, 2)], 2),
             cc.RationalCone.from_rays([(1, 1), (0, 1)], 2))
    trusted = cc.Fan._built(2, cones)
    assert _verdict(cc.Fan.validate,
                    cc.stellar_subdivision(trusted, (1, 1))) == _BAD_MEET
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.Fan(2, cones)
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.fan_from_cones(cones, 2, validate=False)


def barycentric_subdivision(fan, validate=True):
    """Stellar subdivision at every face barycenter, in descending dimension.

    The barycenter of a face is the sum of its primitive extreme rays; faces
    of dimension <= 1 are fixed points of the operation and are skipped.
    Generates fans for the differential tests below.
    """
    faces_by_dim = {}
    for f in all_cones(fan):
        if f.span_dim >= 2:
            faces_by_dim.setdefault(f.span_dim, []).append(f)
    current = fan
    for d in sorted(faces_by_dim, reverse=True):
        for f in sorted(faces_by_dim[d], key=cc.RationalCone.sort_key):
            barycenter = f.extreme_rays[0]
            for r in f.extreme_rays[1:]:
                barycenter = cc.vadd(barycenter, r)
            current = cc.stellar_subdivision(current, barycenter)
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
            fan = cc.resolve(fan)
        elif step == "barycentric":
            fan = barycentric_subdivision(fan, validate=False)
        else:
            coeffs = draw(st.lists(st.integers(0, 2), min_size=len(
                cone.extreme_rays), max_size=len(cone.extreme_rays)))
            point = tuple(sum(c * r[i] for c, r in zip(
                coeffs, cone.extreme_rays)) for i in range(dim))
            assume(any(point))
            fan = cc.stellar_subdivision(fan, point)
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
    a, b = pair
    assume(not a.contains_cone(b) and not b.contains_cone(a))
    fan = cc.Fan._built(a.dim, pair)
    expected = _verdict(_oracle_validate, fan)
    assert _verdict(cc.Fan.validate, fan) == expected
    assert _verdict(lambda cones: cc.Fan(a.dim, cones), pair) == expected


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
    return cc.Fan._built(dim, (first, second))


@settings(_DIFFERENTIAL, max_examples=60)
@given(_overlapping_pairs())
def test_validate_matches_oracle_on_overlapping_pairs(fan):
    assert len(fan.maximal_cones) == 2
    assert _verdict(_oracle_validate, fan) == _BAD_MEET
    assert _verdict(cc.Fan.validate, fan) == _BAD_MEET
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.Fan(fan.dim, fan.maximal_cones)


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
    fan = cc.Fan._built(3, (up, down))
    assert _verdict(_oracle_validate, fan) == _BAD_MEET
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.Fan(3, (up, down))
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.fan_from_cones([up, down], 3)


def test_validate_2d_resolutions_without_double_description(count_calls):
    # in 2D every pair of cones of a subdivision of a pointed cone has a
    # separating facet normal, so validation needs no double description
    fans = [cc.resolve(_fan([[(1, 0), (1, k)]], 2))
            for k in range(1, 26)]
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    for fan in fans:
        fan.validate()
    assert sum(len(f.maximal_cones) for f in fans) == 25 * 26 // 2
    assert dd_calls == []


# ---------------------------------------------------------------------------
# stellar subdivision against the facet-by-facet path


def _oracle_joins(cone, v):
    """The joins of v with the facets of the cone not containing it, each
    facet built as a cone."""
    return tuple(cc.RationalCone.from_rays(f.generators + (v,), cone.dim)
                 for f in facets(cone) if not f.contains(v))


_TRUSTED_FAN = cc.Fan._built


def _reduced(cls, dim, cones):
    """The public constructor's reduction without its pair check: the
    distinct cones inside no other one, sorted by the trusted constructor.
    On a fan it drops nothing."""
    cones = list(dict.fromkeys(cones))
    return _TRUSTED_FAN(dim, [
        p for p in cones
        if not any(q != p and q.contains_cone(p) for q in cones)])


def _outcome(f, *args):
    """The result of the call, or the type and message of its error."""
    try:
        return f(*args)
    except (DomainError, InternalCheckError) as exc:
        return type(exc), str(exc)


def _oracle_stellar_loop(fan):
    """The resolution loop that rescans every cone at each step: while a
    singular cone remains, the one of largest multiplicity (ties by rays) is
    split at its subdivision point by ``stellar_subdivision``, and the
    pieces of a replaced cone are the new cones inside it."""
    mult = functools.cache(cc.multiplicity)
    while True:
        singular = [c for c in fan.maximal_cones if mult(c) > 1]
        if not singular:
            return fan
        worst = min(singular, key=lambda c: (-mult(c), c.extreme_rays))
        v = cc._subdivision_point(worst)
        new = cc.stellar_subdivision(fan, v)
        if any(mult(piece) >= mult(old)
               for old in fan.maximal_cones if old.contains(v)
               for piece in new.maximal_cones if old.contains_cone(piece)):
            raise InternalCheckError(
                "stellar subdivision failed to decrease multiplicity")
        fan = new


def _with_oracle_pieces(f, *args):
    """The outcome of the call with the facet-by-facet joins, the rescanning
    loop, and the reduction of ``_reduced`` in place of every trusted
    construction of a fan."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "_joins", _oracle_joins)
        mp.setattr(cc, "_stellar_loop", _oracle_stellar_loop)
        mp.setattr(cc.Fan, "_built", classmethod(_reduced))
        return _outcome(f, *args)


@st.composite
def _support_points(draw, fan):
    """A nonzero nonnegative combination of the rays of one cone of the
    fan."""
    rays = draw(st.sampled_from(fan.maximal_cones)).extreme_rays
    coeffs = draw(st.lists(st.integers(0, 2), min_size=len(rays),
                           max_size=len(rays)))
    point = tuple(sum(c * r[i] for c, r in zip(coeffs, rays))
                  for i in range(fan.dim))
    assume(any(point))
    return point


@st.composite
def _stellar_fans(draw):
    """A fan of one to three cones in Z^2 or Z^3: each drawn cone is kept
    if the constructor takes it with every kept one, so the fan validates."""
    dim = draw(st.sampled_from([2, 3]))
    kept = []
    for c in draw(st.lists(_pointed_cones(dim), min_size=1, max_size=3)):
        if all(_verdict(lambda pair: cc.Fan(dim, pair), (k, c)) is None
               for k in kept):
            kept.append(c)
    return cc.Fan(dim=dim, maximal_cones=tuple(kept))


def _stellar_cases(fans):
    """A fan of ``fans`` and a point of its support."""
    return fans.flatmap(lambda fan: st.tuples(st.just(fan),
                                              _support_points(fan)))


@settings(_DIFFERENTIAL, max_examples=200)
@given(st.one_of(
    _stellar_cases(_stellar_fans()),
    _stellar_cases(_library_fans().filter(
        lambda fan: len(fan.maximal_cones) <= 12))))
def test_stellar_pieces_match_oracle(case):
    # the joins of each cone through the point are its facet-by-facet
    # pieces, and on a fan the trusted step keeps what the reduction keeps
    fan, point = case
    v = cc.primitive(point)
    for c in fan.maximal_cones:
        if c.contains(v):
            assert set(cc._joins(c, v)) == set(_oracle_joins(c, v))
    assert _with_oracle_pieces(cc.stellar_subdivision, fan, point) == \
        cc.stellar_subdivision(fan, point)


@settings(_DIFFERENTIAL, max_examples=100)
@given(st.one_of(
    _stellar_fans(),
    # the oracle reduces every intermediate fan over all pairs of cones
    _library_fans().filter(lambda fan: len(fan.maximal_cones) <= 4)))
def test_subdivisions_match_oracle_pieces(fan):
    # barycentric_subdivision validates its output; resolve runs the
    # star-local loop, its oracle the rescanning one
    for f in (barycentric_subdivision, cc.resolve):
        result = _outcome(f, fan)
        assert isinstance(result, cc.Fan)
        assert result == _with_oracle_pieces(f, fan)


def test_stellar_keeps_every_piece_of_a_fan(count_calls):
    # v = (1, 1, 0) lies on the common facet of the two cones: each has two
    # pieces, and none lies in a piece of the other, which only a proper
    # face of each cone could hold
    up = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    down = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, -1)], 3)
    fan = cc.fan_from_cones([up, down], 3)
    contains = count_calls(cc.RationalCone, "contains_cone")
    new = cc.stellar_subdivision(fan, (1, 1, 0))
    assert contains == []
    assert new.maximal_cones == tuple(sorted(
        cc._joins(up, (1, 1, 0)) + cc._joins(down, (1, 1, 0)),
        key=cc.RationalCone.sort_key))
    assert [c.extreme_rays for c in new.maximal_cones] == [
        ((0, 0, -1), (0, 1, 0), (1, 1, 0)),
        ((0, 0, -1), (1, 0, 0), (1, 1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 1, 0)),
        ((0, 0, 1), (1, 0, 0), (1, 1, 0))]
    assert new == _with_oracle_pieces(cc.stellar_subdivision, fan, (1, 1, 0))
    new.validate()


def test_resolve_of_simplicial_fans_makes_no_double_description(count_calls):
    fans = [_fan([[(1, 0), (1, 12)]], 2),
            _fan([[(1, 0), (2, 7)], [(2, 7), (-3, 5)]], 2),
            _fan([[(1, 0, 0), (0, 1, 0), (1, 1, 6)]], 3),
            _fan([[(1, 0, 0), (0, 1, 0), (1, 2, 5)],
                  [(1, 0, 0), (0, 1, 0), (-1, 3, -4)]], 3)]
    dd_calls = count_calls(cc, "extreme_rays_of_halfspaces")
    for fan in fans:
        assert cc.resolve(fan).is_regular()
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
    # caller's input is at fault, not the triangulation, and the fan that
    # resolve would take is refused when it is built
    cones = (cc.RationalCone.from_rays([(1, 0), (1, 2)], 2),
             cc.RationalCone.from_rays([(1, 1), (0, 1)], 2))
    with pytest.raises(DomainError, match=_BAD_MEET):
        cc.Fan._built(2, cones).validate()
    with pytest.raises(DomainError, match=_BAD_MEET) as exc:
        cc.resolve(cc.Fan(2, cones))
    assert not isinstance(exc.value, InternalCheckError)


def _verify_resolve_with(tmp_path, monkeypatch, capsys, cone, triangles):
    """The stderr of ``resolve --verify`` on the fan of one cone, with its
    (injected) triangulation: a true fan whose triangulation overlaps.
    ``resolve`` trusts the triangulation and exits 0; ``--verify`` reports
    the result as an internal fault."""
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(
        {"kind": "fan", "dim": 3, "maximal_cones": [cone]}))
    monkeypatch.setattr(cc, "pulling_triangulation", lambda c: triangles)
    assert cli.main(["resolve", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["resolve", "--verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_resolve_of_a_fan_reports_a_broken_triangulation(tmp_path, monkeypatch,
                                                         capsys):
    # overlapping triangles of multiplicity 2: the stellar step at (0, 0, 1)
    # gives a fan that misses the cone over (-1, 0, 1), (0, -1, 1)
    err = _verify_resolve_with(
        tmp_path, monkeypatch, capsys,
        [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
        [((1, 0, 1), (0, 1, 1), (-1, 0, 1)),
         ((1, 0, 1), (0, 1, 1), (0, -1, 1))])
    assert "resolution does not cover an input cone" in err


def test_resolve_of_a_fan_reports_an_overlapping_regular_triangulation(
        tmp_path, monkeypatch, capsys):
    # overlapping unit triangles of the unit square: regular, so no stellar
    # step moves them
    err = _verify_resolve_with(
        tmp_path, monkeypatch, capsys,
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
        [((0, 0, 1), (1, 0, 1), (1, 1, 1)),
         ((0, 0, 1), (0, 1, 1), (1, 0, 1))])
    assert "resolution is not a fan" in err


@st.composite
def _fans_2d(draw):
    """A fan of one to ten cones spanning a plane: consecutive pairs of
    vectors of the upper half plane sorted by angle, sometimes with their
    negatives, in Z^2 or mapped into Z^3 by an injective integer matrix (so
    the span lattice is not a coordinate plane)."""
    vec = st.tuples(st.integers(-30, 30), st.integers(0, 30)).filter(
        lambda v: v[1] > 0 or v[0] > 0)
    vecs = {cc.primitive(v) for v in draw(st.lists(vec, min_size=2,
                                                   max_size=6))}
    vecs = sorted(vecs, key=functools.cmp_to_key(
        lambda u, v: v[0] * u[1] - u[0] * v[1]))
    assume(len(vecs) >= 2)
    pairs = [p for p in zip(vecs, vecs[1:]) if draw(st.booleans())]
    assume(pairs)
    if draw(st.booleans()):
        pairs += [(cc.vneg(u), cc.vneg(v)) for u, v in pairs]
    if draw(st.booleans()):
        return cc.fan_from_cones(
            [cc.RationalCone.from_rays(p, 2) for p in pairs], 2)
    cols = draw(st.tuples(*[st.tuples(*[st.integers(-2, 2)] * 3)] * 2))
    assume(_rank(list(cols)) == 2)

    def embed(v):
        return tuple(v[0] * a + v[1] * b for a, b in zip(*cols))

    return cc.fan_from_cones(
        [cc.RationalCone.from_rays([embed(u), embed(v)], 3)
         for u, v in pairs], 3)


@settings(_DIFFERENTIAL, max_examples=100)
@given(st.one_of(_fans_2d(), _library_fans()))
def test_resolution_is_a_fan(fan):
    resolved = cc.resolve(fan)
    assert resolved.is_regular()
    resolved.validate()
    # and a true resolution passes every --verify check
    assert list(check_resolve(fan, resolved)) == [
        "regular", "smith", "canonical", "support", "fan", "refines",
        "covers"]


@st.composite
def _simplicial_fans_3d(draw):
    """One or two full-dimensional simplicial cones in Z^3: cone(a, b, c),
    alone, with its negative (they meet at 0), or with cone(a, b, d) for a
    d on the other side of span(a, b) (they meet in cone(a, b))."""
    vec = st.tuples(*[st.integers(-4, 4)] * 3).filter(any)
    a, b, c = draw(st.lists(vec, min_size=3, max_size=3).filter(
        lambda g: _rank(g) == 3))
    cones = [cc.RationalCone.from_rays([a, b, c], 3)]
    other = draw(st.sampled_from(["none", "negative", "neighbour"]))
    if other == "negative":
        cones.append(cc.RationalCone.from_rays([cc.vneg(c), cc.vneg(b),
                                                cc.vneg(a)], 3))
    elif other == "neighbour":
        s, t = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        d = tuple(s * x + t * y - 2 * z for x, y, z in zip(a, b, c))
        cones.append(cc.RationalCone.from_rays([a, b, d], 3))
    return cc.fan_from_cones(cones, 3)


def _triangulated(fan):
    """The fan of the pulling triangulations of the cones of a fan."""
    return cc.Fan._built(fan.dim, [
        s for c in fan.maximal_cones
        for s in ([c] if c.is_simplicial else [
            cc.RationalCone.from_rays(t, fan.dim)
            for t in cc.pulling_triangulation(c)])])


@settings(_DIFFERENTIAL, max_examples=150)
@given(st.one_of(
    _fans_2d(), _stellar_fans(), _simplicial_fans_3d(),
    _library_fans().filter(lambda fan: len(fan.maximal_cones) <= 12)))
def test_stellar_loop_matches_the_rescanning_loop(fan):
    # the same fan, cones in the same order, by the star-local steps
    simplicial = _triangulated(fan)
    assert cc._stellar_loop(simplicial).maximal_cones == \
        _oracle_stellar_loop(simplicial).maximal_cones
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cc, "_stellar_loop", _oracle_stellar_loop)
        old = cc.resolve(fan)
    assert cc.resolve(fan).maximal_cones == old.maximal_cones


def _covers_by_facet_cones(cone, cones):
    """``_covers`` with every facet built as a cone, and matched as one."""
    full = [c for c in cones if c.span_dim == cone.span_dim]
    shared = collections.Counter(f for c in full for f in facets(c))
    boundary = facets(cone)
    return bool(full) and all(
        n > 1 or any(b.contains_cone(f) for b in boundary)
        for f, n in shared.items())


@settings(_DIFFERENTIAL, max_examples=150)
@given(st.one_of(
    _fans_2d(), _stellar_fans(), _simplicial_fans_3d(),
    _library_fans().filter(lambda fan: len(fan.maximal_cones) <= 12)),
    st.sampled_from([cc.resolve, _triangulated]), st.data())
def test_covers_matches_the_facet_cones(fan, subdivide, data):
    # the pieces in each input cone, all of them or some dropped
    pieces = subdivide(fan).maximal_cones
    for cone in fan.maximal_cones:
        inside = [p for p in pieces if cone.contains_cone(p)]
        drop = data.draw(st.sets(st.integers(0, len(inside) - 1),
                                 max_size=2))
        kept = [p for i, p in enumerate(inside) if i not in drop]
        assert _covers(cone, kept) == _covers_by_facet_cones(cone, kept)
        assert _covers(cone, inside)


@pytest.mark.parametrize("rays", [[(1, 0), (1, 40)], [(1, 0, 0), (1, 40, 0)],
                                  [(1, 0, 0), (0, 1, 0), (1, 1, 12)]])
def test_covers_builds_no_cone(rays, count_calls):
    cone = cc.RationalCone.from_rays(rays, len(rays[0]))
    pieces = cc.resolve(_fan([rays], cone.dim)).maximal_cones
    cones = count_calls(cc.RationalCone, "from_rays")
    assert _covers(cone, pieces)
    assert not _covers(cone, pieces[1:])
    assert cones == []


@pytest.mark.parametrize("n", [50, 200])
def test_stellar_steps_touch_only_the_star(n, count_calls):
    # the rescanning loop tests every cone at every step: 2,842 membership
    # tests for n = 50 and 41,392 for n = 200, quadratic in n; the star-local
    # loop tests only the generators of the pieces it builds
    fan = _fan([[(1, 0, 0), (0, 1, 0), (1, 1, n)]], 3)
    contains = count_calls(cc.RationalCone, "contains")
    resolved = cc._stellar_loop(fan)
    assert len(resolved.maximal_cones) == 2 * n - 1
    assert resolved.is_regular()
    assert len(contains) <= 5 * len(resolved.maximal_cones)


@settings(_DIFFERENTIAL, max_examples=100)
@given(_fans_2d())
def test_2d_resolution_matches_the_stellar_loop(fan):
    resolved = cc.resolve(fan)
    assert resolved == cc._stellar_loop(fan)
    # regular cones are kept, not rebuilt
    regular = [c for c in fan.maximal_cones if cc.is_regular(c)]
    assert all(any(c is r for r in resolved.maximal_cones) for c in regular)


def test_2d_resolution_takes_no_subdivision_point(count_calls):
    fan = _fan([[(0, 1), (100000, -1)]], 2)
    points = count_calls(cc, "_subdivision_point")
    resolved = cc.resolve(fan)
    assert [c.extreme_rays for c in resolved.maximal_cones] == [
        ((0, 1), (1, 0)), ((1, 0), (100000, -1))]
    assert points == []


def test_2d_resolution_checks_each_piece(monkeypatch):
    # a continued fraction that skips a basis element leaves a singular piece
    real = cc._hilbert_basis_2d
    monkeypatch.setattr(cc, "_hilbert_basis_2d",
                        lambda r1, r2: [real(r1, r2)[0], *real(r1, r2)[2:]])
    with pytest.raises(InternalCheckError, match="continued fraction"):
        cc.resolve(_fan([[(1, 0), (1, 3)]], 2))


@st.composite
def _singular_cones_2d(draw):
    """A singular cone of span dimension 2 in Z^2, Z^3 or Z^4: an A_k-type
    cone (1, 0), (1, k) padded with zeros, or two independent vectors with
    entries up to 40 in Z^2 and up to 6 beyond, in either order."""
    dim = draw(st.sampled_from([2, 2, 3, 4]))
    if draw(st.booleans()):
        pad = (0,) * (dim - 2)
        rays = [(1, 0, *pad), (1, draw(st.integers(2, 400)), *pad)]
    else:
        r = 40 if dim == 2 else 6
        vec = st.tuples(*[st.integers(-r, r)] * dim).filter(any)
        rays = draw(st.lists(vec, min_size=2, max_size=2).filter(
            lambda g: _rank(g) == 2))
    cone = cc.RationalCone.from_rays(rays, dim)
    assume(cc.multiplicity(cone) > 1)
    return cone


@settings(_DIFFERENTIAL, max_examples=200)
@given(_singular_cones_2d())
def test_2d_pieces_match_from_rays(cone):
    # each closed-form piece, lifted from the span coordinates of the cone,
    # is the cone double description builds from its rays
    pieces = cc._regular_pieces_2d(cone)
    assert len(pieces) > 1
    for piece in pieces:
        oracle = _oracle_from_rays(piece.extreme_rays, cone.dim)
        for f in dataclasses.fields(cc.RationalCone):
            assert getattr(piece, f.name) == getattr(oracle, f.name)
        assert piece._abs_det == 1
        assert cc.multiplicity(piece) == cc.multiplicity(oracle) == 1


@pytest.mark.parametrize("n, dim", [(50, 2), (500, 2), (500, 3)],
                         ids=["50", "500", "500-in-z3"])
def test_2d_resolution_builds_no_cone_by_double_description(n, dim,
                                                            count_calls):
    # the continued fraction gives the rays, the adjugate of each unimodular
    # pair its normals, in the span coordinates of the input cone: no
    # from_rays, no determinant, and one span decomposition, made when the
    # input cone is built and shared by every piece
    pad = (0,) * (dim - 2)
    quotient_calls = count_calls(xl, "_quotient_maps")
    fan = _fan([[(1, 0, *pad), (1, n, *pad)]], dim)
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    det_calls = count_calls(xl, "det_adjugate")
    resolved = cc.resolve(fan)
    assert len(resolved.maximal_cones) == n
    assert from_rays_calls == []
    assert det_calls == []
    assert len(quotient_calls) == (1 if dim > 2 else 0)


@st.composite
def _simplicial_cases(draw):
    """A simplicial cone, full-dimensional in Z^3 or Z^4 or of span
    dimension 2 or 3 in Z^3 to Z^5, and a primitive nonzero nonnegative
    combination of its rays (possibly a ray)."""
    dim = draw(st.sampled_from([3, 4, 5]))
    span = draw(st.sampled_from([2, 3, dim] if dim < 5 else [2, 3]))
    r = _ENTRY_RANGE[span]
    vec = st.tuples(*[st.integers(-r, r)] * dim).filter(any)
    gens = draw(st.lists(vec, min_size=span, max_size=span).filter(
        lambda g: _rank(g) == span))
    cone = cc.RationalCone.from_rays(gens, dim)
    coeffs = draw(st.lists(st.integers(0, 2), min_size=span, max_size=span))
    point = tuple(sum(c * g[i] for c, g in zip(coeffs, cone.extreme_rays))
                  for i in range(dim))
    assume(any(point))
    return cone, cc.primitive(point)


@settings(_DIFFERENTIAL, max_examples=150)
@given(_simplicial_cases())
def test_joins_of_simplicial_cones_match_oracle(case):
    # built in the span coordinates of the cone, each join is the cone
    # double description builds from its rays, of the same multiplicity
    cone, v = case
    joins = cc._joins(cone, v)
    assert set(joins) == set(_oracle_joins(cone, v))
    for join in joins:
        assert join == _oracle_from_rays(join.extreme_rays, cone.dim)
        assert cc.multiplicity(join) == _oracle_det_abs(join.extreme_rays)


@pytest.mark.parametrize("rays, v", [
    ([(1, 0, 0), (0, 1, 0), (1, 1, 5)], (1, 1, 1)),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 5)], (1, 1, 5)),
    ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 4)], (1, 1, 1, 1)),
    # full-dimensional in its span lattice, of rank 3 in Z^4
    ([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 50, 0)], (1, 1, 1, 0)),
])
def test_joins_of_a_full_dimensional_simplicial_cone_skip_from_rays(
        rays, v, count_calls):
    cone = cc.RationalCone.from_rays(rays, len(v))
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    pieces = cc._joins(cone, v)
    assert from_rays_calls == []
    assert set(pieces) == set(_oracle_joins(cone, v))


def test_resolve_validates_only_its_input(count_calls):
    # a caller's fan is checked once, by its constructor (one cone has no
    # pair to check); resolve and stellar_subdivision trust a Fan, and the
    # triangulated, 2D-resolved and stellar fans are fans by construction,
    # so none is reduced or checked
    fans = [_fan([[(1, 0, 0), (0, 1, 0), (1, 1, 50)]], 3),
            _fan([[(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]], 3),
            _fan([[(1, 0), (1, 7)], [(1, 7), (-2, 3)]], 2),
            _fan([[(1, 0, 0), (0, 1, 0), (1, 2, 5)],
                  [(1, 0, 0), (0, 1, 0), (-1, 3, -4)]], 3)]
    calls = [count_calls(cc.RationalCone, "contains_cone"),
             count_calls(cc, "_facet_separator"),
             count_calls(cc, "_lemma_separator")]
    resolved = [cc.resolve(fan) for fan in fans]
    assert len(resolved[0].maximal_cones) == 99
    assert all(fan.is_regular() for fan in resolved)
    assert calls == [[], [], []]
    # composed public calls check no pair either; validate= is ignored
    assert cc.stellar_subdivision(resolved[0], (1, 1, 1)).is_regular()
    assert cc.resolve(resolved[0], validate=True) == resolved[0]
    assert calls == [[], [], []]
    # each construction of a caller's fan checks its pairs exactly once
    checks = count_calls(cc.Fan, "validate")
    cones = resolved[2].maximal_cones
    cc.Fan(2, cones)
    cc.fan_from_cones(cones, 2)
    cc.fan_from_cones(cones, 2, validate=False)
    assert [len(c[0].maximal_cones) for c in checks] == [len(cones)] * 3
    assert len(calls[1]) == 3 * len(cones) * (len(cones) - 1) // 2


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
