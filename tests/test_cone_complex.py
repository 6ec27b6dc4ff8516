"""Oracle-backed tests for rational cones and fans.

The conic-membership oracle is a self-contained Fourier-Motzkin elimination
over fractions; it shares no code with the library.  Hilbert bases are
checked for completeness by scanning an integer box, triangulations by
sampled rational points, resolutions by the refinement / support / regularity
properties.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.monoid_core as mc
from logmonoid.errors import DomainError, InputError, InternalCheckError


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
    edge = cc.face_by_normal(cone, (1, 2))
    assert edge.extreme_rays == ((2, -1),)
    assert cc.is_face_of(edge, cone)
    inner = cc.RationalCone.from_rays([(1, 0)], 2)
    assert not cc.is_face_of(inner, cone)


def test_smallest_containing_face():
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    f = cc.smallest_containing_face(cone, [(1, 1, 0)])
    assert sorted(f.extreme_rays) == [(0, 1, 0), (1, 0, 0)]
    z = cc.smallest_containing_face(cone, [(0, 0, 0)])
    assert z.is_zero


def test_faces_nonpointed():
    half = cc.RationalCone.from_rays([(1, 0), (-1, 0), (0, 1)], 2)
    fl = cc.faces(half)
    # the lineality line and the half-plane itself
    assert len(fl) == 2
    assert sorted(f.span_dim for f in fl) == [1, 2]


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


def _oracle_parallelepiped_points(rays, m):
    """The parallelepiped enumeration with one SNF-backed rational solve per
    residue: the slow path that ``_parallelepiped_points`` replaces."""
    a = xl.intmat_from_columns(rays, nrows=m)
    _, uinv, d, _, _ = xl._snf_full(a)
    out = []
    for residue in itertools.product(*(range(d[i, i]) for i in range(m))):
        x = uinv @ residue
        coeffs = xl.solve_rational(a, x)
        floors = [c.numerator // c.denominator for c in coeffs]
        point = tuple(x[i] - sum(f * r[i] for f, r in zip(floors, rays))
                      for i in range(m))
        if any(point):
            out.append((point, tuple(c - f for c, f in zip(coeffs, floors))))
    return out


def test_parallelepiped_points_match_rational_solve():
    rng = random.Random(2026)
    checked = 0
    while checked < 40:
        m = rng.randint(1, 4)
        rays = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(m)]
        a = xl.intmat_from_columns(rays, nrows=m)
        if xl.rank_of(a) < m:
            continue
        got = cc._parallelepiped_points(rays, m)
        assert got == _oracle_parallelepiped_points(rays, m), rays
        det = 1
        for f in xl.smith_normal_form(a).diag:
            det *= f
        assert len(got) == det - 1
        for point, frac in got:
            assert all(type(c) is Fraction and 0 <= c < 1 for c in frac)
            assert point == tuple(sum(c * r[i] for c, r in zip(frac, rays))
                                  for i in range(m))
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
    gens = cc.cone_lattice_generators(half, 2)
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


def test_barycentric_subdivision_quadrant():
    fan = _fan([[(1, 0), (0, 1)]], 2)
    bary = cc.barycentric_subdivision(fan)
    assert len(bary.maximal_cones) == 2
    assert sorted(bary.rays()) == [(0, 1), (1, 0), (1, 1)]


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
    assert cc.resolve(fan) == fan


def test_resolve_3d_cone():
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 1, 2)], 3)
    fan = cc.fan_from_cones([cone], 3)
    resolved = cc.resolve(fan)
    assert resolved.is_regular()
    assert len(resolved.maximal_cones) >= 2


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
