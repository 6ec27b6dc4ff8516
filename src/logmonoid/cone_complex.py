"""Rational polyhedral cones, fans, and their lattice combinatorics.

Everything is exact over Z / Q (Fractions appear only in coefficient
computations).  A ``RationalCone`` is stored in a fully canonical form —
extreme rays reduced modulo the lineality lattice, facet normals reduced
modulo the span equations, both lex-sorted — so equality of cones as point
sets is equality of the dataclass, and faces shared between cones of a fan
canonicalize identically.

The conversion from generators to inequalities is an incremental double
description computation with explicit lineality bookkeeping, followed by an
extremality filter (rank of tight normals), so no floating point and no
genericity assumptions enter anywhere.  The facet normals and span
equations of a cone are stored as the canonical extreme rays and lineality
of its dual, so the dual is the four fields swapped, and a cone given by
constraints is the dual of the cone they generate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, InputError, InternalCheckError
from . import exact_lattice as xl

# ---------------------------------------------------------------------------
# small exact vector helpers (tuples of ints)


def vdot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def vneg(u):
    return tuple(-a for a in u)


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vcomb(a, u, b, v):
    """a*u + b*v componentwise."""
    return tuple(a * x + b * y for x, y in zip(u, v, strict=True))


def primitive(v):
    """v divided by the gcd of its entries (direction preserved)."""
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    if g == 0:
        raise InputError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def hnf_row_basis(vectors, dim):
    """The canonical (row-style Hermite) basis of the lattice the vectors span.

    Rows are echelonized left to right with positive pivots and the entries
    above each pivot reduced into [0, pivot); the result depends only on the
    lattice, not on the presented basis.
    """
    rows = [list(int(x) for x in v) for v in vectors]
    for row in rows:
        if len(row) != dim:
            raise InputError("vector of wrong length")
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


def _signed(vectors, lattice):
    """The vectors followed by +/- each lattice basis vector: generators of
    cone(vectors) + span(lattice), or constraints n . x >= 0 and e . x = 0."""
    if not lattice:
        return tuple(vectors)
    out = list(vectors)
    for l in lattice:
        out.append(l)
        out.append(vneg(l))
    return tuple(out)


def _quotient_maps(lattice_basis, dim):
    """Projection, section and coordinates for Z^dim -> Z^dim / span(basis).

    Returns (P, R, C) of shapes (dim-k, dim), (dim, dim-k), (k, dim) from one
    Smith decomposition U B V = [I; 0]: P R = I, the kernel of P is exactly
    the span of the (saturated) basis B, and C = V U[:k] has C B = I.
    """
    k = len(lattice_basis)
    if k == 0:
        eye = xl.identity_mat(dim)
        return eye, eye, xl.zeros_mat(0, dim)
    m = xl.intmat_from_columns(lattice_basis, nrows=dim)
    u, uinv, d, v, _ = xl._snf_full(m)
    for i in range(k):
        if d[i, i] != 1:
            raise InternalCheckError("lineality basis is not saturated")
    return (xl.intmat(u.rows[k:], ncols=dim),
            xl.intmat_from_columns(xl.mat_columns(uinv)[k:], nrows=dim),
            v @ xl.IntMatrix(u.rows[:k], dim))


def _canonicalize_mod(vectors, lattice_basis, dim):
    """Canonical representatives of ray classes modulo a lineality lattice.

    Each vector is projected to the quotient, made primitive there, and
    lifted back along the canonical section; the result depends only on the
    ray class R_{>0} v + span(basis).
    """
    if not lattice_basis:
        return tuple(sorted(primitive(v) for v in vectors))
    p, r, _ = _quotient_maps(lattice_basis, dim)
    out = []
    for v in vectors:
        w = primitive(xl.apply(p, v))
        out.append(xl.apply(r, w))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# double description


def extreme_rays_of_halfspaces(normals, dim):
    """Extreme rays and lineality of {x : n . x >= 0 for all n}.

    Returns (rays, lineality): ``lineality`` is the canonical basis of the
    lineality lattice, and ``rays`` are canonical representatives of the
    extreme ray classes modulo that lattice, lex-sorted.

    Incremental double description: halfspaces are added one at a time.  A
    normal not vanishing on the current lineality consumes one lineality
    direction (every current ray is projected onto the new hyperplane and the
    consumed direction joins the rays); a normal vanishing on the lineality
    splits the rays by sign and inserts combinations of adjacent +/- pairs.
    Adjacency is the standard combinatorial test on tight sets, and a final
    rank filter removes any non-extreme survivor.
    """
    normals = [tuple(int(x) for x in n) for n in normals]
    for n in normals:
        if len(n) != dim:
            raise InputError("normal of wrong length")
    normals = [n for n in normals if any(n)]

    rays = []        # list of (vector, tight_index_set)
    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    for idx, n in enumerate(normals):
        vals_lin = [vdot(n, l) for l in lin]
        hit = next((j for j, t in enumerate(vals_lin) if t != 0), None)
        if hit is not None:
            pivot = lin.pop(hit)
            a = vdot(n, pivot)
            if a < 0:
                pivot = vneg(pivot)
                a = -a
            lin = [primitive(vcomb(a, l, -vdot(n, l), pivot)) for l in lin]
            new_rays = []
            for (e, tight) in rays:
                proj = primitive(vcomb(a, e, -vdot(n, e), pivot))
                new_rays.append((proj, tight | {idx}))
            new_rays.append((pivot, set(range(idx))))
            rays = new_rays
            continue
        plus = [(e, t) for (e, t) in rays if vdot(n, e) > 0]
        zero = [(e, t | {idx}) for (e, t) in rays if vdot(n, e) == 0]
        minus = [(e, t) for (e, t) in rays if vdot(n, e) < 0]
        kept = plus + zero
        for (ep, tp), (em, tm) in itertools.product(plus, minus):
            common = tp & tm
            adjacent = not any(
                common <= t for (e, t) in rays
                if e is not ep and e is not em)
            if not adjacent:
                continue
            comb = primitive(vcomb(vdot(n, ep), em, -vdot(n, em), ep))
            kept.append((comb, common | {idx}))
        rays = kept

    # canonical lineality basis of the full system
    if normals:
        mat = xl.intmat(normals, ncols=dim)
        lin_canon = tuple(tuple(int(x) for x in col)
                          for col in xl.mat_columns(xl.kernel_basis(mat)))
    else:
        lin_canon = tuple(tuple(1 if j == i else 0 for j in range(dim))
                          for i in range(dim))
    lin_canon = hnf_row_basis(lin_canon, dim)

    # extremality filter: a ray is extreme iff its tight normals cut a face
    # of dimension exactly dim(lineality) + 1
    target = dim - len(lin_canon) - 1
    survivors = []
    seen = set()
    for (e, tight) in rays:
        tight_normals = [normals[i] for i in sorted(tight)]
        rk = xl.rank_of(xl.intmat(tight_normals, ncols=dim)) if tight_normals else 0
        if rk == target:
            survivors.append(e)
    result = []
    for e in _canonicalize_mod(survivors, lin_canon, dim):
        if e not in seen:
            seen.add(e)
            result.append(e)
    return tuple(result), lin_canon


# ---------------------------------------------------------------------------
# rational cones


@dataclass(frozen=True)
class RationalCone:
    """A rational polyhedral cone in canonical form.

    ``extreme_rays``: canonical representatives of the extreme ray classes
    modulo the lineality lattice; ``lineality``: canonical basis of the
    lineality lattice; ``facet_normals``: canonical inward normals, one per
    facet, reduced modulo ``span_equations``; ``span_equations``: canonical
    basis of the annihilator of the cone's linear span.  Two cones are equal
    as point sets iff they are equal as dataclasses.  Build with
    ``RationalCone.from_rays``.

    Invariant: the facet normals and span equations are the canonical extreme
    rays and lineality of the dual cone, as ``extreme_rays_of_halfspaces``
    returns them; ``dual_cone`` relies on this.
    """

    dim: int
    extreme_rays: tuple
    lineality: tuple
    facet_normals: tuple
    span_equations: tuple

    @classmethod
    def from_rays(cls, vectors, dim):
        vecs = []
        for v in vectors:
            v = tuple(int(x) for x in v)
            if len(v) != dim:
                raise InputError("ray of wrong length")
            if any(v):
                vecs.append(primitive(v))
        seen = set()
        vecs = [v for v in vecs if not (v in seen or seen.add(v))]
        # dual description: facet normals = extreme rays of the dual cone,
        # span equations = lineality of the dual cone
        normals, equations = extreme_rays_of_halfspaces(vecs, dim)
        # primal description from the canonical constraints
        rays, lin = extreme_rays_of_halfspaces(
            _signed(normals, equations), dim)
        cone = cls(dim=dim, extreme_rays=rays, lineality=lin,
                   facet_normals=normals, span_equations=equations)
        for v in vecs:
            if not cone.contains(v):
                raise InternalCheckError("double description roundtrip failed")
        return cone

    # -- basic structure ---------------------------------------------------

    @property
    def generators(self):
        """Integer vectors generating the cone: extreme rays plus +/- the
        lineality basis."""
        return _signed(self.extreme_rays, self.lineality)

    @property
    def is_strongly_convex(self):
        return not self.lineality

    @property
    def span_dim(self):
        return self.dim - len(self.span_equations)

    @property
    def is_full_dimensional(self):
        return not self.span_equations

    @property
    def is_simplicial(self):
        return self.is_strongly_convex and \
            len(self.extreme_rays) == self.span_dim

    @property
    def is_zero(self):
        return not self.extreme_rays and not self.lineality

    def sort_key(self):
        return (self.span_dim, self.extreme_rays, self.lineality)

    def contains(self, v):
        v = tuple(int(x) for x in v)
        if len(v) != self.dim:
            raise InputError("vector of wrong length")
        return all(vdot(eq, v) == 0 for eq in self.span_equations) and \
            all(vdot(n, v) >= 0 for n in self.facet_normals)

    def contains_in_relative_interior(self, v):
        v = tuple(int(x) for x in v)
        return all(vdot(eq, v) == 0 for eq in self.span_equations) and \
            all(vdot(n, v) > 0 for n in self.facet_normals)

    def contains_cone(self, other):
        return all(self.contains(g) for g in other.generators)


def cone_from_constraints(normals, equations, dim):
    """The cone {x : n . x >= 0, e . x = 0} in canonical form: the dual of
    the cone the normals and +/- the equations generate."""
    return dual_cone(RationalCone.from_rays(_signed(normals, equations), dim))


def dual_cone(cone):
    """{y : y . x >= 0 for all x in the cone}: the four fields swapped.

    The extreme rays and lineality of the dual are the facet normals and
    span equations of the cone and the reverse (Fulton, *Introduction to
    Toric Varieties*, §1.2); both pairs are stored in the same canonical
    form, which depends only on the point set.
    """
    return RationalCone(dim=cone.dim, extreme_rays=cone.facet_normals,
                        lineality=cone.span_equations,
                        facet_normals=cone.extreme_rays,
                        span_equations=cone.lineality)


def intersect(a, b):
    if a.dim != b.dim:
        raise InputError("cones live in different dimensions")
    return cone_from_constraints(
        a.facet_normals + b.facet_normals,
        a.span_equations + b.span_equations, a.dim)


# ---------------------------------------------------------------------------
# faces


def face_by_normal(cone, normal):
    """The face cut out by one valid inequality: generated by the cone
    generators the normal vanishes on."""
    gens = [g for g in cone.generators if vdot(normal, g) == 0]
    return RationalCone.from_rays(gens, cone.dim)


def facets(cone):
    """Codimension-one faces, one per facet normal, canonically sorted."""
    out = {face_by_normal(cone, n) for n in cone.facet_normals}
    return sorted(out, key=RationalCone.sort_key)


def faces(cone):
    """All faces of the cone, itself and its minimal face included,
    sorted by (dimension, rays)."""
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
    return sorted(found, key=RationalCone.sort_key)


def smallest_containing_face(cone, vectors):
    """The smallest face of ``cone`` containing all the vectors."""
    for v in vectors:
        if not cone.contains(v):
            raise DomainError("vector outside the cone")
    tight = [n for n in cone.facet_normals
             if all(vdot(n, v) == 0 for v in vectors)]
    return cone_from_constraints(
        cone.facet_normals, cone.span_equations + tuple(tight), cone.dim)


def is_face_of(face, cone):
    """Whether ``face`` (a cone) is a face of ``cone``."""
    if not all(cone.contains(g) for g in face.generators):
        return False
    return face == smallest_containing_face(cone, face.generators)


# ---------------------------------------------------------------------------
# span-lattice coordinates, multiplicity, Hilbert bases


def _span_lattice_basis(cone):
    """Canonical basis of span(cone) intersected with Z^dim, for a cone
    that is not full-dimensional."""
    eq = xl.intmat(list(cone.span_equations), ncols=cone.dim)
    cols = [tuple(int(x) for x in c) for c in xl.mat_columns(xl.kernel_basis(eq))]
    return hnf_row_basis(cols, cone.dim)


def _to_span_coords(cone):
    """Maps between Z^dim and the span lattice Z^m of the cone.

    Returns (down, up, m): ``down`` maps a lattice point of the span to its
    coordinate tuple, ``up`` is the inverse embedding.  A full-dimensional
    cone keeps its coordinates.
    """
    if cone.is_full_dimensional:
        def same(v):
            return tuple(int(x) for x in v)
        return same, same, cone.dim
    basis = _span_lattice_basis(cone)
    m = len(basis)
    outside, _, coords = _quotient_maps(basis, cone.dim)

    def down(v):
        if any(xl.apply(outside, v)):
            raise InternalCheckError("lattice point outside the span lattice")
        return xl.apply(coords, v)

    def up(w):
        return tuple(sum(basis[j][i] * w[j] for j in range(m))
                     for i in range(cone.dim))

    return down, up, m


def _det_abs(columns, m):
    mat = xl.intmat_from_columns(columns, nrows=m)
    diag = xl.smith_normal_form(mat).diag
    if len(diag) < m:
        return 0
    out = 1
    for d in diag:
        out *= int(d)
    return out


def pulling_triangulation(cone):
    """Simplicial subdivision of a strongly convex cone.

    Recursive pulling at the lex-smallest extreme ray: the triangulation of a
    face induced by this rule equals the rule applied to the face, so the
    pieces of the cones of a fan agree along shared faces.  Returns a list of
    ray tuples (each tuple lex-sorted, the lists sorted).
    """
    if not cone.is_strongly_convex:
        raise DomainError("pulling triangulation requires a strongly convex cone")
    if len(cone.extreme_rays) == cone.span_dim:
        return [cone.extreme_rays]
    v = cone.extreme_rays[0]
    out = set()
    for f in facets(cone):
        if f.contains(v):
            continue
        for simplex in pulling_triangulation(f):
            out.add(tuple(sorted(simplex + (v,))))
    return sorted(out)


def multiplicity(cone):
    """The index of the subgroup spanned by the primitive rays of a
    simplicial cone inside the saturated lattice spanning the cone (1 exactly
    for regular cones)."""
    if not cone.is_strongly_convex:
        raise DomainError("multiplicity requires a strongly convex cone")
    if not cone.is_simplicial:
        raise DomainError("multiplicity requires a simplicial cone")
    if cone.is_zero:
        return 1
    down, _, m = _to_span_coords(cone)
    d = _det_abs([down(r) for r in cone.extreme_rays], m)
    if d == 0:
        raise InternalCheckError("simplicial cone with degenerate rays")
    return d


def is_regular(cone):
    """Whether the cone is unimodular: simplicial with its rays a basis of
    the span lattice."""
    if not cone.is_strongly_convex:
        raise DomainError("regularity requires a strongly convex cone")
    return cone.is_simplicial and multiplicity(cone) == 1


def _parallelepiped_points(ray_coords, m):
    """Nonzero lattice points of {sum t_i r_i : 0 <= t_i < 1} for linearly
    independent rays in Z^m, with their coefficient tuples.

    Enumerates the quotient Z^m / <rays> through the Smith decomposition and
    reduces each representative into the fundamental parallelepiped.
    Returns a list of (point, coefficient tuple of Fractions).
    """
    a = xl.intmat_from_columns(ray_coords, nrows=m)
    _, uinv, d, v, _ = xl._snf_full(a)
    orders = [d[i, i] for i in range(m)]
    if not all(orders):
        raise InternalCheckError("parallelepiped rays are linearly dependent")
    # U a V = D, so a c = Uinv r is solved by c = V D^-1 r: with L the last
    # invariant factor, c = N / L for the integer vector N = V diag(L/d) r
    big = orders[-1] if orders else 1
    scaled = xl.intmat([[x * (big // o) for x, o in zip(row, orders)]
                        for row in v.rows], ncols=m)
    out = []
    for residue in itertools.product(*(range(o) for o in orders)):
        x = xl.apply(uinv, residue)
        nums = xl.apply(scaled, residue)
        point = tuple(
            x[i] - sum((n // big) * ray[i] for n, ray in zip(nums, ray_coords))
            for i in range(m))
        if any(point):
            out.append((point, tuple(Fraction(n % big, big) for n in nums)))
    return out


def _unimodular_complement(r):
    """An integer vector w with det(r, w) = 1, for a primitive r in Z^2."""
    # extended Euclid: x r[0] + y r[1] = g with g = +-1 for primitive r
    g, g_next = r[0], r[1]
    x, x_next = 1, 0
    y, y_next = 0, 1
    while g_next:
        q = g // g_next
        g, g_next = g_next, g - q * g_next
        x, x_next = x_next, x - q * x_next
        y, y_next = y_next, y - q * y_next
    if g not in (1, -1):
        raise InternalCheckError("ray of a 2D cone is not primitive")
    return (-g * y, g * x)


def _hilbert_basis_2d(r1, r2):
    """Hilbert basis of the cone spanned by two independent primitive
    vectors of Z^2, by the Hirzebruch-Jung continued fraction.

    With (r1, w) a basis of Z^2 oriented like (r1, r2) and shifted so that
    r2 = m w - q r1 with 0 <= q < m, the basis is u_0 = r1, u_1 = w,
    u_{i+1} = a_i u_i - u_{i-1}, where m/q = a_1 - 1/(a_2 - 1/...) with
    every a_i >= 2; the walk ends at r2 after O(log m) steps.
    """
    det = r1[0] * r2[1] - r1[1] * r2[0]
    sign = 1 if det > 0 else -1
    w = tuple(sign * x for x in _unimodular_complement(r1))
    m = sign * det
    # r2 = alpha r1 + m w; shifting w by k r1 with k = ceil(alpha / m)
    # leaves r2 = m w - q r1 with q = m k - alpha in [0, m)
    alpha = sign * (r2[0] * w[1] - r2[1] * w[0])
    k = -(-alpha // m)
    w = vcomb(1, w, k, r1)
    q = m * k - alpha
    out = [r1, w]
    prev, cur = r1, w
    n, d = m, q
    while d:
        a = -(-n // d)
        prev, cur = cur, vcomb(a, cur, -1, prev)
        out.append(cur)
        n, d = d, a * d - n
    if cur != r2:
        raise InternalCheckError(
            "continued fraction did not end at the second ray")
    return out


def hilbert_basis(cone):
    """The minimal generating set of cone meet Z^dim for a strongly convex cone.

    The work runs in coordinates of the span lattice.  In dimension 2 the
    basis is read off the Hirzebruch-Jung continued fraction of the two rays
    in O(log multiplicity) arithmetic steps, whatever the ambient dimension.

    In dimension >= 3 the candidates are the extreme rays and the lattice
    points of the fundamental parallelepipeds of a pulling triangulation;
    they include every irreducible element.  The degree (sum of the inward
    facet normals) is positive on the cone minus 0, and if h = b + y with b
    irreducible and y a nonzero cone point then deg b < deg h.  So the
    candidates are taken in (degree, vector) order and each is tested only
    against the irreducibles already kept: h - b lies in the cone iff the
    facet values of h dominate those of b componentwise.  The enumeration
    still costs time proportional to the multiplicity of the simplices.

    The result is unique and lex-sorted.
    """
    if not cone.is_strongly_convex:
        raise DomainError("Hilbert bases are defined for strongly convex cones")
    if cone.is_zero:
        return ()
    down, up, m = _to_span_coords(cone)
    rays = [down(r) for r in cone.extreme_rays]
    if m == 2:
        return tuple(sorted(up(h) for h in _hilbert_basis_2d(*rays)))
    inner = RationalCone.from_rays(rays, m)
    candidates = set(rays)
    for simplex in pulling_triangulation(inner):
        for point, _ in _parallelepiped_points(list(simplex), m):
            candidates.add(point)

    ranked = []
    for h in candidates:
        values = tuple(vdot(n, h) for n in inner.facet_normals)
        ranked.append((sum(values), h, values))
    ranked.sort()
    kept = []
    kept_values = []
    for _, h, values in ranked:
        if not any(all(x >= y for x, y in zip(values, other))
                   for other in kept_values):
            kept.append(h)
            kept_values.append(values)
    return tuple(sorted(up(h) for h in kept))


def cone_lattice_generators(vectors, dim):
    """Generators of cone(vectors) meet Z^dim as a monoid.

    Strongly convex part by Hilbert basis; a nontrivial lineality space
    contributes +/- its canonical lattice basis, with the Hilbert basis of
    the image cone in the quotient lifted back along the canonical section.
    """
    cone = RationalCone.from_rays(vectors, dim)
    if cone.is_strongly_convex:
        return tuple(sorted(hilbert_basis(cone)))
    p, r, _ = _quotient_maps(cone.lineality, dim)
    k = dim - len(cone.lineality)
    image = RationalCone.from_rays(
        [xl.apply(p, ray) for ray in cone.extreme_rays], k)
    lifted = [xl.apply(r, h) for h in hilbert_basis(image)]
    return tuple(sorted(set(_signed(lifted, cone.lineality))))


def monoid_of_cone(cone):
    """cone meet Z^dim as an affine monoid.

    Full-dimensional cones keep their coordinates (the ambient group is
    Z^dim); otherwise the span sublattice is re-presented, changing
    coordinates.
    """
    from . import monoid_core as mc

    gens = cone_lattice_generators(cone.generators, cone.dim) if not cone.is_zero else ()
    if cone.is_full_dimensional:
        amb = xl.FgAbelianGroup(cone.dim, ())
        return mc.AffineMonoid(amb, [mc.MonoidElement(free=g) for g in gens])
    return mc.AffineMonoid.from_vectors(gens) if gens else mc.trivial_monoid()


# ---------------------------------------------------------------------------
# fans


def _separates_along_common_face(u, a, b):
    """Whether the linear form u certifies that two strongly convex cones
    meet along a common face.

    If u >= 0 on ``a`` and u <= 0 on ``b``, both cones meet u-perp in a face
    that contains their intersection, generated by the extreme rays u
    vanishes on.  If those rays agree, the two faces are one cone, and that
    cone is the intersection.
    """
    on_a = [vdot(u, r) for r in a.extreme_rays]
    on_b = [vdot(u, r) for r in b.extreme_rays]
    if any(x < 0 for x in on_a) or any(x > 0 for x in on_b):
        return False
    return {r for r, x in zip(a.extreme_rays, on_a) if x == 0} == \
        {r for r, x in zip(b.extreme_rays, on_b) if x == 0}


def _facet_separator(a, b):
    """The sum of the facet normals of ``a``, the negated facet normals of
    ``b`` and the signed span equations of either cone that are >= 0 on
    every extreme ray of ``a`` and <= 0 on every extreme ray of ``b``."""
    candidates = _signed(
        a.facet_normals + tuple(vneg(n) for n in b.facet_normals),
        a.span_equations + b.span_equations)
    u = (0,) * a.dim
    for c in candidates:
        if all(vdot(c, r) >= 0 for r in a.extreme_rays) and \
                all(vdot(c, r) <= 0 for r in b.extreme_rays):
            u = vadd(u, c)
    return u


def _lemma_separator(a, b):
    """The sum of the facet normals of a - b, a relative interior point of
    the cone of forms that are >= 0 on ``a`` and <= 0 on ``b``; it separates
    along a common face whenever one exists (the proof of the separation
    lemma).  One double description run."""
    vecs = sorted(set(a.extreme_rays) | {vneg(r) for r in b.extreme_rays})
    normals, _ = extreme_rays_of_halfspaces(vecs, a.dim)
    u = (0,) * a.dim
    for n in normals:
        u = vadd(u, n)
    return u


@dataclass(frozen=True)
class Fan:
    """A fan: strongly convex cones meeting along common faces.

    The constructor canonicalizes (sorts, dedupes, drops cones contained in
    others) and checks strong convexity; pairwise face compatibility is
    checked by ``validate`` (called by the public entry points).
    """

    dim: int
    maximal_cones: tuple

    def __post_init__(self):
        cones = []
        for c in self.maximal_cones:
            if c.dim != self.dim:
                raise InputError("cone of wrong ambient dimension in fan")
            if not c.is_strongly_convex:
                raise DomainError("fans consist of strongly convex cones")
            if c not in cones:
                cones.append(c)
        keep = []
        for c in cones:
            if not any(other is not c and other.contains_cone(c)
                       for other in cones):
                keep.append(c)
        keep.sort(key=RationalCone.sort_key)
        object.__setattr__(self, "maximal_cones", tuple(keep))

    def validate(self):
        """Checks that every pairwise intersection is a face of both cones.

        Each pair sigma, tau is first given a certificate from the
        separation lemma (Fulton, *Introduction to Toric Varieties*, §1.2):
        a linear form u that is >= 0 on sigma and <= 0 on tau, such that
        sigma and tau have the same extreme rays on u-perp.  Then sigma meet
        u-perp and tau meet u-perp are one cone, which is sigma meet tau
        and a face of both.  The first form tried is the sum of the facet
        normals and span equations of the two cones that separate them,
        dot products only; the second is the sum of the facet normals of
        sigma - tau, one double description run.  It lies in the relative
        interior of the forms that separate the two cones, so its zero set
        on each cone is the smallest any separating form has; by the lemma
        it certifies every pair that meets along a common face, and a pair
        it does not certify does not.
        """
        cones = self.maximal_cones
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                a, b = cones[i], cones[j]
                if not _separates_along_common_face(
                        _facet_separator(a, b), a, b) and \
                        not _separates_along_common_face(
                            _lemma_separator(a, b), a, b):
                    raise DomainError(
                        "cones do not meet along a common face")
        return self

    def all_cones(self):
        """Every face of every maximal cone, sorted by (dimension, rays)."""
        found = set()
        for c in self.maximal_cones:
            found.update(faces(c))
        return sorted(found, key=RationalCone.sort_key)

    def cones_of_dim(self, k):
        return [c for c in self.all_cones() if c.span_dim == k]

    def rays(self):
        out = set()
        for c in self.maximal_cones:
            out.update(c.extreme_rays)
        return tuple(sorted(out))

    def support_contains(self, v):
        return any(c.contains(v) for c in self.maximal_cones)

    def is_regular(self):
        return all(is_regular(c) for c in self.maximal_cones)


def fan_from_cones(cones, dim, validate=True):
    fan = Fan(dim=dim, maximal_cones=tuple(cones))
    if validate:
        fan.validate()
    return fan


def _stellar_pieces(fan, point):
    """Stellar subdivision data: (new fan, [(replaced cone, pieces)]).

    Each cone containing the point is replaced by the joins of the point
    with the facets not containing it.
    """
    v = primitive(point)
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
            pieces.append(RationalCone.from_rays(f.generators + (v,), fan.dim))
        new_max.extend(pieces)
        replaced.append((c, tuple(pieces)))
    if not replaced:
        raise DomainError("subdivision point lies outside the fan support")
    return Fan(dim=fan.dim, maximal_cones=tuple(new_max)), replaced


def stellar_subdivision(fan, point, validate=True):
    """The stellar subdivision of the fan at a lattice point of its support."""
    out, _ = _stellar_pieces(fan, point)
    if validate:
        out.validate()
    return out


def barycentric_subdivision(fan, validate=True):
    """Stellar subdivision at every face barycenter, in descending dimension.

    The barycenter of a face is the sum of its primitive extreme rays; faces
    of dimension <= 1 are fixed points of the operation and are skipped.
    """
    faces_by_dim = {}
    for f in fan.all_cones():
        if f.span_dim >= 2:
            faces_by_dim.setdefault(f.span_dim, []).append(f)
    current = fan
    for d in sorted(faces_by_dim, reverse=True):
        for f in sorted(faces_by_dim[d], key=RationalCone.sort_key):
            barycenter = f.extreme_rays[0]
            for r in f.extreme_rays[1:]:
                barycenter = vadd(barycenter, r)
            current, _ = _stellar_pieces(current, primitive(barycenter))
    if validate:
        current.validate()
    return current


# ---------------------------------------------------------------------------
# resolution


def _subdivision_point(cone):
    """The distinguished parallelepiped point of a singular simplicial cone:
    minimal coefficient sum, ties by lexicographic coefficient tuple.

    Any such point is automatically primitive (a proper divisor would have a
    smaller coefficient sum) and lies on no regular cone of any fan
    containing the cone as a face-compatible member.
    """
    down, up, m = _to_span_coords(cone)
    ray_coords = [down(r) for r in cone.extreme_rays]
    best = None
    for point, coeffs in _parallelepiped_points(ray_coords, m):
        key = (sum(coeffs), coeffs)
        if best is None or key < best[0]:
            best = (key, point)
    if best is None:
        raise InternalCheckError("regular cone passed to subdivision point")
    v = up(best[1])
    if primitive(v) != v:
        raise InternalCheckError("subdivision point is not primitive")
    return v


def resolve(fan, validate=True):
    """A regular subdivision of the fan by iterated stellar subdivisions.

    The fan is first made simplicial by pulling triangulations; then, while a
    singular cone remains, the one of largest multiplicity (ties by ray
    tuple) is subdivided at its distinguished parallelepiped point.  After
    every step it is checked that each replaced cone was replaced by
    same-dimension pieces of strictly smaller multiplicity; the multiset of
    multiplicities therefore strictly decreases and the loop terminates.
    """
    simplicial = []
    for c in fan.maximal_cones:
        for simplex in pulling_triangulation(c):
            simplicial.append(RationalCone.from_rays(simplex, fan.dim))
    current = Fan(dim=fan.dim, maximal_cones=tuple(simplicial))
    if validate:
        try:
            current.validate()
        except DomainError as exc:
            raise InternalCheckError(
                f"triangulated fan violates the fan axioms: {exc}") from exc

    memo = {}

    def mult(c):
        if c not in memo:
            memo[c] = multiplicity(c)
        return memo[c]

    for _ in range(100000):
        singular = [c for c in current.maximal_cones if mult(c) > 1]
        if not singular:
            break
        worst = min(singular, key=lambda c: (-mult(c), c.extreme_rays))
        v = _subdivision_point(worst)
        current, replaced = _stellar_pieces(current, v)
        for old, pieces in replaced:
            m_old = mult(old)
            for piece in pieces:
                if piece.span_dim == old.span_dim and \
                        mult(piece) >= m_old:
                    raise InternalCheckError(
                        "stellar subdivision failed to decrease multiplicity")
    else:
        raise InternalCheckError("resolution did not terminate")
    if validate:
        try:
            current.validate()
        except DomainError as exc:
            raise InternalCheckError(
                f"resolved fan violates the fan axioms: {exc}") from exc
    return current
