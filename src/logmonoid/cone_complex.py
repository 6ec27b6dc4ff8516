"""Rational polyhedral cones, fans, and their lattice combinatorics.

Everything is exact over Z; rational coefficients are integer numerators
over a common denominator.  A ``RationalCone`` is stored in a fully
canonical form — extreme rays reduced modulo the lineality lattice, facet
normals reduced modulo the span equations, both lex-sorted — so equality of
cones as point sets is equality of the dataclass, and faces shared between
cones of a fan canonicalize identically.

The conversion from generators to inequalities is an incremental double
description computation with explicit lineality bookkeeping, so no floating
point and no genericity assumptions enter anywhere.  Extremality is decided
by incidence alone: once a complete inequality description is known, a
candidate ray class is extreme iff no other class is tight on a superset of
its inequalities.  This picks the extreme rays out of the double
description's own candidates, and out of the generators of a cone once its
facets are known, so a cone costs at most one double description run.  It
costs none when it has dim linearly independent generators in Z^dim: such a
cone is simplicial, and its facet normals are the rows of the adjugate of
its rays, from one fraction-free elimination.  The facet normals and span
equations of a cone are stored as the canonical extreme rays and lineality
of its dual, so the dual is the four fields swapped, and a cone given by
constraints is the dual of the cone they generate.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from math import gcd
from operator import le

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
    dec = xl._snf_full(xl.intmat_from_columns(lattice_basis, nrows=dim))
    if dec.diag != (1,) * k:
        raise InternalCheckError("lineality basis is not saturated")
    u, uinv = dec.left, xl._unimodular_inverse(dec.left)
    return (xl.IntMatrix(u.rows[k:], dim),
            xl.IntMatrix(tuple(r[k:] for r in uinv.rows), dim - k),
            dec.right @ xl.IntMatrix(u.rows[:k], dim))


def _saturated_kernel(forms, dim):
    """Canonical basis of {x in Z^dim : f . x = 0 for every form}: the
    lineality of the cone the forms cut out as inequalities."""
    if not forms:
        return tuple(tuple(1 if j == i else 0 for j in range(dim))
                     for i in range(dim))
    kernel = xl.kernel_basis(xl.intmat(forms, ncols=dim))
    return hnf_row_basis(xl.mat_columns(kernel), dim)


def _extreme_classes(candidates, lineality, dim):
    """Canonical representatives of the extreme ray classes among the
    candidates, lex-sorted.

    ``candidates`` are (vector, tight set) pairs: points of a cone given by
    a complete list of inequalities, with the exact set of inequalities each
    one satisfies with equality, including a point of every extreme ray
    class.  Each vector is projected to the quotient by the lineality,
    made primitive there and lifted back along the canonical section, so
    the representative depends only on the class R_{>0} v + span(lineality);
    vectors in the lineality have no class and are dropped.

    The tight set of a class cuts out the smallest face containing it.  An
    extreme class is that face modulo the lineality, so every class tight on
    a superset of its inequalities is the class itself; a class that is not
    extreme lies in a face of dimension >= 2 modulo the lineality, whose
    extreme classes are tight on strictly more inequalities (Fukuda and
    Prodon, "Double description method revisited", 1996).  So a class is
    kept iff its tight set is not strictly contained in another's.
    """
    classes = {}
    if lineality:
        p, r, _ = _quotient_maps(lineality, dim)
        for v, tight in candidates:
            w = xl.apply(p, v)
            if any(w):
                classes[xl.apply(r, primitive(w))] = tight
    else:
        for v, tight in candidates:
            classes[primitive(v)] = tight
    return tuple(sorted(
        v for v, tight in classes.items()
        if not any(tight < other for other in classes.values())))


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
    Adjacency is the standard combinatorial test on tight sets.  The tight
    sets are exact (a combination of two rays is tight exactly where both
    are), so ``_extreme_classes`` keeps the extreme rays by incidence alone.
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

    # the incremental lineality spans the kernel of the normals over Q, so
    # once it is empty the saturated kernel is too
    lineality = _saturated_kernel(normals, dim) if lin else ()
    return _extreme_classes(rays, lineality, dim), lineality


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
        cone = _simplicial_cone(vecs, dim) if len(vecs) == dim else None
        if cone is None:
            # dual description: facet normals = extreme rays of the dual
            # cone, span equations = lineality of the dual cone
            normals, equations = extreme_rays_of_halfspaces(vecs, dim)
            # primal description: the canonical constraints are a complete
            # description of the cone, its lineality is their saturated
            # kernel, and every extreme ray class is among the generators,
            # so the incidence rule picks the extreme rays out of the
            # generators.  The lineality is the minimal face, generated by
            # the generators tight on every constraint: with none it is 0.
            constraints = _signed(normals, equations)
            tight = [{i for i, c in enumerate(constraints) if vdot(c, v) == 0}
                     for v in vecs]
            lin = _saturated_kernel(constraints, dim) \
                if any(len(t) == len(constraints) for t in tight) else ()
            rays = _extreme_classes(zip(vecs, tight), lin, dim)
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

    def contains_cone(self, other):
        return all(self.contains(g) for g in other.generators)


def _simplicial_cone(vecs, dim):
    """The canonical cone of dim distinct primitive generators in Z^dim, or
    None when they are linearly dependent.

    Independent generators are the extreme rays of a full-dimensional
    pointed cone, and the facet opposite r_i has the inward normal row i of
    adj(R) (the matrix with the r_j as columns) times the sign of det(R):
    it vanishes on every r_j but r_i and is det(R) on r_i (Fulton,
    *Introduction to Toric Varieties*, §1.2).  Made primitive and sorted,
    these are exactly the canonical forms that double description gives.
    """
    det, adj = xl.det_adjugate(list(zip(*vecs)))
    if not det:
        return None
    normals = (primitive(row) for row in adj)
    if det < 0:
        normals = (vneg(n) for n in normals)
    return RationalCone(dim=dim, extreme_rays=tuple(sorted(vecs)),
                        lineality=(), facet_normals=tuple(sorted(normals)),
                        span_equations=())


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


# ---------------------------------------------------------------------------
# faces


def face_sets(vectors, normals):
    """The faces of cone(vectors) as index sets into ``vectors``.

    ``normals`` are the facet normals of that cone.  Returns the set of the
    full index set and of every intersection of the sets
    {i : n . vectors[i] = 0}, one per normal, closed under intersection.
    Every proper face of a polyhedral cone is the intersection of the facets
    that contain it, and every face is generated by the generators it
    contains (Fulton, *Introduction to Toric Varieties*, §1.2).  So the
    generators in a face are those on which the normals of its facets all
    vanish, and distinct faces have distinct sets: one set per face.
    """
    sets = {frozenset(range(len(vectors)))}
    for n in normals:
        facet = frozenset(i for i, v in enumerate(vectors) if vdot(n, v) == 0)
        sets |= {s & facet for s in sets}
    return sets


def faces(cone):
    """All faces of the cone, itself and its minimal face included,
    sorted by (dimension, rays): one ``from_rays`` per proper face, on the
    generators of its ``face_sets`` index set."""
    gens = cone.generators
    out = [cone if len(s) == len(gens) else
           RationalCone.from_rays([gens[i] for i in s], cone.dim)
           for s in face_sets(gens, cone.facet_normals)]
    return sorted(out, key=RationalCone.sort_key)


# ---------------------------------------------------------------------------
# span-lattice coordinates, multiplicity, Hilbert bases


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
    basis = _saturated_kernel(cone.span_equations, cone.dim)
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


def pulling_triangulation(cone):
    """Simplicial subdivision of a strongly convex cone.

    Recursive pulling at the lex-smallest extreme ray: the triangulation of a
    face induced by this rule equals the rule applied to the face, so the
    pieces of the cones of a fan agree along shared faces.  Returns a list of
    ray tuples (each tuple lex-sorted, the lists sorted).

    The rule needs only the face lattice and the order of the rays, so it
    runs on index sets into the sorted ``extreme_rays`` and builds no cone.
    A face F is the set of rays it contains, its lex-smallest ray is min(F),
    and its facets are the maximal proper sets among F & {i : n . r_i = 0}
    over the facet normals n of the cone: each is a face of F, and a facet G
    of F is cut out by a facet of the cone that contains G but not F, since
    both are intersections of the facets of the cone containing them
    (Fulton, *Introduction to Toric Varieties*, §1.2; see ``face_sets``).
    Pulling a simplex at one of its rays gives it back, so below the top
    level no simplicial test is needed; the recursion ends at the zero face.
    """
    if not cone.is_strongly_convex:
        raise DomainError("pulling triangulation requires a strongly convex cone")
    rays = cone.extreme_rays
    if len(rays) == cone.span_dim:
        return [rays]
    zeros = [frozenset(i for i, r in enumerate(rays) if not vdot(n, r))
             for n in cone.facet_normals]

    def pull(face):
        if not face:
            return {face}
        v = min(face)
        cut = {face & z for z in zeros} - {face}
        return {s | {v} for g in cut
                if v not in g and not any(g < h for h in cut)
                for s in pull(g)}

    return sorted(tuple(rays[i] for i in sorted(s))
                  for s in pull(frozenset(range(len(rays)))))


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
    down, _, _ = _to_span_coords(cone)
    d = abs(xl.det_adjugate([down(r) for r in cone.extreme_rays])[0])
    if d == 0:
        raise InternalCheckError("simplicial cone with degenerate rays")
    return d


def is_regular(cone):
    """Whether the cone is unimodular: simplicial with its rays a basis of
    the span lattice."""
    if not cone.is_strongly_convex:
        raise DomainError("regularity requires a strongly convex cone")
    return cone.is_simplicial and multiplicity(cone) == 1


def _parallelepiped_numerators(ray_coords, m):
    """The nonzero lattice points of {sum t_i r_i : 0 <= t_i < 1} for
    linearly independent rays in Z^m, as coefficient numerators.

    Returns (L, numerators): each point is sum_i (N_i / L) r_i for exactly
    one tuple N with 0 <= N_i < L, where L is the last invariant factor of
    the ray matrix; one denominator for all points keeps the order of
    numerator tuples and of their sums.  The points are the nonzero classes
    of Z^m / <rays>.  With the Smith decomposition U R V = D, the class of
    U^-1 e has N = V diag(L/d) e mod L, so an odometer over the digits
    e_k < d_k with d_k > 1 walks every class once: a step adds one column
    of V diag(L/d) mod L, and a digit that wraps adds its column a d_k-th
    time, which is 0 mod L.  A step costs O(m); ``_parallelepiped_point``
    turns the numerators of a point into the point.
    """
    dec = xl._snf_full(xl.intmat_from_columns(ray_coords, nrows=m))
    orders = dec.diag
    if len(orders) < m:
        raise InternalCheckError("parallelepiped rays are linearly dependent")
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


def _parallelepiped_point(nums, big, ray_coords):
    """The lattice point sum_i (N_i / L) r_i of the numerators N over L."""
    point = []
    for coords in zip(*ray_coords):
        q, r = divmod(vdot(nums, coords), big)
        if r:
            raise InternalCheckError(
                "parallelepiped numerators do not give a lattice point")
        point.append(q)
    return tuple(point)


def _irreducible(ranked):
    """The items of the irreducible candidates, in the order of ``ranked``.

    ``ranked`` holds (degree, values, item) triples of points of a pointed
    monoid S, sorted by degree, where the degree is a linear form positive
    on S minus 0, and b divides h in S (h - b in S) iff the values of b are
    at most those of h componentwise.  Every irreducible element of S that
    divides a candidate must be a candidate.  Each candidate h is tested
    only against the kept ones of degree at most deg(h) / 2, found by
    bisection (the degree bound of Bruns and Ichim, "Normaliz: algorithms
    for affine monoids and rational cones", J. Algebra 324, 2010).  That
    decides it: if h = x + y with x and y nonzero, one of them, say x, has
    deg x <= deg h / 2, and an irreducible b dividing x has deg b <= deg x
    and divides h, so b is a candidate, kept and ranked before h.
    """
    kept = []
    degrees = []
    kept_values = []
    for deg, values, item in ranked:
        cut = bisect_right(degrees, deg // 2)
        if not any(all(map(le, b, values))
                   for b in itertools.islice(kept_values, cut)):
            kept.append(item)
            degrees.append(deg)
            kept_values.append(values)
    return kept


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

    Lattice arithmetic runs in coordinates of the span lattice.  In
    dimension 2 the basis is read off the Hirzebruch-Jung continued fraction
    of the two rays in O(log multiplicity) arithmetic steps, whatever the
    ambient dimension.

    In dimension >= 3 the cone C is cut into the simplices sigma of its
    pulling triangulation.  Every irreducible element h of C is irreducible
    in a simplex that contains it, since a decomposition in sigma is one in
    C; so Hilb(C) lies in the union of the Hilb(sigma).  Hilb(sigma) is the
    rays of sigma and the irreducible lattice points of its fundamental
    parallelepiped: a point with a coefficient >= 1 is divided by that ray.
    No ray divides a parallelepiped point, and for two such points h - b is
    in sigma iff the numerators of b are at most those of h componentwise.
    So each simplex reduces its enumerated numerators among themselves,
    with the degree sum N, and computes points only for the survivors (see
    ``_parallelepiped_numerators``).  A simplicial cone is its own simplex
    and is done.  Otherwise the survivors and the extreme rays of C are
    reduced once more in C, where h - b lies in C iff the facet values of h
    dominate those of b, with the degree the sum of the facet values.  Both
    reductions test a candidate only against kept elements of at most half
    its degree (``_irreducible`` gives the proof), so the enumeration is
    linear in the multiplicities of the simplices and the reductions cost
    about the size of their output times its logarithm.

    The result is unique and lex-sorted.
    """
    if not cone.is_strongly_convex:
        raise DomainError("Hilbert bases are defined for strongly convex cones")
    if cone.is_zero:
        return ()
    down, up, m = _to_span_coords(cone)
    if m == 2:
        rays = [down(r) for r in cone.extreme_rays]
        return tuple(sorted(up(h) for h in _hilbert_basis_2d(*rays)))
    simplices = pulling_triangulation(cone)
    found = set(cone.extreme_rays)
    for simplex in simplices:
        rays = [down(r) for r in simplex]
        big, nums = _parallelepiped_numerators(rays, m)
        ranked = sorted((sum(n), n, n) for n in nums)
        found.update(up(_parallelepiped_point(n, big, rays))
                     for n in _irreducible(ranked))
    if len(simplices) == 1:
        return tuple(sorted(found))
    ranked = []
    for h in found:
        values = tuple(vdot(n, h) for n in cone.facet_normals)
        ranked.append((sum(values), values, h))
    ranked.sort()
    return tuple(sorted(_irreducible(ranked)))


def cone_lattice_generators(cone):
    """Generators of cone meet Z^dim as a monoid.

    Strongly convex part by Hilbert basis; a nontrivial lineality space
    contributes +/- its canonical lattice basis, with the Hilbert basis of
    the image cone in the quotient lifted back along the canonical section.
    """
    if cone.is_strongly_convex:
        return hilbert_basis(cone)
    p, r, _ = _quotient_maps(cone.lineality, cone.dim)
    k = cone.dim - len(cone.lineality)
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

    gens = cone_lattice_generators(cone)
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


def _maximal(untouched, groups):
    """The untouched cones and every cone of the groups that no cone of
    another group contains, once each, sorted.

    Equal cones count once: a cone shared between groups is kept or dropped
    with its first copy, and ``!=`` rather than ``is not`` keeps an equal
    copy in another group from dropping it.  With every cone its own group
    this is the all-pairs reduction.
    """
    keep = list(untouched)
    seen = set()
    for i, group in enumerate(groups):
        for p in group:
            if p in seen:
                continue
            seen.add(p)
            if not any(q != p and q.contains_cone(p)
                       for j, other in enumerate(groups) if j != i
                       for q in other):
                keep.append(p)
    keep.sort(key=RationalCone.sort_key)
    return tuple(keep)


@dataclass(frozen=True)
class Fan:
    """A fan: strongly convex cones meeting along common faces.

    The constructor canonicalizes (sorts, dedupes, drops cones contained in
    others) and checks strong convexity; pairwise face compatibility is
    checked by ``validate`` (called by the public entry points).

    Stellar subdivisions build their fans with the private ``_stellar``.
    It gives the same fan as the constructor, but it tests containment only
    between pieces of different replaced cones, not between every pair of
    cones; that rule needs a reduced input fan.
    """

    dim: int
    maximal_cones: tuple

    def __post_init__(self):
        for c in self.maximal_cones:
            if c.dim != self.dim:
                raise InputError("cone of wrong ambient dimension in fan")
            if not c.is_strongly_convex:
                raise DomainError("fans consist of strongly convex cones")
        object.__setattr__(self, "maximal_cones", _maximal(
            (), [(c,) for c in self.maximal_cones]))

    @classmethod
    def _stellar(cls, dim, untouched, groups):
        """The fan of one stellar step at a point v: the untouched cones of
        a fan built by the constructor (so none contains another) and, for
        each replaced cone, the group of its pieces.

        Only pairs of pieces of different groups are tested.  A piece
        contains v and an untouched cone does not; an untouched cone inside
        a piece would lie inside the replaced cone; two pieces of one cone
        have the dimension of that cone and disjoint relative interiors.
        Testing only pieces that share a ray would not do: cone((1, 1))
        lies in cone((1, 0), (0, 1)) and shares no ray with it.
        """
        fan = object.__new__(cls)
        object.__setattr__(fan, "dim", dim)
        object.__setattr__(fan, "maximal_cones", _maximal(untouched, groups))
        return fan

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


def _joins(cone, v):
    """The joins of v, a point of the strongly convex cone, with the facets
    of the cone not containing it.

    The facet cut out by the normal n is generated by the generators n
    vanishes on, and contains v iff n vanishes on v, so no facet is built.
    """
    return tuple(
        RationalCone.from_rays(
            [g for g in cone.generators if not vdot(n, g)] + [v], cone.dim)
        for n in cone.facet_normals if vdot(n, v))


def _stellar_pieces(fan, point):
    """Stellar subdivision data: (new fan, [(replaced cone, pieces)]).

    Each cone containing the point is replaced by the joins of the point
    with the facets not containing it.
    """
    v = primitive(point)
    untouched = []
    replaced = []
    for c in fan.maximal_cones:
        if c.contains(v):
            replaced.append((c, _joins(c, v)))
        else:
            untouched.append(c)
    if not replaced:
        raise DomainError("subdivision point lies outside the fan support")
    new = Fan._stellar(fan.dim, untouched, [p for _, p in replaced])
    return new, replaced


def stellar_subdivision(fan, point, validate=True):
    """The stellar subdivision of the fan at a lattice point of its support."""
    out, _ = _stellar_pieces(fan, point)
    if validate:
        out.validate()
    return out


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
    rays = [down(r) for r in cone.extreme_rays]
    big, nums = _parallelepiped_numerators(rays, m)
    if not nums:
        raise InternalCheckError("regular cone passed to subdivision point")
    best = min(nums, key=lambda n: (sum(n), n))
    v = up(_parallelepiped_point(best, big, rays))
    if primitive(v) != v:
        raise InternalCheckError("subdivision point is not primitive")
    return v


def resolve(fan, validate=True):
    """A regular subdivision of the fan by iterated stellar subdivisions.

    The fan is first made simplicial by the pulling triangulations of its
    non-simplicial cones; then, while a singular cone remains, the one of
    largest multiplicity (ties by ray tuple) is subdivided at its
    distinguished parallelepiped point.  After every step it is checked that
    each replaced cone was replaced by same-dimension pieces of strictly
    smaller multiplicity; the multiset of multiplicities therefore strictly
    decreases and the loop terminates.
    """
    simplicial = []
    for c in fan.maximal_cones:
        if c.is_simplicial:
            simplicial.append(c)
            continue
        for simplex in pulling_triangulation(c):
            simplicial.append(RationalCone.from_rays(simplex, fan.dim))
    current = Fan(dim=fan.dim, maximal_cones=tuple(simplicial))
    if validate:
        try:
            current.validate()
        except DomainError as exc:
            fan.validate()  # a caller's non-fan is its own DomainError
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
            fan.validate()
            raise InternalCheckError(
                f"resolved fan violates the fan axioms: {exc}") from exc
    return current
