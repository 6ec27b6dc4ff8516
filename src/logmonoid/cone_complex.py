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
costs none when its generators are linearly independent: such a cone is
simplicial, and its facet normals are the rows of the adjugate of its rays
in span coordinates (``RationalCone._span``).  The facet normals and span
equations of a cone are stored as the canonical extreme rays and lineality
of its dual, so the dual is the four fields swapped, and a cone given by
constraints is the dual of the cone they generate.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from math import gcd
from operator import le, mul

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
    g = gcd(*v)
    if g == 0:
        raise InputError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _signed(vectors, lattice):
    """The vectors followed by +/- each lattice basis vector: generators of
    cone(vectors) + span(lattice), or constraints n . x >= 0 and e . x = 0."""
    if not lattice:
        return tuple(vectors)
    return (*vectors, *(x for l in lattice for x in (l, vneg(l))))


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
        p, r = xl._quotient_maps(lineality, dim)
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


def extreme_rays_of_halfspaces(normals, dim, *, kernel=()):
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

    ``kernel``, if not empty, is ``xl._saturated_kernel(normals, dim)``, which
    ``RationalCone.from_rays`` has when there are fewer normals than dim.
    """
    dim = xl._as_count(dim, "dimension")
    normals = [xl._as_vector(n, dim, "normal") for n in normals]
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
    lineality = (kernel or xl._saturated_kernel(normals, dim)) if lin else ()
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
        """The canonical cone the vectors generate, by one of two routes:
        independent generators take the closed form ``_simplicial_cone``,
        others one double description run for the facets, which then pick
        the extreme rays out of the generators.  Either way every generator
        must lie in the result."""
        dim = xl._as_count(dim, "dimension")
        vecs = [xl._as_vector(v, dim, "ray") for v in xl._as_tuple(vectors, "rays")]
        vecs = list(dict.fromkeys(primitive(v) for v in vecs if any(v)))
        # independent iff as many as the rank of their span
        equations = () if len(vecs) >= dim else xl._saturated_kernel(vecs, dim)
        cone = _simplicial_cone(
            vecs, dim, equations, _span_maps(equations, dim)) \
            if len(vecs) + len(equations) == dim else None
        if cone is None:
            # dual description: facet normals = extreme rays of the dual
            # cone, span equations = lineality of the dual cone, computed
            # above when there are fewer generators than dim
            normals, equations = extreme_rays_of_halfspaces(
                vecs, dim, kernel=equations)
            # primal description: the canonical constraints are a complete
            # description of the cone, its lineality is their saturated
            # kernel, and every extreme ray class is among the generators,
            # so the incidence rule picks the extreme rays out of the
            # generators.  The lineality is the minimal face, generated by
            # the generators tight on every constraint: with none it is 0.
            constraints = _signed(normals, equations)
            tight = [{i for i, c in enumerate(constraints) if vdot(c, v) == 0}
                     for v in vecs]
            lin = xl._saturated_kernel(constraints, dim) \
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
        v = xl._as_vector(v, self.dim, "vector")
        return all(vdot(eq, v) == 0 for eq in self.span_equations) and \
            all(vdot(n, v) >= 0 for n in self.facet_normals)

    def contains_cone(self, other):
        return all(self.contains(g) for g in other.generators)

    @cached_property
    def _abs_det(self):
        """|det| of the extreme rays in span coordinates (``_span``), for a
        simplicial cone, read by ``multiplicity``: ``_from_adjugate`` sets
        it; any other cone computes it here, once, on first use."""
        down = self._span[0]
        return abs(xl.det_adjugate([down(r) for r in self.extreme_rays])[0])

    @cached_property
    def _span(self):
        """(down, up, lift): ``down`` maps a point of the span lattice L to
        its coordinates in Z^m, m = ``span_dim``, ``up`` maps them back, and
        ``lift`` maps a form on Z^m to a form on Z^dim equal to it on L.  A
        full-dimensional cone keeps its coordinates; ``_from_adjugate``
        gives the pieces built inside a cone its maps, others compute them
        here, once.  Otherwise (P, R) = ``xl._quotient_maps(E, dim)`` for the k
        span equations E, from U E^T V = [I; 0]: P is the last m rows of U,
        R the last m columns of U^-1, and down = R^T, up = P^T, lift = R.
        With y = U^-T x, x is in L iff the first k entries of y vanish, the
        last m are R^T x, and x = U^T y = P^T R^T x.  A form n' on Z^m is
        (R n') . x on L, and ``_extreme_classes`` reduces R n' modulo E,
        with these same maps, to R primitive(P R n') = R n' for a primitive
        n', as P R = I: a lifted primitive normal is the canonical one.
        """
        return _span_maps(self.span_equations, self.dim)


def _span_maps(equations, dim):
    """The maps of ``RationalCone._span`` for canonical span equations."""
    if not equations:
        return tuple, tuple, tuple
    p, r = xl._quotient_maps(equations, dim)
    return (partial(xl.apply, xl._from_columns(r.rows, r.ncols)),
            partial(xl.apply, xl._from_columns(p.rows, dim)),
            partial(xl.apply, r))


def _simplicial_cone(vecs, dim, equations, span):
    """The canonical cone of distinct primitive generators of the span
    lattice L of the canonical ``equations``, as many as its rank m, with
    ``span`` the maps of L (``RationalCone._span``); None if they are
    dependent.  With their coordinates in Z^m as the columns of R, the
    facet opposite r_i has the inward normal row i of adj(R) times the sign
    of det(R): it vanishes on every r_j but r_i and is det(R) on r_i
    (Fulton, *Introduction to Toric Varieties*, §1.2).  Made primitive,
    lifted and sorted, these are the canonical normals, and |det(R)| is
    the multiplicity.
    """
    down, _, lift = span
    det, adj = xl.det_adjugate(list(zip(*map(down, vecs))))
    if not det:
        return None
    return _from_adjugate(dim, equations, span, vecs, [
        lift(primitive(r if det > 0 else vneg(r))) for r in adj], abs(det))


def _from_adjugate(dim, equations, span, rays, normals, abs_det):
    """The simplicial cone on the distinct primitive ``rays`` with the
    canonical ``normals`` of ``_simplicial_cone``; it keeps |det| and the
    maps ``span`` of its span lattice, which the pieces built inside share."""
    cone = RationalCone(dim=dim, extreme_rays=tuple(sorted(rays)),
                        lineality=(), facet_normals=tuple(sorted(normals)),
                        span_equations=equations)
    vars(cone).update(_abs_det=abs_det, _span=span)
    return cone


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
# multiplicity, Hilbert bases


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
    for regular cones): |det| of the rays in coordinates of the span
    lattice.  It is kept on each cone from its construction, with no global
    cache (``RationalCone._abs_det``)."""
    if not cone.is_strongly_convex:
        raise DomainError("multiplicity requires a strongly convex cone")
    if not cone.is_simplicial:
        raise DomainError("multiplicity requires a simplicial cone")
    d = cone._abs_det
    if d == 0:
        raise InternalCheckError("simplicial cone with degenerate rays")
    return d


def is_regular(cone):
    """Whether the cone is unimodular: simplicial with its rays a basis of
    the span lattice."""
    if not cone.is_strongly_convex:
        raise DomainError("regularity requires a strongly convex cone")
    return cone.is_simplicial and multiplicity(cone) == 1


def _lattice_points(nums, big, ray_coords):
    """The lattice points sum_i (N_i / L) r_i of the numerator tuples N
    over L, in order, built a coordinate at a time."""
    coords = []
    for col in zip(*ray_coords):
        sums = [sum(map(mul, n, col)) for n in nums]
        if any(x % big for x in sums):
            raise InternalCheckError(
                "parallelepiped numerators do not give a lattice point")
        coords.append([x // big for x in sums])
    return list(zip(*coords))


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

    The loop over those kept values stops at the first that divides h; its
    ``else`` keeps h.  ``hilbert_basis`` reduces triples by
    ``_minimal_triples`` instead, and says why both stay.
    """
    kept = []
    degrees = []
    kept_values = []
    for deg, values, item in ranked:
        for b in kept_values[:bisect_right(degrees, deg // 2)]:
            if all(map(le, b, values)):
                break
        else:
            kept.append(item)
            degrees.append(deg)
            kept_values.append(values)
    return kept


def _minimal_triples(triples):
    """The minimal ones among distinct triples of nonnegative integers under
    the componentwise order, in lex order, by one sweep (Kung, Luccio and
    Preparata, "On finding the maxima of a set of vectors", J. ACM 22,
    1975, for three coordinates).

    The lex order extends the componentwise one, so every triple below t
    comes before t in the sweep, and every earlier triple has a first
    coordinate at most that of t.  So t is minimal iff no earlier triple
    has its last two coordinates, its projection, at most those of t.  It
    is enough to keep the minimal projections seen so far: a staircase,
    second coordinates ascending and third strictly descending.  Of the
    entries whose second coordinate is at most that of t, the last has the
    least third, so one bisection decides t.  The projection of a triple
    that is not minimal lies above an entry and changes no later answer;
    that of a minimal t replaces the entries it lies below, the run that
    starts where its second coordinate goes.
    """
    kept = []
    seconds, thirds = [], []
    for t in sorted(triples):
        _, b, c = t
        i = bisect_right(seconds, b)
        if i and thirds[i - 1] <= c:
            continue
        kept.append(t)
        j = bisect_left(seconds, b, 0, i)
        k = i
        while k < len(thirds) and thirds[k] >= c:
            k += 1
        seconds[j:k] = (b,)
        thirds[j:k] = (c,)
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
    in sigma iff the numerators of b are at most those of h componentwise;
    h - b is then a parallelepiped point too.  So the irreducible points
    are those whose numerators are minimal, and each simplex reduces its
    enumerated numerators among themselves and computes points only for
    the survivors (``xl._parallelepiped_numerators``, ``_lattice_points``).
    In span dimension 3 the numerators are triples, and one lex-ordered
    sweep finds the minimal ones (``_minimal_triples``, after Kung, Luccio
    and Preparata); in higher dimension ``_irreducible`` ranks them by the
    degree sum N.  A simplicial cone is its own simplex and is done.
    Otherwise the survivors and the extreme rays of C are reduced once more
    in C by ``_irreducible``, where h - b lies in C iff the facet values of
    h dominate those of b, with the degree the sum of the facet values.
    Two reductions, because the sweep's staircase decides a candidate with
    one bisection only for three coordinates; with four or more the degree
    bound of ``_irreducible`` keeps the tests few.  The enumeration is
    linear in the multiplicities of the simplices; (1,0,0), (0,1,0),
    (37,91,20000) has 19,999 candidates and 762 basis elements, and the
    sweep makes one bisection per candidate where the degree-ranked
    reduction made 177,116 domination tests.

    The result is unique and lex-sorted.
    """
    if not cone.is_strongly_convex:
        raise DomainError("Hilbert bases are defined for strongly convex cones")
    down, up, _ = cone._span
    if cone.span_dim == 2:
        rays = [down(r) for r in cone.extreme_rays]
        return tuple(sorted(up(h) for h in _hilbert_basis_2d(*rays)))
    simplices = pulling_triangulation(cone)
    found = set(cone.extreme_rays)
    for simplex in simplices:
        rays = [down(r) for r in simplex]
        big, nums = xl._parallelepiped_numerators(rays)
        kept = _minimal_triples(nums) if cone.span_dim == 3 else \
            _irreducible(sorted(zip(map(sum, nums), nums, nums)))
        found.update(map(up, _lattice_points(kept, big, rays)))
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
    p, r = xl._quotient_maps(cone.lineality, cone.dim)
    k = cone.dim - len(cone.lineality)
    image = RationalCone.from_rays(
        [xl.apply(p, ray) for ray in cone.extreme_rays], k)
    lifted = [xl.apply(r, h) for h in hilbert_basis(image)]
    return tuple(sorted(set(_signed(lifted, cone.lineality))))


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
    return tuple(map(sum, zip((0,) * a.dim, *normals)))


@dataclass(frozen=True)
class Fan:
    """A fan: strongly convex cones meeting along common faces.

    The constructor canonicalizes a caller's list (sorts, dedupes, drops
    contained cones), checks strong convexity and checks every pair
    (``validate``), so every ``Fan`` is a fan and ``stellar_subdivision``
    and ``resolve`` trust theirs.  The fans the package derives are fans by
    theorem, with distinct maximal cones none of which contains another,
    and ``_built`` only sorts them.

    Stellar and 2D pieces.  Pulling triangulations (De Loera, Rambau and
    Santos, *Triangulations*, 2010), 2D resolutions (see ``resolve``) and
    stellar steps (Ewald, *Combinatorial Convexity and Algebraic Geometry*,
    ch. III) cut a maximal cone into pieces of its dimension with disjoint
    relative interiors; a cone left alone is its own piece.  In a stellar
    step at v, an untouched cone rho and a piece cone(G, v) of a replaced
    cone tau meet in G meet F, with F = tau meet rho a face of tau without
    v (lambda v + g in F forces lambda = 0): a face of both.  A piece of a
    maximal cone tau1 inside a piece of another, tau2, would lie in the
    proper face tau1 meet tau2 of tau1, of lower dimension than the piece:
    pieces of different cones never nest or coincide.

    Blowup regions.  The dual cone of a toric monoid is pointed and
    full-dimensional, and the region R_s of a minimal ideal generator s is
    the dual cone cut by <u, t - s> >= 0 over the other minimal generators
    t (``log_ideal_blowup.blowup_fan``).  A point of R_s with <u, t - s> = 0
    has <u, j - t> = <u, j - s> >= 0 for every j, so R_s meets R_t in the
    face that <u, t - s> = 0 cuts from each.  R_s in R_t, both
    full-dimensional, would make t - s vanish on a spanning set, so t = s:
    a toric monoid is torsion-free.
    """

    dim: int
    maximal_cones: tuple

    def __post_init__(self):
        object.__setattr__(self, "dim", xl._as_count(self.dim, "dimension"))
        cones = xl._as_tuple(self.maximal_cones, "maximal cones")
        for c in cones:
            if xl._of_kind(c, RationalCone, "fan cone").dim != self.dim:
                raise InputError("cone of wrong ambient dimension in fan")
            if not c.is_strongly_convex:
                raise DomainError("fans consist of strongly convex cones")
        cones = dict.fromkeys(cones)
        object.__setattr__(self, "maximal_cones", tuple(sorted(
            (p for p in cones
             if not any(q != p and q.contains_cone(p) for q in cones)),
            key=RationalCone.sort_key)))
        self.validate()

    @classmethod
    def _built(cls, dim, cones):
        """The fan of the package-built cones, which are the distinct
        maximal cones of a fan by theorem (see above): sorted only."""
        fan = object.__new__(cls)
        object.__setattr__(fan, "dim", dim)
        object.__setattr__(fan, "maximal_cones", tuple(
            sorted(cones, key=RationalCone.sort_key)))
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

    def rays(self):
        return tuple(sorted({r for c in self.maximal_cones
                             for r in c.extreme_rays}))

    def support_contains(self, v):
        return any(c.contains(v) for c in self.maximal_cones)

    def is_regular(self):
        return all(is_regular(c) for c in self.maximal_cones)


def fan_from_cones(cones, dim, validate=True):
    """``Fan(dim, cones)``; ``validate`` is accepted and ignored."""
    return Fan(dim, cones)


def _joins(cone, v):
    """The joins of v, a primitive point of the strongly convex cone, with
    the facets of the cone not containing it.

    The facet cut out by the normal n is generated by the generators n
    vanishes on, and contains v iff n vanishes on v, so no facet is built.
    On a simplicial cone a facet has all rays but one, and with v, which
    is in the span and off the facet, they are independent: the join is
    ``_simplicial_cone`` of them in the span coordinates of the cone, what
    ``from_rays`` returns for them.  A cone that is not simplicial, which
    only a public fan gives ``stellar_subdivision``, goes through
    ``from_rays``.
    """
    pieces = []
    for n in cone.facet_normals:
        if vdot(n, v):
            gens = [g for g in cone.generators if not vdot(n, g)] + [v]
            piece = _simplicial_cone(gens, cone.dim, cone.span_equations,
                                     cone._span) if cone.is_simplicial else \
                RationalCone.from_rays(gens, cone.dim)
            if piece is None:
                raise InternalCheckError("join with a facet is degenerate")
            pieces.append(piece)
    return tuple(pieces)


def stellar_subdivision(fan, point):
    """The stellar subdivision of the fan at a lattice point of its
    support: each cone containing the point is replaced by the joins of the
    point with its facets not containing it.  It trusts the fan, which its
    constructor checked, and the output is a fan (see ``Fan``)."""
    v = primitive(xl._as_vector(point, fan.dim, "subdivision point"))
    untouched, pieces = [], []
    for c in fan.maximal_cones:
        if c.contains(v):
            pieces += _joins(c, v)
        else:
            untouched.append(c)
    if not pieces:
        raise DomainError("subdivision point lies outside the fan support")
    return Fan._built(fan.dim, untouched + pieces)


# ---------------------------------------------------------------------------
# resolution


def _subdivision_point(cone):
    """The distinguished parallelepiped point of a singular simplicial cone:
    minimal coefficient sum, ties by lexicographic coefficient tuple.

    Any such point is automatically primitive (a proper divisor would have a
    smaller coefficient sum) and lies on no regular cone of any fan
    containing the cone as a face-compatible member.
    """
    down, up, _ = cone._span
    rays = [down(r) for r in cone.extreme_rays]
    big, nums = xl._parallelepiped_numerators(rays)
    if not nums:
        raise InternalCheckError("regular cone passed to subdivision point")
    best = min(zip(map(sum, nums), nums))[1]
    v = up(_lattice_points([best], big, rays)[0])
    if primitive(v) != v:
        raise InternalCheckError("subdivision point is not primitive")
    return v


def _regular_pieces_2d(cone):
    """The cones on consecutive elements of the Hilbert basis of a singular
    cone of span dimension 2, listed from ray to ray; () if it is regular.

    In span coordinates (``_span``) consecutive elements a, b have
    det(a, b) = s = +-1, so the piece on them is known in closed form: its
    rays are up(a) and up(b), its normals the lifts of s (b1, -b0) and
    s (-a1, a0), the rows of the adjugate times the sign of the
    determinant, primitive since the matrix is unimodular, and its
    multiplicity is 1: what ``_simplicial_cone`` returns for the two rays.
    The rows are the forms det(., b) and -det(., a), so each basis element
    h gives its ray and the lifts of +-det(., h) once.
    """
    down, up, lift = span = cone._span
    basis = _hilbert_basis_2d(*(down(r) for r in cone.extreme_rays))
    pairs = list(zip(basis, basis[1:]))
    dets = [a[0] * b[1] - a[1] * b[0] for a, b in pairs]
    if any(abs(s) != 1 for s in dets):
        raise InternalCheckError("continued fraction gave a singular cone")
    if len(pairs) == 1:
        return ()
    rays = [up(h) for h in basis]
    pos = [lift((h[1], -h[0])) for h in basis]
    neg = [lift((-h[1], h[0])) for h in basis]
    return tuple(_from_adjugate(
        cone.dim, cone.span_equations, span, rays[i:i + 2],
        (pos[i + 1], neg[i]) if s > 0 else (neg[i + 1], pos[i]), 1)
        for i, s in enumerate(dets))


def _stellar_loop(fan):
    """Resolves a simplicial fan: while a singular cone remains, the one of
    largest multiplicity (ties by rays) is split at its subdivision point v;
    each piece must have smaller multiplicity, so the loop ends.

    A step touches only the star of v, the cones that contain it.  Those
    are the cones that have every ray of F, the smallest face of the worst
    cone through v.  A cone that has them contains F and v.  A cone sigma
    that contains v meets the worst cone in a common face of both, which
    holds v and so F; F is then a face of sigma, and its rays are extreme
    rays of sigma.  So an index from rays to the live cones that have them
    finds the star, and a heap of the singular cones, keyed by
    (-multiplicity, rays), gives the worst one.  A replaced cone never comes
    back, since every later cone that contains v has it as a ray, so a
    popped cone that is no longer live is skipped.
    """
    live = set()
    by_ray = defaultdict(set)       # ray -> the live cones that have it
    heap = []

    def add(cone):
        live.add(cone)
        for r in cone.extreme_rays:
            by_ray[r].add(cone)
        mult = multiplicity(cone)
        if mult > 1:
            heapq.heappush(heap, (-mult, cone.extreme_rays, cone))
        return mult

    for c in fan.maximal_cones:
        add(c)
    while heap:
        worst = heapq.heappop(heap)[2]
        if worst not in live:
            continue
        v = _subdivision_point(worst)
        tight = [n for n in worst.facet_normals if not vdot(n, v)]
        face = [r for r in worst.extreme_rays
                if not any(vdot(n, r) for n in tight)]
        for old in set.intersection(*(by_ray[r] for r in face)):
            live.remove(old)
            for r in old.extreme_rays:
                by_ray[r].discard(old)
            mult = multiplicity(old)
            if any(add(piece) >= mult for piece in _joins(old, v)):
                raise InternalCheckError(
                    "stellar subdivision failed to decrease multiplicity")
    return Fan._built(fan.dim, live)


def resolve(fan, validate=True):
    """A regular subdivision of the fan.

    It trusts the fan, which its constructor checked, and every later fan
    is a fan by construction (see ``Fan``); ``validate`` is accepted and
    ignored.  After the pulling triangulations, each singular cone of span
    dimension 2 gets its minimal resolution (Fulton, *Introduction to Toric
    Varieties*, §2.6) from the continued fraction.  Stellar steps reach the
    same: the parallelepiped point p of least coefficient sum is
    irreducible (p = a + b, a and b nonzero, makes a such a point of
    smaller sum), and the cone on two basis elements has the basis between
    them as its own.  Later steps keep those cones, which meet others in
    rays or 0, and ``_stellar_loop`` resolves the rest.  Regular cones stay
    as they are.
    """
    simplicial = [s for c in fan.maximal_cones for s in (
        [c] if c.is_simplicial else [RationalCone.from_rays(t, fan.dim)
                                     for t in pulling_triangulation(c)])]
    return _stellar_loop(Fan._built(fan.dim, [
        p for c in simplicial
        for p in (_regular_pieces_2d(c) if c.span_dim == 2 else ()) or (c,)]))
