"""Finitely generated commutative monoids, presented and affine.

Two representations are used:

  - ``MonoidPresentation``: generators and congruence relations u = v, a
    purely symbolic object (no word problem is solved at this level);
  - ``AffineMonoid``: a finitely generated submonoid of a finitely generated
    abelian group, given by generators.  The ambient group always equals the
    group generated by the generators (the Grothendieck group of the monoid),
    so every affine monoid here is fine (finitely generated and integral).

Elements carry a free integer part and torsion residues.  Equality of
monoids is only ever decided as subset equality inside a shared ambient
group (``same_submonoid``); no canonical form is claimed across different
presentations of isomorphic monoids.

Every construction below builds its result with the private constructor
``AffineMonoid._spanning``, which skips the public constructor's check that
the generators span the ambient group.  Each call site states why the span
holds by construction: the generators are images of a spanning set under a
surjection (``sharpen``, ``integralize``, pushouts), they contain a spanning
set (blowup charts, saturation), or the group was just presented on them
as generators (``span_submonoid``).  The public constructor
``AffineMonoid(...)`` keeps every check.  An affine monoid also caches, in
private attributes, the membership system that ``expression`` solves
against, the lattice of relations among its generators that ``contains``
decides in and ``presentation_of`` reads, and the cone of its free parts.

Elements have one currency inside the package: the canonical lift tuple,
free part then torsion residues reduced into [0, f).  ``vector_of`` is the
one door for a caller's lift vector or ``MonoidElement``: it reduces once
and refuses an element that does not split as the ambient does.  A
``MonoidElement`` is built only for a public field or return value, by
``_element`` without the checks of its constructor, and the package's own
tuples skip the doors that check a caller's value for the trusted cores
behind them: ``_contains`` behind ``contains``, ``xl.FgAbelianGroup._reduce``
behind ``reduce_vector`` and the group arithmetic, and
``cc.RationalCone._of_rays`` and ``_holds`` behind ``from_rays`` and the
cone's ``contains``.
``contains`` answers zero and the generators by definition, decides the
rest in the lattice of relations when it has rank at most 2, and searches
only above.  ``sharpen`` asks it of each generator of M/M^x in the lattice
of the others, which is None, a no, when they do not span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf
from operator import mul

from .errors import DomainError, InputError
from . import cone_complex as cc
from . import exact_lattice as xl

# ---------------------------------------------------------------------------
# elements and presentations


@dataclass(frozen=True, order=True)
class MonoidElement:
    """An element of a finitely generated abelian group: free part plus
    torsion residues (kept reduced into [0, f) per invariant factor)."""

    free: tuple
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "free", xl._as_ints(self.free))
        object.__setattr__(self, "torsion", xl._as_ints(self.torsion))

    def as_vector(self):
        return self.free + self.torsion

    @property
    def is_zero(self):
        return all(x == 0 for x in self.as_vector())


def vector_of(ambient, elem):
    """The canonical lift tuple of ``ambient`` for a lift vector or for a
    MonoidElement, which must split into free part and torsion as it does."""
    if isinstance(elem, MonoidElement):
        if len(elem.free) != ambient.free_rank or \
                len(elem.torsion) != len(ambient.invariant_factors):
            raise InputError("element does not live in the ambient group")
        elem = elem.as_vector()
    return ambient.reduce_vector(elem)


def _element(ambient, vec):
    """The MonoidElement of a canonical lift tuple of ``ambient``, built
    without the checks of ``MonoidElement``: its slices are tuples of ints."""
    elem = object.__new__(MonoidElement)
    r = ambient.free_rank
    object.__setattr__(elem, "free", vec[:r])
    object.__setattr__(elem, "torsion", vec[r:])
    return elem


def element_of(ambient, elem):
    """The canonical MonoidElement for ``elem`` (see ``vector_of``)."""
    return _element(ambient, vector_of(ambient, elem))


def _combination(ambient, exponents, vectors):
    """The canonical tuple of sum_i exponents[i] * vectors[i], for lift
    tuples of ``ambient``."""
    return ambient._reduce(tuple([sum(c * v[i] for c, v in zip(exponents, vectors))
                                  for i in range(ambient.lift_dim)]))


def exponent_sum(ambient, exponents, elements):
    """The element sum_i exponents[i] * elements[i] of ``ambient``."""
    return _element(ambient, _combination(
        ambient, exponents, [vector_of(ambient, e) for e in elements]))


@dataclass(frozen=True)
class MonoidPresentation:
    """Generators x_1..x_n subject to congruence relations u = v.

    Relations are pairs of exponent vectors with nonnegative entries.  This
    object is symbolic: no equality of words is decided here; pass it through
    ``integralize`` before asking membership questions.
    """

    ngens: int
    relations: tuple = ()

    def __post_init__(self):
        ngens = xl._as_count(self.ngens, "generator count")
        rels = []
        for rel in xl._as_tuple(self.relations, "relations"):
            try:
                u, v = rel
            except (TypeError, ValueError):
                raise InputError("relation is not a pair (u, v)") from None
            u = xl._as_vector(u, ngens, "relation exponent vector")
            v = xl._as_vector(v, ngens, "relation exponent vector")
            if any(x < 0 for x in u + v):
                raise InputError("relation exponents must be nonnegative")
            rels.append((u, v))
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "relations", tuple(rels))


# ---------------------------------------------------------------------------
# affine monoids


def _distinct_nonzero(vectors):
    """The lift tuples in order, with zero and repeats dropped."""
    return tuple(dict.fromkeys(v for v in vectors if any(v)))


@dataclass(frozen=True)
class AffineMonoid:
    """A fine monoid: finitely many generators inside their Grothendieck group.

    Invariant: the ambient group is exactly the group generated by the
    generators, so ``ambient`` is the Grothendieck group of the monoid.
    Use ``AffineMonoid.from_vectors`` for generators that span a proper
    subgroup of the written coordinates; it re-presents the ambient.

    The public constructor reduces every generator (``vector_of``) and
    checks the invariant; the constructions of this package use
    ``_spanning``, where it holds by construction (see the module
    docstring).  The private ``_vectors`` are the generators' canonical
    lift tuples, and the private ``_system``, ``_lattice`` and ``_cone``
    are cached on first use, ``_lattice`` by the span check where there is
    one; equality and hashing see only the two fields.
    """

    ambient: xl.FgAbelianGroup
    generators: tuple = ()

    def __post_init__(self):
        xl._of_kind(self.ambient, xl.FgAbelianGroup, "ambient group")
        self._keep(vector_of(self.ambient, e)
                   for e in xl._as_tuple(self.generators, "generators"))
        if self._lattice is None:
            raise InputError(
                "generators do not generate the ambient group; "
                "use AffineMonoid.from_vectors to re-present the span")

    def _keep(self, vectors):
        """Sets both kinds of generators from canonical lift tuples."""
        vectors = _distinct_nonzero(vectors)
        object.__setattr__(self, "_vectors", vectors)
        object.__setattr__(self, "generators",
                           tuple(_element(self.ambient, v) for v in vectors))

    @classmethod
    def _spanning(cls, ambient, vectors):
        """The monoid generated by canonical lift tuples of ``ambient`` that
        are known to generate it as a group.

        Trusted: it only drops zeros and repeats, and neither reduces the
        tuples nor checks the span.  Each caller states why the span holds.
        """
        monoid = object.__new__(cls)
        object.__setattr__(monoid, "ambient", ambient)
        monoid._keep(vectors)
        return monoid

    @cached_property
    def _system(self):
        """The membership system of the generators (``_membership_system``)."""
        return _membership_system(self.ambient, self._vectors)

    @cached_property
    def _lattice(self):
        """The relation lattice of the generators (``xl._relation_lattice``
        of their ``xl._decompose_among``), None when they do not generate
        the ambient group: the public constructor's span check reads it."""
        return xl._relation_lattice(
            xl._decompose_among(self.ambient, self._vectors), len(self._vectors))

    @cached_property
    def _cone(self):
        """The rational cone in Q^r spanned by the free parts of the
        generators: the cone of the torsion-free projection of the monoid."""
        r = self.ambient.free_rank
        return cc.RationalCone._of_rays([v[:r] for v in self._vectors], r)

    @classmethod
    def from_vectors(cls, vectors, torsion_orders=()):
        """The monoid generated by the given vectors of Z^r (+) Z/f_1 (+) ...

        The ambient group of the result is the subgroup the vectors generate,
        re-presented in invariant-factor form; coordinates change accordingly.
        """
        torsion_orders = xl._as_ints(torsion_orders)
        vectors = xl._as_tuple(vectors, "vectors")
        if not vectors:
            return free_monoid(0)
        width = len(xl._as_ints(vectors[0]))
        if width < len(torsion_orders):
            raise InputError("more torsion orders than coordinates")
        host = xl.FgAbelianGroup(width - len(torsion_orders), torsion_orders)
        return span_submonoid(host, [host._vector(v) for v in vectors])[0]

    @property
    def zero(self):
        return _element(self.ambient, self.ambient.zero())

    def element(self, vec):
        return element_of(self.ambient, vec)

    def add(self, a, b):
        amb = self.ambient
        return _element(amb, amb._add(vector_of(amb, a), vector_of(amb, b)))

    def neg(self, a):
        amb = self.ambient
        return _element(amb, amb._neg(vector_of(amb, a)))

    def sub(self, a, b):
        amb = self.ambient
        return _element(amb, amb._sub(vector_of(amb, a), vector_of(amb, b)))

    def contains(self, elem):
        """Membership: is ``elem`` a nonnegative combination of generators?"""
        return contains(self, elem)

    def same_submonoid(self, other):
        """Subset equality inside a shared ambient group."""
        if self.ambient != other.ambient:
            return False
        return all(_contains(other, v) for v in self._vectors) and \
            all(_contains(self, v) for v in other._vectors)


def span_submonoid(host, vectors):
    """Re-presents the monoid generated by lift vectors of ``host``, tuples
    of host.lift_dim ints (trusted: ``from_vectors`` and the CLI check them).

    Returns (monoid, images): the ambient of ``monoid`` is the subgroup of
    ``host`` generated by the vectors (invariant-factor form), and
    ``images[i]`` is the canonical lift tuple of the i-th input vector in
    the new coordinates.  When the vectors generate all of ``host`` the
    coordinates are kept unchanged.
    """
    sub, images, dec = xl._span_presentation(host, vectors)
    # the subgroup is presented on these very images as generators
    monoid = AffineMonoid._spanning(sub, images)
    if sub is host and len(monoid._vectors) == len(images):
        # coordinates kept and nothing dropped: dec is of [_vectors | relations]
        object.__setattr__(monoid, "_lattice",
                           xl._relation_lattice(dec, len(images)))
    return monoid, images


def free_monoid(n):
    """N^n with its standard basis."""
    # the standard basis spans Z^n
    return AffineMonoid._spanning(xl.FgAbelianGroup(n, ()), [
        tuple(int(i == j) for j in range(n)) for i in range(n)])


# ---------------------------------------------------------------------------
# membership


def _membership_system(ambient, vectors):
    """Columns of the nonnegative system of canonical lift tuples, torsion
    slack included, as the int tuples the solver core takes: the one system
    that membership, fiber products and monoid kernels solve against.

    For ambient Z^r (+) Z/f_1 (+) ... the system is
        [free parts          0  ]
        [torsion residues  -diag(f)]
    acting on (exponents, slack) >= 0.  Residues are reduced into [0, f), so
    a sum of elements overshoots a target with reduced residues (or zero) by
    a nonnegative multiple of f, which the slack subtracts.  The slack
    columns sit on distinct coordinates, so no nonzero solution is all slack.
    """
    return tuple(vectors) + \
        tuple(tuple(-x for x in c) for c in ambient.relation_columns())


def _bounds(rows):
    """The least and greatest integer t with a + c t >= 0 for every (a, c)
    in ``rows``, -inf or inf where no row bounds t; lo > hi when no t
    exists."""
    lo, hi = -inf, inf
    for a, c in rows:
        if c > 0:
            lo = max(lo, -(a // c))
        elif c < 0:
            hi = min(hi, a // -c)
        elif a < 0:
            return inf, -inf
    return lo, hi


def _has_point(rows):
    """Whether some integer t has a + c t >= 0 for every (a, c) in rows."""
    lo, hi = _bounds(rows)
    return lo <= hi


def _lattice_verdict(lattice, vec):
    """Whether x0 + K lam >= 0 for some integer lam, with x0 and K read off
    ``lattice`` for the target ``vec``, at kernel rank k <= 2; None when
    k >= 3 or the projection of the k = 2 polyhedron is unbounded (see
    ``contains``)."""
    particular, kernel = lattice
    x0 = [sum(map(mul, row, vec)) for row in particular]
    k = len(kernel)
    if k == 0:
        return min(x0) >= 0
    if k == 1:
        return _has_point(zip(x0, kernel[0]))
    if k > 2:
        return None
    rows = list(zip(x0, *kernel))
    up = [row for row in rows if row[2] > 0]
    lo, hi = _bounds([(a, c1) for a, c1, c2 in rows if not c2] + [
        (c * a - d * b, c * c1 - d * e1)
        for a, c1, d in rows if d < 0 for b, e1, c in up])
    if lo > hi:
        return False
    if lo == -inf or hi == inf:
        return None
    return any(_has_point([(a + c1 * t, c2) for a, c1, c2 in rows])
               for t in range(lo, hi + 1))


def contains(monoid, elem):
    """Whether ``elem`` (MonoidElement or lift vector) lies in ``monoid``:
    zero and the generators by definition, anything else in the lattice of
    relations among the generators, and by one Contejean-Devie search only
    where that is not decided in closed form.

    At free rank 0 the ambient is finite, and M, a submonoid of a finite
    group, is a group (-g = (e - 1) g for g of order e), which generates
    the ambient: M is all of it.

    Otherwise, with generators g_1..g_n and b the canonical lift tuple of
    ``elem``, b is in M iff the membership system (``_membership_system``)
    has a solution (x, s) >= 0 of sum_i x_i g_i - diag(f) s = b.  The slack
    needs no sign condition: the residues of the g_i and of b are reduced
    into [0, f), so for x >= 0 each f_j s_j = sum_i x_i g_ij - b_j > -f_j,
    hence s_j >= 0.  So b is in M iff some integer x >= 0 has
    sum_i x_i g_i = b in the ambient.  The generators span the ambient, so
    the Smith decomposition U A V = D of A = [g | diag(f)]
    (``xl._decompose_among``) has lift_dim invariant factors, all 1:
    A V_head U b = b for V_head the first lift_dim columns of V, and the
    other n + t - lift_dim = n - r = k columns of V span the integer kernel
    of A.  The sign of the slack rows is then immaterial, and they are cut
    off: the k kernel columns stay independent on the first n rows, since a
    kernel vector with x = 0 has diag(f) s = 0.  With x0 and K the first n
    rows of V_head U b and of the kernel columns (``xl._relation_lattice``,
    cached per monoid as ``_lattice``), b is in M iff x0 + K lam >= 0 for
    some lam in Z^k.  Each row a + c lam >= 0 with one unknown bounds lam
    below by ceil(-a / c) = -(a // c) when c > 0, above by a // -c when
    c < 0, and holds or fails outright when c = 0 (``_bounds``).

      - k = 0: b is in M iff x0 >= 0;
      - k = 1: iff no row fails and the greatest lower bound is at most the
        least upper bound, which holds at once when one side is unbounded;
      - k = 2: one Fourier-Motzkin step eliminates lam_2 (Schrijver,
        *Theory of Linear and Integer Programming*, 12.2): the rows whose
        lam_2 coefficient is 0 and, for each pair of rows p, q with lam_2
        coefficients c > 0 > d, the row c q - d p, cut out exactly the
        real projection of the polyhedron on lam_1.  Every integer point
        of the polyhedron lies over an integer lam_1 in that range, and
        for each such lam_1 the k = 1 test decides lam_2.  An empty range is a no;
        a range unbounded on one side makes the polyhedron unbounded, so
        its recession cone {K lam >= 0} holds some lam != 0, and K lam is a
        nonzero x >= 0 with sum x_i g_i = 0: M has units, and the search
        decides, as it does for every k >= 3.
    """
    return _contains(monoid, vector_of(monoid.ambient, elem))


def _contains(monoid, vec):
    """``contains`` of a canonical lift tuple of ``monoid.ambient``, which
    the caller has reduced already (trusted)."""
    if not any(vec) or vec in monoid._vectors or not monoid.ambient.free_rank:
        return True
    verdict = _lattice_verdict(monoid._lattice, vec)
    if verdict is None:
        return next(xl._nonneg_solutions(monoid._system, vec), None) is not None
    return verdict


def expression(monoid, elem):
    """The lex-smallest exponent vector writing ``elem`` in the generators,
    or None when the element is not in the monoid."""
    sol = min(xl._nonneg_solutions(
        monoid._system, vector_of(monoid.ambient, elem)), default=None)
    if sol is None:
        return None
    return sol[:len(monoid.generators)]


# ---------------------------------------------------------------------------
# Grothendieck group, integralization, saturation


def grothendieck_group(pres):
    """Group completion of a presented monoid.

    Z^ngens modulo the lattice spanned by u - v over the relations; returns
    (group, images of the generators).
    """
    cols = [tuple(u[i] - v[i] for i in range(pres.ngens))
            for (u, v) in pres.relations]
    group, proj = xl._group_from_relations(pres.ngens, cols)
    images = tuple(_element(group, group._reduce(col))
                   for col in xl.mat_columns(proj))
    return group, images


def integralize(pres):
    """The universal integral quotient: the image of the presented monoid in
    its Grothendieck group, as an affine monoid."""
    group, images = grothendieck_group(pres)
    # the images of the standard basis under the surjective projection
    return AffineMonoid._spanning(group, [im.as_vector() for im in images])


def presentation_of(monoid):
    """A presentation with the same integralization as ``monoid``.

    Relations are the nonzero columns spanning the generator relation
    lattice {x in Z^gens : sum x_i g_i = 0 in the ambient group}, split into
    positive and negative parts; the congruence they generate may be smaller
    than the full congruence of the monoid, but the Grothendieck group and
    hence the integralization agree.  The columns are the kernel of the
    monoid's ``_lattice``.
    """
    return MonoidPresentation(len(monoid.generators), tuple(
        (tuple(max(x, 0) for x in col), tuple(max(-x, 0) for x in col))
        for col in monoid._lattice[1] if any(col)))


def saturate(monoid):
    """The saturation {g in gp(M) : k g in M for some k >= 1}.

    Torsion elements of the ambient group are always divisible into the
    monoid (k t = 0 in M), so the saturation is the full preimage of the
    saturation of the torsion-free projection; the latter is the cone of the
    free parts intersected with the free lattice.
    """
    amb = monoid.ambient
    r, t = amb.free_rank, len(amb.invariant_factors)
    torsion = [tuple(int(i == r + j) for i in range(r + t)) for j in range(t)]
    # the saturation contains M, so gp(M) <= gp(sat M) <= gp(M); at free
    # rank 0 the cone is {0}, with no lattice generators
    lattice = [vec + (0,) * t
               for vec in cc.cone_lattice_generators(monoid._cone)]
    sat = AffineMonoid._spanning(amb, lattice + torsion)
    # it keeps the cone C: C meet Z^r generates C, and torsion adds 0
    object.__setattr__(sat, "_cone", monoid._cone)
    return sat


# ---------------------------------------------------------------------------
# units, sharpening, minimal generators


def units(monoid):
    """Generators of the unit group M^x = {g in M : -g in M}: those on whose
    free part every facet normal of the cone C of free parts vanishes, which
    at free rank 0 (no cone, a finite group) is all of them.

    A sum of monoid elements is zero only when every summand is invertible,
    so the unit group is generated by the invertible generators, and it is
    the minimal face of M (Ogus, *Lectures on Logarithmic Algebraic
    Geometry*, I.1.4).  If g is a unit, free(g) and -free(g) both lie in C,
    so every facet normal vanishes on free(g).  Conversely, the generators
    G_0 on whose free parts the normals all vanish generate the minimal face
    of C, its lineality space C ∩ (-C) (Fulton, *Introduction to Toric
    Varieties*, §1.2).  So for g in G_0, -free(g) = sum q_h free(h) over h in
    G_0 with rationals q_h >= 0.  Clearing denominators, N g + sum c_h h has
    free part 0 for integers N >= 1 and c_h >= 0, so it is torsion and e
    times it is 0, e the exponent of the torsion subgroup.  That writes 0 as
    a sum in which g has coefficient eN >= 1, hence
    -g = (eN - 1) g + sum e c_h h lies in M.  No membership test is run.
    """
    normals = monoid._cone.facet_normals if monoid.ambient.free_rank else ()
    return tuple(sorted(g for g in monoid.generators
                        if not any(cc.vdot(n, g.free) for n in normals)))


def sharpen(monoid):
    """The sharp quotient M / M^x, with a lex-sorted minimal generating set.

    Each image g of a generator, in lex order, is dropped when it lies in
    the monoid of the rest, the images kept and those after it: in the sharp
    M / M^x the survivors are the irreducibles.  As every image lies in the
    group of g and the rest, g is kept when the rest does not generate the
    quotient (``xl._relation_lattice`` is None); else their lattice decides
    as in ``contains``, bounded at k = 2 as their monoid is sharp.
    """
    quot, proj = xl.quotient_presentation(
        monoid.ambient, [u.as_vector() for u in units(monoid)])
    current = sorted(_distinct_nonzero(quot._reduce(xl.apply(proj, v))
                                       for v in monoid._vectors))
    keep = []
    for i, g in enumerate(current):
        rest = keep + current[i + 1:]
        lattice = xl._relation_lattice(xl._decompose_among(quot, rest), len(rest))
        found = lattice is not None and _lattice_verdict(lattice, g)
        if found is None:
            found = next(xl._nonneg_solutions(_membership_system(quot, rest), g),
                         None) is not None
        if not found:
            keep.append(g)
    # images of a spanning set under a surjection, less those the rest generate
    return AffineMonoid._spanning(quot, keep)


def characteristic_rank(monoid):
    """The rank of the sharpened monoid's Grothendieck group, M^gp / M^x:
    the group ``sharpen`` presents, without its scan for irreducibles."""
    return xl.quotient_presentation(
        monoid.ambient, [u.as_vector() for u in units(monoid)])[0].free_rank


# ---------------------------------------------------------------------------
# predicates


@dataclass(frozen=True)
class MonoidPredicates:
    is_sharp: bool
    is_saturated: bool
    is_toric: bool
    is_free: bool


def is_saturated(monoid):
    # a monoid of units is a group, M = gp(M), so it is saturated
    if len(units(monoid)) == len(monoid.generators):
        return True
    sat = saturate(monoid)
    return all(_contains(monoid, v) for v in sat._vectors)


def predicates(monoid):
    """Structural predicates: sharp, saturated, toric, free.

    Toric = sharp + saturated + torsion-free Grothendieck group.  Free means
    the sharpening is N^k: its minimal generators, which ``sharpen`` keeps
    as its generators, form a lattice basis.
    """
    sharp = not units(monoid)
    saturated = is_saturated(monoid)
    toric = sharp and saturated and not monoid.ambient.invariant_factors
    sharpened = sharpen(monoid)
    free = not sharpened.ambient.invariant_factors and \
        len(sharpened.generators) == sharpened.ambient.free_rank
    return MonoidPredicates(is_sharp=sharp, is_saturated=saturated,
                            is_toric=toric, is_free=free)


def is_toric(monoid):
    """Sharp, saturated, torsion-free: ``predicates(monoid).is_toric``
    without the ``sharpen`` that ``predicates`` runs for ``is_free``."""
    return not units(monoid) and not monoid.ambient.invariant_factors and \
        is_saturated(monoid)


# ---------------------------------------------------------------------------
# prime spectrum


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal of an affine monoid, recorded by its complement face:
    the set of generator indices spanning F, with ideal = M \\ F."""

    complement_face: frozenset

    def sorted_indices(self):
        return tuple(sorted(self.complement_face))


def spec(monoid):
    """The prime spectrum: one prime per face of the monoid.

    Faces of a fine monoid biject with faces of the rational cone spanned by
    the free parts of its generators (torsion generators sit in every face,
    units span the lineality space), so each face is the set of generator
    indices whose free part it contains: ``cone_complex.face_sets`` of the
    free parts and the cone's facet normals.  Free rank 0 (a finite group)
    has no facets and one prime, the empty ideal.  Result is sorted by (face
    size, indices).  The smallest face is the unit group: its generators are
    ``units``.
    """
    normals = monoid._cone.facet_normals if monoid.ambient.free_rank else ()
    free = [g.free for g in monoid.generators]
    out = [PrimeIdeal(complement_face=s) for s in cc.face_sets(free, normals)]
    out.sort(key=lambda p: (len(p.complement_face), p.sorted_indices()))
    return out


# ---------------------------------------------------------------------------
# pushouts and fiber products


def _stack_group_presentation(a, b):
    """Relation columns of the direct sum a (+) b in concatenated lift
    coordinates (a's lift coords first)."""
    return [c + (0,) * b.lift_dim for c in a.relation_columns()] + \
        [(0,) * a.lift_dim + c for c in b.relation_columns()]


@dataclass(frozen=True, eq=False)
class PushoutResult:
    """A fine pushout with its structure maps.

    ``left_images[i]`` / ``right_images[j]`` are the images of the i-th
    generator of M / j-th generator of N; the matrices act on lift
    coordinates of the respective ambient groups.
    """

    monoid: AffineMonoid
    left_images: tuple
    right_images: tuple
    left_matrix: xl.IntMatrix
    right_matrix: xl.IntMatrix


def _require_same_source(f, g):
    if f.source != g.source:
        raise InputError("pushout legs must share their source monoid")


def pushout_with_maps(f, g):
    """Fine pushout M (+)_L N with structure data.

    The underlying group is Coker(L^gp -> M^gp (+) N^gp), and the monoid is
    generated by the images of the M- and N-generators; this is the
    integralization of the amalgamated sum.
    """
    _require_same_source(f, g)
    m_amb, n_amb = f.target.ambient, g.target.ambient
    lm, ln = m_amb.lift_dim, n_amb.lift_dim
    cols = _stack_group_presentation(m_amb, n_amb)
    for fc, gc in zip(xl.mat_columns(f.matrix), xl.mat_columns(g.matrix)):
        cols.append(fc + tuple(-x for x in gc))
    group, proj = xl._group_from_relations(lm + ln, cols)

    def images(vectors):
        return [group._reduce(xl.apply(proj, v)) for v in vectors]

    left = images(m + (0,) * ln for m in f.target._vectors)
    right = images((0,) * lm + n for n in g.target._vectors)
    # images of spanning sets of M^gp and N^gp under the surjective proj
    return PushoutResult(
        monoid=AffineMonoid._spanning(group, left + right),
        left_images=tuple(_element(group, v) for v in left),
        right_images=tuple(_element(group, v) for v in right),
        left_matrix=xl.IntMatrix(tuple(r[:lm] for r in proj.rows), lm),
        right_matrix=xl.IntMatrix(tuple(r[lm:] for r in proj.rows), ln))


def _presentation_pushout(f, g):
    _require_same_source(f, g)
    m_mon, n_mon = f.target, g.target
    p, q = len(m_mon.generators), len(n_mon.generators)
    rels = [(u + (0,) * q, v + (0,) * q)
            for u, v in presentation_of(m_mon).relations]
    rels += [((0,) * p + u, (0,) * p + v)
             for u, v in presentation_of(n_mon).relations]
    for l in f.source._vectors:
        u = expression(m_mon, xl.apply(f.matrix, l))
        v = expression(n_mon, xl.apply(g.matrix, l))
        if u is None or v is None:
            raise DomainError("leg image lies outside the target monoid")
        rels.append((u + (0,) * q, (0,) * p + v))
    return MonoidPresentation(p + q, tuple(rels))


def pushout(f, g, mode):
    """Pushout of M <- L -> N in one of three modes.

    ``presentation``: the symbolic amalgam (generators of M and N; relations
    of each side plus gluing relations f(l) = g(l)); no equality decision is
    offered.  ``fine``: the integral pushout, computed inside
    Coker(L^gp -> M^gp (+) N^gp).  ``fs``: the fine pushout followed by
    saturation.
    """
    if mode == "presentation":
        return _presentation_pushout(f, g)
    if mode == "fine":
        return pushout_with_maps(f, g).monoid
    if mode == "fs":
        return saturate(pushout_with_maps(f, g).monoid)
    raise InputError(f"unknown pushout mode {mode!r}")


def fiber_product_generators(f, g):
    """Hilbert-basis generators of M x_L N = {(m, n) : f(m) = g(n)}.

    Solves the homogeneous system f(sum a_i m_i) - g(sum b_j n_j) = 0 over
    nonnegative exponents, the membership system of the images of f and the
    negated images of g, and maps the minimal solutions to element pairs.
    Every residue there is reduced into [0, f), so subtracting multiples of
    f is all the slack a zero sum needs.  Every solution pair is a
    nonnegative integer combination of the returned pairs.
    """
    if f.target != g.target:
        raise InputError("fiber product legs must share their target monoid")
    m_mon, n_mon = f.source, g.source
    amb = f.target.ambient
    a = _membership_system(amb, f._images + tuple(
        amb._neg(v) for v in g._images))
    p, q = len(m_mon._vectors), len(n_mon._vectors)
    pairs = dict.fromkeys(
        (_combination(m_mon.ambient, sol[:p], m_mon._vectors),
         _combination(n_mon.ambient, sol[p:p + q], n_mon._vectors))
        for sol in sorted(xl._minimal_solutions(xl._gram(a))))
    return [(_element(m_mon.ambient, m), _element(n_mon.ambient, n))
            for m, n in pairs]


def fiber_product(f, g):
    """The fiber product M x_L N as an affine monoid (re-presented so its
    ambient is its own Grothendieck group)."""
    return _fiber_monoid(f, g, fiber_product_generators(f, g))


def _fiber_monoid(f, g, pairs):
    """The monoid the ``fiber_product_generators`` pairs of f and g generate
    in the product of the source groups, re-presented on their span."""
    m_amb, n_amb = f.source.ambient, g.source.ambient
    cols = _stack_group_presentation(m_amb, n_amb)
    group, proj = xl._group_from_relations(m_amb.lift_dim + n_amb.lift_dim, cols)
    stacked = [xl.apply(proj, m_el.as_vector() + n_el.as_vector())
               for m_el, n_el in pairs]
    return span_submonoid(group, stacked)[0]
