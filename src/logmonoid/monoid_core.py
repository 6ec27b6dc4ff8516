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
private attributes, the membership system that ``contains`` and
``expression`` solve against and the cone of its free parts.

Membership has one rule each way in.  ``element_of`` is the only place
where a lift vector or a ``MonoidElement`` becomes a canonical element of
an ambient group: it reduces the torsion residues and refuses an element
that does not split as the ambient does.  ``contains`` answers zero and the
generators by definition and solves only for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, InputError
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
        object.__setattr__(self, "free", tuple(int(x) for x in self.free))
        object.__setattr__(self, "torsion", tuple(int(x) for x in self.torsion))

    def as_vector(self):
        return self.free + self.torsion

    @property
    def is_zero(self):
        return all(x == 0 for x in self.as_vector())


def _lift(ambient, elem):
    """The lift vector of a MonoidElement of ``ambient``, which must split
    into free part and torsion as the ambient does."""
    if len(elem.free) != ambient.free_rank or \
            len(elem.torsion) != len(ambient.invariant_factors):
        raise InputError("element does not live in the ambient group")
    return elem.as_vector()


def element_of(ambient, elem):
    """The canonical MonoidElement of ``ambient`` for a lift vector or for a
    MonoidElement, which must split into free part and torsion as it does."""
    if isinstance(elem, MonoidElement):
        elem = _lift(ambient, elem)
    vec = ambient.reduce_vector(elem)
    return MonoidElement(free=vec[:ambient.free_rank], torsion=vec[ambient.free_rank:])


def exponent_sum(ambient, exponents, elements):
    """The element sum_i exponents[i] * elements[i] of ``ambient``."""
    acc = [0] * ambient.lift_dim
    for c, el in zip(exponents, elements):
        vec = _lift(ambient, el)
        if c:
            acc = [x + c * y for x, y in zip(acc, vec, strict=True)]
    return element_of(ambient, acc)


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
        if self.ngens < 0:
            raise InputError("negative generator count")
        rels = []
        for rel in self.relations:
            u, v = rel
            u = tuple(int(x) for x in u)
            v = tuple(int(x) for x in v)
            if len(u) != self.ngens or len(v) != self.ngens:
                raise InputError("relation exponent vector has wrong length")
            if any(x < 0 for x in u + v):
                raise InputError("relation exponents must be nonnegative")
            rels.append((u, v))
        object.__setattr__(self, "relations", tuple(rels))


# ---------------------------------------------------------------------------
# affine monoids


def _distinct_nonzero(elements):
    """The elements in order, with zero and repeats dropped."""
    seen = set()
    out = []
    for e in elements:
        if not e.is_zero and e not in seen:
            seen.add(e)
            out.append(e)
    return tuple(out)


@dataclass(frozen=True)
class AffineMonoid:
    """A fine monoid: finitely many generators inside their Grothendieck group.

    Invariant: the ambient group is exactly the group generated by the
    generators, so ``ambient`` is the Grothendieck group of the monoid.
    Use ``AffineMonoid.from_vectors`` for generators that span a proper
    subgroup of the written coordinates; it re-presents the ambient.

    The public constructor reduces every generator and checks the invariant.
    The constructions of this package use ``_spanning`` instead, where the
    invariant holds by construction (see the module docstring).  The private
    cached attributes ``_system`` and ``_cone`` are built on first use;
    equality and hashing see only the two fields.
    """

    ambient: xl.FgAbelianGroup
    generators: tuple = ()

    def __post_init__(self):
        gens = _distinct_nonzero(
            element_of(self.ambient, e) for e in self.generators)
        object.__setattr__(self, "generators", gens)
        quot, _ = xl.quotient_presentation(
            self.ambient, [g.as_vector() for g in gens])
        if not quot.is_trivial:
            raise InputError(
                "generators do not generate the ambient group; "
                "use AffineMonoid.from_vectors to re-present the span")

    @classmethod
    def _spanning(cls, ambient, generators):
        """The monoid generated by canonical elements of ``ambient`` that are
        known to generate it as a group.

        Trusted: it only drops zeros and repeats, and neither reduces the
        elements nor checks the span.  Each caller states why the span holds.
        """
        monoid = object.__new__(cls)
        object.__setattr__(monoid, "ambient", ambient)
        object.__setattr__(monoid, "generators", _distinct_nonzero(generators))
        return monoid

    @cached_property
    def _system(self):
        """The membership system of the generators (``_membership_system``)."""
        return _membership_system(self.ambient, self.generators)

    @cached_property
    def _cone(self):
        """The rational cone in Q^r spanned by the free parts of the
        generators: the cone of the torsion-free projection of the monoid."""
        from . import cone_complex as cc

        return cc.RationalCone.from_rays([g.free for g in self.generators],
                                         self.ambient.free_rank)

    @classmethod
    def from_vectors(cls, vectors, torsion_orders=()):
        """The monoid generated by the given vectors of Z^r (+) Z/f_1 (+) ...

        The ambient group of the result is the subgroup the vectors generate,
        re-presented in invariant-factor form; coordinates change accordingly.
        """
        torsion_orders = tuple(int(f) for f in torsion_orders)
        vectors = [tuple(int(x) for x in v) for v in vectors]
        if not vectors:
            return trivial_monoid()
        width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise InputError("generator vectors have mixed lengths")
        if width < len(torsion_orders):
            raise InputError("more torsion orders than coordinates")
        host = xl.FgAbelianGroup(width - len(torsion_orders), torsion_orders)
        monoid, _ = span_submonoid(host, vectors)
        return monoid

    @property
    def zero(self):
        return element_of(self.ambient, self.ambient.zero())

    def element(self, vec):
        return element_of(self.ambient, vec)

    def add(self, a, b):
        amb = self.ambient
        return element_of(amb, amb.add(_lift(amb, a), _lift(amb, b)))

    def neg(self, a):
        return element_of(self.ambient, self.ambient.neg(_lift(self.ambient, a)))

    def sub(self, a, b):
        amb = self.ambient
        return element_of(amb, amb.sub(_lift(amb, a), _lift(amb, b)))

    def contains(self, elem):
        """Membership: is ``elem`` a nonnegative combination of generators?"""
        return contains(self, elem)

    def same_submonoid(self, other):
        """Subset equality inside a shared ambient group."""
        if self.ambient != other.ambient:
            return False
        return all(other.contains(g) for g in self.generators) and \
            all(self.contains(g) for g in other.generators)


def span_submonoid(host, vectors):
    """Re-presents the monoid generated by lift vectors of ``host``.

    Returns (monoid, images): the ambient of ``monoid`` is the subgroup of
    ``host`` generated by the vectors (invariant-factor form), and
    ``images[i]`` is the i-th input vector in the new coordinates.  When the
    vectors generate all of ``host`` the coordinates are kept unchanged.
    """
    sub, images = xl.subgroup_presentation(host, vectors)
    elems = [element_of(sub, v) for v in images]
    # the subgroup is presented on these very elements as generators
    return AffineMonoid._spanning(sub, elems), elems


def free_monoid(n):
    """N^n with its standard basis."""
    amb = xl.FgAbelianGroup(n, ())
    gens = [element_of(amb, tuple(1 if i == j else 0 for j in range(n)))
            for i in range(n)]
    # the standard basis spans Z^n
    return AffineMonoid._spanning(amb, gens)


def trivial_monoid():
    # the empty set spans the trivial group
    return AffineMonoid._spanning(xl.FgAbelianGroup(0, ()), ())


# ---------------------------------------------------------------------------
# membership


def _membership_system(ambient, gen_elements):
    """Columns of the generator exponent system, torsion slack included.

    For ambient Z^r (+) Z/f_1 (+) ... the system is
        [free parts          0  ]
        [torsion residues  -diag(f)]
    acting on (exponents, slack) >= 0; residues are reduced into [0, f), so a
    target with reduced residues is hit iff the element lies in the monoid.
    """
    cols = [g.as_vector() for g in gen_elements] + \
        ambient.relation_columns(signs=(-1,))
    return xl.intmat_from_columns(cols, nrows=ambient.lift_dim)


def contains(monoid, elem):
    """Whether ``elem`` (MonoidElement or lift vector) lies in ``monoid``:
    zero and the generators by definition, anything else by one solve."""
    elem = element_of(monoid.ambient, elem)
    if elem.is_zero or elem in monoid.generators:
        return True
    return xl.has_nonneg_solution(monoid._system, elem.as_vector())


def expression(monoid, elem):
    """The lex-smallest exponent vector writing ``elem`` in the generators,
    or None when the element is not in the monoid."""
    sol = xl.solve_nonneg(monoid._system,
                          element_of(monoid.ambient, elem).as_vector())
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
    group, proj = xl.group_from_relations(pres.ngens, cols)
    images = tuple(element_of(group, col) for col in xl.mat_columns(proj))
    return group, images


def integralize(pres):
    """The universal integral quotient: the image of the presented monoid in
    its Grothendieck group, as an affine monoid."""
    group, images = grothendieck_group(pres)
    # the images of the standard basis under the surjective projection
    return AffineMonoid._spanning(group, images)


def monoid_relation_lattice(monoid):
    """Columns spanning {x in Z^gens : sum x_i g_i = 0 in the ambient group}.

    These are the group-level relations among the generators; as congruence
    relations (x^+, x^-) they present a monoid with the same integralization.
    """
    return [col for col in xl._relations_among(
        monoid.ambient, [g.as_vector() for g in monoid.generators]) if any(col)]


def presentation_of(monoid):
    """A presentation with the same integralization as ``monoid``.

    Relations are the generator relation lattice split into positive and
    negative parts; the congruence they generate may be smaller than the full
    congruence of the monoid, but the Grothendieck group and hence the
    integralization agree.
    """
    rels = []
    for col in monoid_relation_lattice(monoid):
        u = tuple(max(x, 0) for x in col)
        v = tuple(max(-x, 0) for x in col)
        rels.append((u, v))
    return MonoidPresentation(len(monoid.generators), tuple(rels))


def saturate(monoid):
    """The saturation {g in gp(M) : k g in M for some k >= 1}.

    Torsion elements of the ambient group are always divisible into the
    monoid (k t = 0 in M), so the saturation is the full preimage of the
    saturation of the torsion-free projection; the latter is the cone of the
    free parts intersected with the free lattice.
    """
    from . import cone_complex as cc

    amb = monoid.ambient
    r = amb.free_rank
    tors_gens = []
    for j in range(len(amb.invariant_factors)):
        e = [0] * amb.lift_dim
        e[r + j] = 1
        tors_gens.append(element_of(amb, tuple(e)))
    # below, the saturation contains M, so gp(M) <= gp(sat M) <= gp(M)
    if r == 0:
        return AffineMonoid._spanning(amb, tors_gens)
    lattice_gens = cc.cone_lattice_generators(monoid._cone)
    new_gens = [element_of(amb, vec + (0,) * len(amb.invariant_factors))
                for vec in lattice_gens]
    return AffineMonoid._spanning(amb, new_gens + tors_gens)


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
    from . import cone_complex as cc

    normals = monoid._cone.facet_normals \
        if monoid.ambient.free_rank else ()
    out = [g for g in monoid.generators
           if not any(cc.vdot(n, g.free) for n in normals)]
    return tuple(sorted(out))


def sharpen(monoid):
    """The sharp quotient M / M^x, with a lex-sorted minimal generating set."""
    quot, proj = xl.quotient_presentation(
        monoid.ambient, [u.as_vector() for u in units(monoid)])
    images = _distinct_nonzero(element_of(quot, xl.apply(proj, g.as_vector()))
                               for g in monoid.generators)
    # images of a spanning set under a surjection; M/M^x is sharp, so the
    # scan keeps a generating set of the same monoid
    return AffineMonoid._spanning(quot, _irreducibles(quot, images))


def _irreducibles(ambient, generators):
    """The minimal generating set of the monoid that distinct nonzero
    ``generators`` generate in ``ambient``, which the caller knows is sharp.

    Deterministic: generators are scanned in lexicographic order and removed
    when expressible by the remaining ones; for a sharp monoid the survivors
    are exactly the irreducible elements, independent of scan order.
    """
    current = sorted(generators)
    keep = []
    for i, g in enumerate(current):
        rest = keep + current[i + 1:]
        if not xl.has_nonneg_solution(
                _membership_system(ambient, rest), g.as_vector()):
            keep.append(g)
    return tuple(keep)


def characteristic_rank(monoid):
    """The rank of the sharpened monoid's Grothendieck group."""
    return sharpen(monoid).ambient.free_rank


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
    return all(contains(monoid, g) for g in sat.generators)


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
    return predicates(monoid).is_toric


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
    from . import cone_complex as cc

    normals = monoid._cone.facet_normals \
        if monoid.ambient.free_rank else ()
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
    m_amb = f.target.ambient
    n_amb = g.target.ambient
    lm, ln = m_amb.lift_dim, n_amb.lift_dim
    cols = _stack_group_presentation(m_amb, n_amb)
    for fc, gc in zip(xl.mat_columns(f.matrix), xl.mat_columns(g.matrix)):
        cols.append(fc + tuple(-x for x in gc))
    group, proj = xl.group_from_relations(lm + ln, cols)

    def image(vec):
        return element_of(group, xl.apply(proj, vec))

    left = tuple(image(m.as_vector() + (0,) * ln) for m in f.target.generators)
    right = tuple(image((0,) * lm + n.as_vector()) for n in g.target.generators)
    # images of spanning sets of M^gp and N^gp under the surjective proj
    monoid = AffineMonoid._spanning(group, left + right)
    proj_cols = xl.mat_columns(proj)
    return PushoutResult(
        monoid=monoid, left_images=left, right_images=right,
        left_matrix=xl.intmat_from_columns(proj_cols[:lm], nrows=group.lift_dim),
        right_matrix=xl.intmat_from_columns(proj_cols[lm:], nrows=group.lift_dim))


def _presentation_pushout(f, g):
    _require_same_source(f, g)
    m_mon, n_mon = f.target, g.target
    p, q = len(m_mon.generators), len(n_mon.generators)
    rels = [(u + (0,) * q, v + (0,) * q)
            for u, v in presentation_of(m_mon).relations]
    rels += [((0,) * p + u, (0,) * p + v)
             for u, v in presentation_of(n_mon).relations]
    for l in f.source.generators:
        img_m = element_of(m_mon.ambient, xl.apply(f.matrix, l.as_vector()))
        img_n = element_of(n_mon.ambient, xl.apply(g.matrix, l.as_vector()))
        u = expression(m_mon, img_m)
        v = expression(n_mon, img_n)
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

    Solves the homogeneous system f(sum a_i m_i) = g(sum b_j n_j) over
    nonnegative exponents (torsion rows get sign-split slack columns) and
    maps the minimal solutions to element pairs.  Every solution pair is a
    nonnegative integer combination of the returned pairs.
    """
    if f.target != g.target:
        raise InputError("fiber product legs must share their target monoid")
    l_amb = f.target.ambient
    m_mon, n_mon = f.source, g.source
    cols = []
    for m in m_mon.generators:
        cols.append(l_amb.reduce_vector(xl.apply(f.matrix, m.as_vector())))
    for n in n_mon.generators:
        cols.append(l_amb.neg(l_amb.reduce_vector(xl.apply(g.matrix, n.as_vector()))))
    cols.extend(l_amb.relation_columns(signs=(1, -1)))
    a = xl.intmat_from_columns(cols, nrows=l_amb.lift_dim)
    p, q = len(m_mon.generators), len(n_mon.generators)
    pairs = []
    seen = set()
    for sol in sorted(xl.minimal_nonneg_solutions(a)):
        am = sol[:p]
        bn = sol[p:p + q]
        if not any(am) and not any(bn):
            continue
        m_el = exponent_sum(m_mon.ambient, am, m_mon.generators)
        n_el = exponent_sum(n_mon.ambient, bn, n_mon.generators)
        if (m_el, n_el) not in seen:
            seen.add((m_el, n_el))
            pairs.append((m_el, n_el))
    return pairs


def fiber_product(f, g):
    """The fiber product M x_L N as an affine monoid (re-presented so its
    ambient is its own Grothendieck group)."""
    pairs = fiber_product_generators(f, g)
    if not pairs:
        return trivial_monoid()
    m_amb = f.source.ambient
    n_amb = g.source.ambient
    cols = _stack_group_presentation(m_amb, n_amb)
    group, proj = xl.group_from_relations(m_amb.lift_dim + n_amb.lift_dim, cols)
    stacked = []
    for (m_el, n_el) in pairs:
        vec = xl.apply(proj, m_el.as_vector() + n_el.as_vector())
        stacked.append(group.reduce_vector(vec))
    monoid, _ = span_submonoid(group, stacked)
    return monoid
