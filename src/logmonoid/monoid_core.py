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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def element_of(ambient, vec):
    """Builds the canonical MonoidElement of ``ambient`` from a lift vector."""
    vec = ambient.reduce_vector(vec)
    return MonoidElement(free=vec[:ambient.free_rank], torsion=vec[ambient.free_rank:])


def exponent_sum(ambient, exponents, elements):
    """The element sum_i exponents[i] * elements[i] of ``ambient``."""
    acc = [0] * ambient.lift_dim
    for c, el in zip(exponents, elements):
        if c:
            acc = [x + c * y for x, y in zip(acc, el.as_vector(), strict=True)]
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


def _clean_generators(ambient, elements):
    """Canonical generator tuple: reduced, deduplicated, zero dropped."""
    seen = set()
    out = []
    for e in elements:
        e = element_of(ambient, e.as_vector() if isinstance(e, MonoidElement) else e)
        if e.is_zero or e in seen:
            continue
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
    """

    ambient: xl.FgAbelianGroup
    generators: tuple = ()

    def __post_init__(self):
        gens = _clean_generators(self.ambient, self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if len(g.free) != self.ambient.free_rank or \
                    len(g.torsion) != len(self.ambient.invariant_factors):
                raise InputError("generator does not live in the ambient group")
        quot, _ = xl.quotient_presentation(
            self.ambient, [g.as_vector() for g in gens])
        if not quot.is_trivial:
            raise InputError(
                "generators do not generate the ambient group; "
                "use AffineMonoid.from_vectors to re-present the span")

    @classmethod
    def from_vectors(cls, vectors, torsion_orders=()):
        """The monoid generated by the given vectors of Z^r (+) Z/f_1 (+) ...

        The ambient group of the result is the subgroup the vectors generate,
        re-presented in invariant-factor form; coordinates change accordingly.
        """
        torsion_orders = tuple(int(f) for f in torsion_orders)
        vectors = [tuple(int(x) for x in v) for v in vectors]
        if not vectors:
            return cls(xl.FgAbelianGroup(0, ()), ())
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
        return element_of(self.ambient, self.ambient.add(a.as_vector(), b.as_vector()))

    def neg(self, a):
        return element_of(self.ambient, self.ambient.neg(a.as_vector()))

    def sub(self, a, b):
        return element_of(self.ambient, self.ambient.sub(a.as_vector(), b.as_vector()))

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
    vectors = [host.reduce_vector(v) for v in vectors]
    quot, _ = xl.quotient_presentation(host, vectors)
    if quot.is_trivial:
        elems = [element_of(host, v) for v in vectors]
        return AffineMonoid(host, elems), elems
    sub, images = xl.subgroup_presentation(host, vectors)
    elems = [element_of(sub, v) for v in images]
    return AffineMonoid(sub, elems), elems


def free_monoid(n):
    """N^n with its standard basis."""
    amb = xl.FgAbelianGroup(n, ())
    gens = [element_of(amb, tuple(1 if i == j else 0 for j in range(n)))
            for i in range(n)]
    return AffineMonoid(amb, gens)


def trivial_monoid():
    return AffineMonoid(xl.FgAbelianGroup(0, ()), ())


def group_monoid(group):
    """A finitely generated abelian group viewed as a monoid (all units)."""
    gens = []
    for i in range(group.free_rank):
        e = [0] * group.lift_dim
        e[i] = 1
        gens.append(tuple(e))
        gens.append(tuple(-x for x in e))
    for j in range(len(group.invariant_factors)):
        e = [0] * group.lift_dim
        e[group.free_rank + j] = 1
        gens.append(tuple(e))
    return AffineMonoid(group, [element_of(group, g) for g in gens])


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


def _in_span_nonneg(ambient, gen_elements, target):
    a = _membership_system(ambient, gen_elements)
    return xl.has_nonneg_solution(a, ambient.reduce_vector(target.as_vector()))


def contains(monoid, elem):
    """Whether ``elem`` (MonoidElement or lift vector) lies in ``monoid``."""
    if not isinstance(elem, MonoidElement):
        elem = element_of(monoid.ambient, elem)
    if len(elem.free) != monoid.ambient.free_rank or \
            len(elem.torsion) != len(monoid.ambient.invariant_factors):
        raise InputError("element does not live in the ambient group")
    return _in_span_nonneg(monoid.ambient, monoid.generators, elem)


def expression(monoid, elem):
    """The lex-smallest exponent vector writing ``elem`` in the generators,
    or None when the element is not in the monoid."""
    if not isinstance(elem, MonoidElement):
        elem = element_of(monoid.ambient, elem)
    a = _membership_system(monoid.ambient, monoid.generators)
    sol = xl.solve_nonneg(a, monoid.ambient.reduce_vector(elem.as_vector()))
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
    return AffineMonoid(group, images)


def monoid_relation_lattice(monoid):
    """Columns spanning {x in Z^gens : sum x_i g_i = 0 in the ambient group}.

    These are the group-level relations among the generators; as congruence
    relations (x^+, x^-) they present a monoid with the same integralization.
    """
    gens = monoid.generators
    cols = [g.as_vector() for g in gens] + monoid.ambient.relation_columns()
    mat = xl.intmat_from_columns(cols, nrows=monoid.ambient.lift_dim)
    k = len(gens)
    out = []
    for col in xl.mat_columns(xl.kernel_basis(mat)):
        col = col[:k]
        if any(col):
            out.append(col)
    return out


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
    if r == 0:
        return AffineMonoid(amb, tuple(tors_gens))
    free_vecs = [g.free for g in monoid.generators]
    lattice_gens = cc.cone_lattice_generators(free_vecs, r)
    new_gens = [element_of(amb, vec + (0,) * len(amb.invariant_factors))
                for vec in lattice_gens]
    return AffineMonoid(amb, tuple(new_gens) + tuple(tors_gens))


# ---------------------------------------------------------------------------
# units, sharpening, minimal generators


def units(monoid):
    """Generators of the unit group M^x = {g in M : -g in M}.

    A sum of monoid elements is zero only when every summand is invertible,
    so the unit group is generated by the invertible generators.
    """
    out = [g for g in monoid.generators if contains(monoid, monoid.neg(g))]
    return tuple(sorted(out))


def _sharpen_with_projection(monoid):
    unit_gens = units(monoid)
    quot, proj = xl.quotient_presentation(
        monoid.ambient, [u.as_vector() for u in unit_gens])

    def project(elem):
        return element_of(quot, xl.apply(proj, elem.as_vector()))

    images = [project(g) for g in monoid.generators]
    sharp = AffineMonoid(quot, images)
    reduced = minimal_generators(sharp)
    return AffineMonoid(quot, reduced), project, unit_gens


def sharpen(monoid):
    """The sharp quotient M / M^x, with a lex-sorted minimal generating set."""
    sharp, _, _ = _sharpen_with_projection(monoid)
    return sharp


def minimal_generators(monoid):
    """The unique minimal generating set of a sharp affine monoid.

    Deterministic: generators are scanned in lexicographic order and removed
    when expressible by the remaining ones; for a sharp monoid the survivors
    are exactly the irreducible elements, independent of scan order.
    """
    if units(monoid):
        raise DomainError("minimal generating sets are defined for sharp monoids")
    current = sorted(monoid.generators)
    keep = []
    pending = list(current)
    for i, g in enumerate(current):
        rest = keep + pending[i + 1:]
        if not _in_span_nonneg(monoid.ambient, rest, g):
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
    sat = saturate(monoid)
    return all(contains(monoid, g) for g in sat.generators)


def predicates(monoid):
    """Structural predicates: sharp, saturated, toric, free.

    Toric = sharp + saturated + torsion-free Grothendieck group.  Free means
    the sharpening is N^k: its minimal generators form a lattice basis.
    """
    sharp = not units(monoid)
    saturated = is_saturated(monoid)
    toric = sharp and saturated and not monoid.ambient.invariant_factors
    sharpened = sharpen(monoid)
    if sharpened.ambient.invariant_factors:
        free = False
    else:
        free = len(minimal_generators(sharpened)) == sharpened.ambient.free_rank
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
    units span the lineality space), so each cone face pulls back to the set
    of generator indices whose free part it contains.  Result is sorted by
    (face size, indices).
    """
    from . import cone_complex as cc

    r = monoid.ambient.free_rank
    if r == 0:
        # The monoid is a finite group: only the empty ideal.
        face = frozenset(range(len(monoid.generators)))
        return [PrimeIdeal(complement_face=face)]
    cone = cc.RationalCone.from_rays([g.free for g in monoid.generators], r)
    seen = set()
    out = []
    for f in cc.faces(cone):
        idx = frozenset(i for i, g in enumerate(monoid.generators)
                        if f.contains(g.free))
        if idx not in seen:
            seen.add(idx)
            out.append(PrimeIdeal(complement_face=idx))
    out.sort(key=lambda p: (len(p.complement_face), p.sorted_indices()))
    return out


# ---------------------------------------------------------------------------
# pushouts and fiber products


def _stack_group_presentation(a, b):
    """Relation columns of the direct sum a (+) b in concatenated lift
    coordinates (a's lift coords first)."""
    la, lb = a.lift_dim, b.lift_dim
    cols = []
    for c in a.relation_columns():
        cols.append(tuple(c) + (0,) * lb)
    for c in b.relation_columns():
        cols.append((0,) * la + tuple(c))
    return cols


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
    monoid = AffineMonoid(group, left + right)
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
