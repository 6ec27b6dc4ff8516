"""The checks behind ``--verify``, loaded only under that flag.

A command's handler returns the objects its checks need, and
``check_<command>`` (``-`` read as ``_``) takes them as its arguments.
It is a generator: it makes its checks in turn and yields the name of each
one that passed; a check that does not apply to the result, or costs too
much on it, is skipped and not named.  Each check tests a defining property
through the library's module attributes, independently of the fast path
that computed the result.  The cone helpers serve these checks and the
test oracles only.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from . import cone_complex as cc
from . import exact_lattice as xl
from . import log_hom_analysis as lha
from . import monoid_core as mc
from .errors import DomainError, InputError, InternalCheckError


def _check(cond, msg, name=None):
    """Raises unless ``cond`` holds; returns the name of the check."""
    if not cond:
        raise InternalCheckError(f"verification failed: {msg}")
    return name


def _verify_relations_hold(group, images, relations, what):
    for (u, v) in relations:
        _check(mc.exponent_sum(group, u, images) ==
               mc.exponent_sum(group, v, images),
               f"{what}: images violate the relation {list(u)} = {list(v)}")


def _searched(monoid, elem):
    """Membership by one Contejean-Devie search of the membership system,
    independent of the lattice verdict ``monoid_core.contains`` reads."""
    vec = mc.vector_of(monoid.ambient, elem)
    return next(xl._nonneg_solutions(monoid._system, vec), None) is not None


def _cone_units(monoid):
    """The invertible generators: those whose free part is orthogonal to the
    dual of the cone of free parts, whose rays and lineality double
    description finds afresh here; at free rank 0, every generator."""
    rays, lin = cc.extreme_rays_of_halfspaces(
        [h.free for h in monoid.generators], monoid.ambient.free_rank)
    return [g for g in monoid.generators
            if not any(cc.vdot(y, g.free) for y in (*rays, *lin))]


# ---------------------------------------------------------------------------
# cones by their constraints


def intersect(a, b):
    if a.dim != b.dim:
        raise InputError("cones live in different dimensions")
    return cc.cone_from_constraints(
        a.facet_normals + b.facet_normals,
        a.span_equations + b.span_equations, a.dim)


def face_by_normal(cone, normal):
    """The face cut out by one valid inequality: generated by the cone
    generators the normal vanishes on."""
    gens = [g for g in cone.generators if cc.vdot(normal, g) == 0]
    return cc.RationalCone.from_rays(gens, cone.dim)


def facets(cone):
    """Codimension-one faces, one per facet normal, canonically sorted."""
    out = {face_by_normal(cone, n) for n in cone.facet_normals}
    return sorted(out, key=cc.RationalCone.sort_key)


def smallest_containing_face(cone, vectors):
    """The smallest face of ``cone`` containing all the vectors."""
    for v in vectors:
        if not cone.contains(v):
            raise DomainError("vector outside the cone")
    tight = [n for n in cone.facet_normals
             if all(cc.vdot(n, v) == 0 for v in vectors)]
    return cc.cone_from_constraints(
        cone.facet_normals, cone.span_equations + tuple(tight), cone.dim)


def is_face_of(face, cone):
    """Whether ``face`` (a cone) is a face of ``cone``."""
    if not all(cone.contains(g) for g in face.generators):
        return False
    return face == smallest_containing_face(cone, face.generators)


# ---------------------------------------------------------------------------
# one check function per command, named check_<command>


def check_gp(group, images, pres):
    if pres is not None:
        _verify_relations_hold(group, images, pres.relations,
                               "grothendieck group")
        yield "relations"
    quot, _ = xl.quotient_presentation(group, [g.as_vector() for g in images])
    yield _check(quot.is_trivial, "generator images do not generate the group",
                 "generates")


def check_int(pres, monoid):
    _, images = mc.grothendieck_group(pres)
    _verify_relations_hold(monoid.ambient, images, pres.relations,
                           "integralization")
    yield "relations"


def check_sat(monoid, sat):
    yield _check(mc.is_saturated(sat), "saturation is not saturated",
                 "saturated")
    yield _check(all(_searched(sat, g) for g in monoid.generators),
                 "saturation does not contain the original monoid", "contains")


def check_sharpen(monoid, sharp, units):
    yield _check(not _cone_units(sharp), "sharpening still has units", "sharp")
    solved = _cone_units(monoid)
    yield _check(all(u in solved for u in units),
                 "a reported unit is not invertible", "invertible")
    yield _check(all(g in units for g in solved),
                 "an invertible generator is not reported", "all_units")


def check_spec(monoid, primes):
    sets = [frozenset(p.complement_face) for p in primes]
    yield _check(frozenset(range(len(monoid.generators))) in sets,
                 "the improper face (all generators) is missing", "improper")
    yield _check(len(set(sets)) == len(sets), "duplicate faces", "distinct")
    yield _check(all(a & b in sets for a in sets for b in sets),
                 "faces are not closed under intersection", "meets")
    # independent of the incidence rule: each set spans a face of the cone
    # by the constraint-based test and holds every generator in it, and the
    # facets of every listed face, found from its own normals, are listed,
    # so every face is (all lie below the improper one)
    free = [g.free for g in monoid.generators]
    r = monoid.ambient.free_rank
    cone = cc.RationalCone.from_rays(free, r)
    faces = {s: cc.RationalCone.from_rays([free[i] for i in s], r)
             for s in sets}
    yield _check(all(is_face_of(f, cone) for f in faces.values()),
                 "listed prime is not a face", "is_face")
    yield _check(all(i in s for s, f in faces.items()
                     for i, v in enumerate(free) if f.contains(v)),
                 "a face omits a generator it contains", "generators")
    yield _check(all(frozenset(i for i, v in enumerate(free) if g.contains(v))
                     in sets for f in faces.values() for g in facets(f)),
                 "a facet of a listed face is missing", "complete")


def check_props(pred, monoid):
    saturated = all(_searched(monoid, v) for v in mc.saturate(monoid)._vectors)
    # toric: no torsion, saturated and sharp, each found apart from the
    # expression ``predicates`` evaluates
    toric = not monoid.ambient.invariant_factors and saturated and \
        not _cone_units(monoid)
    yield _check(pred.is_toric == toric,
                 "toric verdict differs from the torsion, the saturation and "
                 "the units found by the dual cone", "toric")
    yield _check(pred.is_saturated == saturated,
                 "saturation verdict differs from the membership search",
                 "saturated")
    yield _check(not pred.is_free or pred.is_saturated,
                 "free verdict without saturation", "free")


def check_rank(monoid, rank):
    # rank M^gp / M^x = rank M^gp - rank M^x, and torsion has rank 0
    r = monoid.ambient.free_rank
    unit_span = xl._from_columns(
        [u.as_vector()[:r] for u in _cone_units(monoid)], r)
    yield _check(rank == r - len(xl.smith_normal_form(unit_span).diag),
                 "characteristic rank is not the rank of M^gp / M^x",
                 "quotient_rank")


def check_pushout(mode, left, right, result, monoid=None):
    # result: the presentation, or the fine pushout with its structure maps
    if mode == "presentation":
        yield _check(result.ngens == len(left.target.generators) +
                     len(right.target.generators),
                     "presentation pushout has the wrong generator count",
                     "generators")
        return
    amb, lm, rm = result.monoid.ambient, result.left_matrix, result.right_matrix
    yield _check(all(
        amb.reduce_vector(xl.apply(lm, left.apply(g).as_vector())) ==
        amb.reduce_vector(xl.apply(rm, right.apply(g).as_vector()))
        for g in left.source.generators), "pushout square does not commute",
        "commutes")
    if mode == "fs":
        yield _check(mc.is_saturated(monoid), "fs pushout is not saturated",
                     "saturated")


def check_fiber(left, right, pairs):
    yield _check(all(left.apply(m) == right.apply(n) for m, n in pairs),
                 "fiber pair does not equalize the two legs", "equalizes")
    yield _check(all(_searched(left.source, m) and _searched(right.source, n)
                     for m, n in pairs),
                 "fiber pair leaves the factors", "in_factors")


def check_dual(cone, dual):
    # independent of the swap: double description from the inequalities
    yield _check(cc.RationalCone.from_rays(cc._signed(
        cone.facet_normals, cone.span_equations), cone.dim) == dual,
        "dual differs from the cone the facet normals generate",
        "double_description")


def check_faces(cone, face_list):
    # the cone and the facets of every listed face, found from its own
    # normals, are listed, so every face is (all lie below the cone)
    yield _check(cone in face_list, "the cone itself is missing", "cone")
    yield _check(all(is_face_of(f, cone) for f in face_list),
                 "listed face is not a face", "is_face")
    yield _check(all(g in face_list for f in face_list for g in facets(f)),
                 "a facet of a listed face is missing", "complete")
    if len(face_list) <= 24:
        yield _check(all(intersect(a, b) in face_list
                         for a in face_list for b in face_list),
                     "faces are not closed under intersection", "meets")


def check_hilbert(cone, basis):
    yield _check(all(cone.contains(h) for h in basis),
                 "Hilbert basis element outside the cone", "in_cone")
    diffs = (tuple(a - b for a, b in zip(h, k))
             for h in basis for k in basis if h != k)
    yield _check(not any(any(d) and cone.contains(d) for d in diffs),
                 "Hilbert basis element is reducible", "irreducible")


def _smith_multiplicity(cone):
    """The multiplicity of a simplicial cone as the product of the Smith
    invariant factors of its ray matrix: the order of the torsion of
    Z^dim / <rays>, which is the index of the rays' lattice in the span's,
    found without the determinant ``cone_complex.multiplicity`` takes."""
    rays = xl._from_columns(cone.extreme_rays, cone.dim)
    return prod(xl.smith_normal_form(rays).diag)


def _smith_regular(cone):
    return cone.is_simplicial and _smith_multiplicity(cone) == 1


def check_regular(verdict, cone, fan=None):
    if fan is not None:
        yield _check(verdict == all(map(_smith_regular, fan.maximal_cones)),
                     "fan regularity disagrees with the Smith invariant factors",
                     "smith")
    elif cone.is_simplicial:
        yield _check(verdict == _smith_regular(cone),
                     "regularity disagrees with the Smith invariant factors",
                     "smith")
    else:
        yield _check(not verdict, "a cone that is not simplicial is regular",
                     "simplicial")


def check_mult(cone, mult):
    yield _check(mult >= 1, "multiplicity below one", "positive")
    yield _check(mult == _smith_multiplicity(cone),
                 "multiplicity differs from the Smith invariant factors", "smith")


def _is_fan(fan):
    try:
        fan.validate()
    except DomainError:
        return False
    return True


def _covers(cone, cones):
    """Whether the cones, which form a fan and lie in ``cone``, cover it:
    some of them have its dimension, and each facet of one of those lies
    in a facet of ``cone`` or is a facet of a second one.  Otherwise a
    generic segment from inside their union to a missed point of ``cone``
    leaves the union through the relative interior of an unmatched facet.

    A facet is keyed by the generators of its cone on which its normal
    vanishes: a face is generated by the generators it holds, and those of
    a canonical cone are canonical, so equal keys mean equal facets.  It
    lies in the facet of ``cone`` with normal n iff n vanishes on its key."""
    full = [c for c in cones if c.span_dim == cone.span_dim]
    shared = Counter(frozenset(g for g in c.generators if cc.vdot(n, g) == 0)
                     for c in full for n in c.facet_normals)
    return bool(full) and all(
        k > 1 or any(all(cc.vdot(n, g) == 0 for g in f)
                     for n in cone.facet_normals)
        for f, k in shared.items())


def check_resolve(fan, resolved):
    yield _check(resolved.is_regular(), "resolution is not regular", "regular")
    yield _check(all(map(_smith_regular, resolved.maximal_cones)),
                 "resolution is not regular by the Smith invariant factors",
                 "smith")
    # from the constraints, not from the rays that built the cone
    yield _check(all(c == cc.cone_from_constraints(
                         c.facet_normals, c.span_equations, c.dim)
                     for c in resolved.maximal_cones),
                 "resolution cone differs from the cone of its rays",
                 "canonical")
    yield _check(all(resolved.support_contains(r)
                     for c in fan.maximal_cones for r in c.extreme_rays),
                 "resolution lost part of the support", "support")
    yield _check(_is_fan(resolved), "resolution is not a fan", "fan")
    inside = {c: [p for p in resolved.maximal_cones if c.contains_cone(p)]
              for c in fan.maximal_cones}
    placed = {p for cones in inside.values() for p in cones}
    yield _check(all(p in placed for p in resolved.maximal_cones),
                 "resolution leaves the input cones", "refines")
    yield _check(all(_covers(c, cones) for c, cones in inside.items()),
                 "resolution does not cover an input cone", "covers")


def check_blowup(ideal, charts):
    yield _check(all(_searched(c.fine, g.as_vector())
                     for c in charts for g in ideal.host.generators),
                 "blowup chart does not contain the host monoid", "contains_host")
    yield _check(all(mc.is_saturated(c.fs) for c in charts),
                 "fs chart is not saturated", "fs_saturated")


def check_blowup_fan(ideal, fan):
    sigma = cc.dual_cone(cc.RationalCone.from_rays(
        [g.free for g in ideal.host.generators], ideal.host.ambient.free_rank))
    yield _check(all(sigma.contains_cone(c) for c in fan.maximal_cones),
                 "blowup fan leaves the dual cone of the host", "in_dual_cone")
    yield _check(_is_fan(fan), "blowup fan is not a fan", "fan")
    yield _check(_covers(sigma, fan.maximal_cones),
                 "blowup fan does not cover the dual cone of the host",
                 "covers")


def _second_kernel(hom):
    """Ker(phi^gp) by a decomposition apart from the one the verdicts read:
    ``kernel_basis`` of [matrix | -target relations], cut to the source
    coordinates, generates it."""
    amb, n = hom.target.ambient, hom.source.ambient.lift_dim
    cols = xl.mat_columns(hom.matrix) + [
        tuple(-x for x in c) for c in amb.relation_columns()]
    basis = xl.kernel_basis(xl._from_columns(cols, amb.lift_dim))
    return xl.subgroup_presentation(
        hom.source.ambient, [c[:n] for c in xl.mat_columns(basis)])[0]


def _second_cokernel(hom):
    """Coker(phi^gp) as the quotient of the target group, relations first."""
    return xl.quotient_presentation(
        hom.target.ambient, xl.mat_columns(hom.matrix))[0]


def _invertible(group, p):
    """Whether the torsion order of ``group`` is invertible in residue
    characteristic p, 0 or a prime: whether p divides no invariant factor."""
    return p == 0 or all(f % p for f in group.invariant_factors)


def check_hom_check(hom, verdict, char):
    ker, coker = _second_kernel(hom), _second_cokernel(hom)
    yield _check(verdict.gp_kernel == ker,
                 "group kernel differs from a second decomposition", "kernel")
    yield _check(verdict.gp_cokernel == coker,
                 "group cokernel differs from a second decomposition",
                 "cokernel")
    smooth = ker.is_finite and _invertible(ker, char) and \
        _invertible(coker, char)
    yield _check((verdict.residue_char, verdict.is_smooth, verdict.is_etale) ==
                 (char, smooth, smooth and coker.is_finite),
                 "smoothness verdict differs from the chart criterion on a "
                 "second decomposition", "criterion")


def check_kummer(hom, kummer, injective):
    yield _check(not kummer or injective, "Kummer verdict without injectivity",
                 "injective")
    yield _check(injective == _second_kernel(hom).is_trivial,
                 "injectivity differs from the kernel of a second "
                 "decomposition", "kernel")
    yield _check(not kummer or _second_cokernel(hom).is_finite,
                 "Kummer verdict with an infinite group cokernel", "cokernel")


def check_neat(hom, cls, char):
    coker = _second_cokernel(hom)
    yield _check(lha.gp_cokernel(hom) == coker,
                 "group cokernel differs from a second decomposition",
                 "cokernel")
    want = "etale" if _invertible(coker, char) else "fppf"
    yield _check(cls == (want if coker.invariant_factors else "zariski"),
                 "chart class differs from the torsion of a second "
                 "decomposition", "class")


def check_diff_rank(hom, rank, injective, kernel_trivial, char):
    coker = _second_cokernel(hom)
    yield _check(lha.gp_cokernel(hom) == coker,
                 "group cokernel differs from a second decomposition",
                 "cokernel")
    # Coker (x) F_p: a free rank for Z, and one for each Z/f that p divides
    divisible = sum(f % char == 0 for f in coker.invariant_factors) \
        if char else 0
    yield _check(rank == coker.free_rank + divisible,
                 "differential rank differs from the cokernel of a second "
                 "decomposition", "rank")
    second = _second_kernel(hom).is_trivial
    yield _check(injective == second,
                 "injectivity differs from the kernel of a second "
                 "decomposition", "injective")
    # Ker(phi) on M lies in Ker(phi^gp)
    yield _check(not second or kernel_trivial,
                 "a hom injective on groups has a nontrivial monoid kernel",
                 "monoid_kernel")


def check_diff_pres(pres):
    module, _ = xl._group_from_relations(
        len(pres.symbols), pres.relation_columns)
    yield _check(module == pres.module,
                 "module does not match its own presentation", "module")
