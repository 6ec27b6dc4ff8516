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


def _solver_units(monoid):
    """The invertible generators by one membership test each, independent of
    the incidence rule ``monoid_core.units`` reads them off."""
    return [g for g in monoid.generators if monoid.contains(monoid.neg(g))]


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


def check_int(pres, monoid):
    _, images = mc.grothendieck_group(pres)
    _verify_relations_hold(monoid.ambient, images, pres.relations,
                           "integralization")
    yield "relations"


def check_sat(monoid, sat):
    yield _check(mc.is_saturated(sat), "saturation is not saturated",
                 "saturated")
    yield _check(all(sat.contains(g) for g in monoid.generators),
                 "saturation does not contain the original monoid", "contains")


def check_sharpen(monoid, sharp, units):
    yield _check(not _solver_units(sharp), "sharpening still has units", "sharp")
    solved = _solver_units(monoid)
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


def check_props(pred):
    yield _check(not pred.is_toric or (pred.is_sharp and pred.is_saturated),
                 "toric verdict without sharp + saturated", "toric")
    yield _check(not pred.is_free or pred.is_saturated,
                 "free verdict without saturation", "free")


def check_rank(monoid, rank):
    # rank M^gp / M^x = rank M^gp - rank M^x, and torsion has rank 0
    r = monoid.ambient.free_rank
    unit_span = xl.intmat_from_columns(
        [u.as_vector()[:r] for u in _solver_units(monoid)], nrows=r)
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
    yield _check(all(left.source.contains(m) and right.source.contains(n)
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


def check_regular(verdict, cone, fan=None):
    if fan is not None:
        yield _check(verdict == all(cc.is_regular(c) for c in fan.maximal_cones),
                     "fan regularity disagrees with its cones", "cones")
    elif cone.is_simplicial and cone.is_strongly_convex:
        yield _check(verdict == (cc.multiplicity(cone) == 1),
                     "regularity disagrees with multiplicity", "multiplicity")


def check_mult(cone, mult):
    yield _check(mult >= 1, "multiplicity below one", "positive")
    yield _check((mult == 1) == cc.is_regular(cone),
                 "multiplicity one disagrees with regularity", "regularity")


def check_resolve(fan, resolved):
    yield _check(resolved.is_regular(), "resolution is not regular", "regular")
    yield _check(all(resolved.support_contains(r)
                     for c in fan.maximal_cones for r in c.extreme_rays),
                 "resolution lost part of the support", "support")


def check_blowup(ideal, charts):
    yield _check(all(c.fine.contains(g.as_vector())
                     for c in charts for g in ideal.host.generators),
                 "blowup chart does not contain the host monoid", "contains_host")
    yield _check(all(mc.is_saturated(c.fs) for c in charts),
                 "fs chart is not saturated", "fs_saturated")


def check_blowup_fan(ideal, fan):
    sigma = cc.dual_cone(cc.RationalCone.from_rays(
        [g.free for g in ideal.host.generators], ideal.host.ambient.free_rank))
    yield _check(all(sigma.contains_cone(c) for c in fan.maximal_cones),
                 "blowup fan leaves the dual cone of the host", "in_dual_cone")


def check_hom_check(verdict):
    yield _check(not verdict.is_etale or verdict.is_smooth,
                 "etale verdict without smoothness", "etale_smooth")


def check_kummer(kummer, injective):
    yield _check(not kummer or injective, "Kummer verdict without injectivity",
                 "injective")


def check_neat(cls):
    yield _check(cls in ("zariski", "etale", "fppf"), "unknown chart class",
                 "known_class")


def check_diff_rank(hom, rank):
    yield _check(rank >= lha.gp_cokernel(hom).free_rank,
                 "differential rank below the cokernel free rank",
                 "cokernel_rank")


def check_diff_pres(pres):
    module, _ = xl.group_from_relations(
        len(pres.symbols), list(pres.relation_columns))
    yield _check(module == pres.module,
                 "module does not match its own presentation", "module")
