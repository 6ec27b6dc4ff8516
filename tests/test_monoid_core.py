"""Oracle-backed tests for affine monoids.

The membership oracle below enumerates bounded nonnegative combinations of
the generators directly, with no shared code with the library; it is complete
for monoids inside N^d whose generators have positive coordinate sum, since
then no coefficient in a representation of t can exceed the coordinate sum
of t.
"""

import contextlib
import itertools
import random
import sys
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.monoid_core as mc
from logmonoid._verify import facets
from logmonoid.errors import InputError

from conftest import group_monoid


# ---------------------------------------------------------------------------
# oracles


def oracle_member_nn(gens, target):
    """Membership in the monoid generated by gens inside N^d (complete when
    every generator has positive coordinate sum)."""
    bound = sum(target)
    assert all(sum(g) >= 1 for g in gens)
    for coeffs in itertools.product(range(bound + 1), repeat=len(gens)):
        if sum(c * sum(g) for c, g in zip(coeffs, gens)) != sum(target):
            continue
        combo = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                      for i in range(len(target)))
        if combo == tuple(target):
            return True
    return False


def oracle_face_sets(gens, bound=4):
    """Generator index sets of faces, by the definition: S is a face set
    when no bounded combination using a generator outside S lands in the
    span of S.  Complete up to the bound; sound for the face axiom on all
    combinations it enumerates."""
    n = len(gens)
    d = len(gens[0]) if gens else 0
    combos = []
    for coeffs in itertools.product(range(bound + 1), repeat=n):
        vec = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                    for i in range(d))
        combos.append((coeffs, vec))
    out = []
    for size in range(n + 1):
        for s in itertools.combinations(range(n), size):
            sset = set(s)
            span = {vec for coeffs, vec in combos
                    if all(c == 0 for i, c in enumerate(coeffs)
                           if i not in sset)}
            ok = True
            for coeffs, vec in combos:
                if vec in span and any(
                        c > 0 for i, c in enumerate(coeffs) if i not in sset):
                    ok = False
                    break
            if ok:
                out.append(frozenset(s))
    # a face is determined by the generators it contains; drop index sets
    # that describe the same face as a larger set (non-maximal labels)
    spans = {}
    for s in out:
        span = frozenset(vec for coeffs, vec in combos
                         if all(c == 0 for i, c in enumerate(coeffs)
                                if i not in s))
        spans.setdefault(span, []).append(s)
    return sorted(max(group, key=len) for group in spans.values())


# ---------------------------------------------------------------------------
# construction and membership


def test_ambient_must_be_generated():
    z2 = xl.FgAbelianGroup(2, ())
    with pytest.raises(InputError):
        mc.AffineMonoid(z2, [(2, 0), (0, 2)])  # spans index-4 subgroup
    m = mc.AffineMonoid(z2, [(1, 0), (0, 1)])
    assert len(m.generators) == 2


def test_wrong_length_generator_is_refused():
    amb = xl.FgAbelianGroup(1, (2,))
    for bad in [(1,), (1, 0, 0), mc.MonoidElement(free=(1,))]:
        with pytest.raises(InputError):
            mc.AffineMonoid(amb, [(1, 0), bad])


def test_an_element_split_unlike_the_ambient_is_refused():
    import logmonoid.log_hom_analysis as lha
    import logmonoid.log_ideal_blowup as lib
    # free (1, 1) has the lift length of Z (+) Z/2 but two free coordinates;
    # read as a lift vector it would pass for (1, 1bar), a member
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1)], (2,))
    bad = mc.MonoidElement(free=(1, 1))
    sites = {
        "contains": lambda: m.contains(bad),
        "expression": lambda: mc.expression(m, bad),
        "AffineMonoid": lambda: mc.AffineMonoid(m.ambient, [(1, 0), bad]),
        "MonoidIdeal": lambda: lib.MonoidIdeal(m, (bad,)),
        "MonoidIdeal.contains": lambda: lib.maximal_ideal(m).contains(bad),
        "MonoidHom.apply": lambda: lha.identity_hom(m).apply(bad),
        "add": lambda: m.add(bad, m.generators[0]),
        "neg": lambda: m.neg(bad),
        "sub": lambda: m.sub(m.generators[0], bad),
        "exponent_sum": lambda: mc.exponent_sum(m.ambient, (1,), (bad,)),
    }
    accepted = []
    for site, call in sites.items():
        try:
            call()
        except InputError as exc:
            assert "does not live in the ambient" in str(exc)
        else:
            accepted.append(site)
    assert accepted == []


@pytest.mark.parametrize("vectors, orders, smith_forms", [
    ([(1, 0), (1, 1)], (), 1), ([(2,), (4,)], (), 2),
    ([(1, 1), (1, 0)], (2,), 1)])
def test_from_vectors_runs_one_smith_form_unless_it_re_presents(
        vectors, orders, smith_forms, count_calls):
    # one decomposition decides the span; a proper span takes one more to
    # present the subgroup
    calls = count_calls(xl, "_snf_full")
    mc.AffineMonoid.from_vectors(vectors, orders)
    assert len(calls) == smith_forms


def test_free_monoid_runs_no_quotient_presentation(count_calls):
    quotient_calls = count_calls(xl, "quotient_presentation")
    mc.free_monoid(3)
    assert quotient_calls == []


def test_from_vectors_preserves_full_span_coordinates():
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1)])
    assert m.ambient == xl.FgAbelianGroup(2, ())
    assert m.contains((2, 1))
    assert not m.contains((0, 1))


def test_from_vectors_represents_proper_spans():
    # <(2,), (4,)> spans 2Z; re-presented as N inside Z
    m = mc.AffineMonoid.from_vectors([(2,), (4,)])
    assert m.ambient == xl.FgAbelianGroup(1, ())
    assert [g.as_vector() for g in m.generators] in ([(1,), (2,)], [(1,)])
    # the monoid <2,4> in 2Z is isomorphic to <1,2> = N in Z
    assert m.contains((1,)) and m.contains((2,))


def test_membership_matches_oracle_randomly():
    rng = random.Random(2026)
    for _ in range(12):
        d = rng.randint(1, 2)
        k = rng.randint(1, 3)
        gens = []
        while len(gens) < k:
            g = tuple(rng.randint(0, 3) for _ in range(d))
            if sum(g) >= 1:
                gens.append(g)
        m = mc.AffineMonoid.from_vectors(gens)
        host = xl.FgAbelianGroup(d, ())
        sub, images = mc.span_submonoid(host, gens)
        for _ in range(8):
            t = tuple(rng.randint(0, 6) for _ in range(d))
            want = oracle_member_nn(gens, t)
            # translate t into the submonoid's coordinates when the span is
            # proper: solve for t in the span first
            if sub.ambient == host and all(
                    im.as_vector() == g for im, g in zip(images, gens)):
                assert sub.contains(t) == want, (gens, t)


def test_membership_with_torsion():
    # Kummer-style monoid in Z (+) Z/2: generated by (1, 1bar) and (1, 0bar)
    m = mc.AffineMonoid.from_vectors([(1, 1), (1, 0)], torsion_orders=(2,))
    assert m.contains((2, 0))
    assert m.contains((2, 1))  # (1,1) + (1,0)
    assert m.contains((1, 1))
    assert not m.contains((0, 1))  # the famous missing element
    assert m.contains((0, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cached_membership_matches_a_rebuild_per_query(data):
    monoid = data.draw(_monoids(max_gens=4))
    amb, gens = monoid.ambient, monoid.generators
    vec = st.tuples(*[st.integers(-3, 3)] * amb.free_rank,
                    *[st.integers(0, f - 1) for f in amb.invariant_factors])
    targets = data.draw(st.lists(vec, min_size=1, max_size=3))
    exponents = st.tuples(*[st.integers(0, 2)] * len(gens))
    targets += [mc.exponent_sum(amb, e, gens).as_vector()
                for e in data.draw(st.lists(exponents, max_size=2))]
    # zero and the generators, which contains answers by definition
    targets += [amb.zero()] + [g.as_vector() for g in gens]
    for t in targets:
        # the old path: a fresh membership system for every query
        system = mc._membership_system(amb, gens)
        want = xl.solve_nonneg(system, amb.reduce_vector(t))
        assert monoid.contains(t) == xl.has_nonneg_solution(
            system, amb.reduce_vector(t))
        assert mc.expression(monoid, t) == (
            None if want is None else want[:len(gens)])


def test_one_monoid_builds_its_membership_system_once(count_calls):
    builds = count_calls(mc, "_membership_system")
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])
    answers = [(m.contains(t), mc.expression(m, t))
               for t in [(0, 0), (2, 1), (0, 1), (3, 6), (1, -1)]]
    assert [a for a, _ in answers] == [True, True, False, True, False]
    assert len(builds) == 1


def test_expression_is_lex_smallest():
    m = mc.AffineMonoid.from_vectors([(1, 0), (0, 1), (1, 1)])
    # (1,1) = 1*(0,1) + 1*(1,0) or 1*(1,1); generator order after cleaning
    # is the given order, so exponents are over ((1,0),(0,1),(1,1))
    expr = mc.expression(m, (1, 1))
    assert expr == (0, 0, 1) or expr == (1, 1, 0)
    # lex-smallest among all representations
    reps = []
    for c in itertools.product(range(3), repeat=3):
        vec = (c[0] * 1 + c[2], c[1] + c[2])
        if vec == (1, 1):
            reps.append(c)
    assert expr == min(reps)
    assert mc.expression(m, (0, 3)) == (0, 3, 0)
    assert mc.expression(m, (-1, 0)) is None


# ---------------------------------------------------------------------------
# Grothendieck group and integralization


def test_exponent_sum_reduces_torsion():
    group = xl.FgAbelianGroup(1, (4,))
    elems = [mc.element_of(group, (1, 3)), mc.element_of(group, (-2, 2))]
    assert mc.exponent_sum(group, (3, 1), elems) == mc.MonoidElement((1,), (3,))
    assert mc.exponent_sum(group, (0, 2), elems) == mc.MonoidElement((-4,), (0,))
    assert mc.exponent_sum(group, (0, 0), elems).is_zero
    with pytest.raises(ValueError):
        mc.exponent_sum(xl.FgAbelianGroup(1, ()), (1,), elems)


def test_grothendieck_group_of_cusp():
    # <a, b | 2a = 3b> has group Z
    pres = mc.MonoidPresentation(2, (((2, 0), (0, 3)),))
    group, images = mc.grothendieck_group(pres)
    assert (group.free_rank, group.invariant_factors) == (1, ())
    a, b = images
    assert group.scale(2, a.as_vector()) == group.scale(3, b.as_vector())


def test_grothendieck_group_with_torsion():
    # <a, b | a + b = 2b> ... a = b in the group; <a, b | 2a = 2b> keeps
    # the difference as 2-torsion
    pres = mc.MonoidPresentation(2, (((2, 0), (0, 2)),))
    group, images = mc.grothendieck_group(pres)
    assert (group.free_rank, group.invariant_factors) == (1, (2,))
    a, b = images
    diff = group.sub(a.as_vector(), b.as_vector())
    assert diff != group.zero()
    assert group.scale(2, diff) == group.zero()


def test_integralize_identifies_words():
    # a + b = b + a + a forces a = 0 after cancellation
    pres = mc.MonoidPresentation(2, (((1, 1), (2, 1)),))
    m = mc.integralize(pres)
    assert m.ambient == xl.FgAbelianGroup(1, ())
    assert len(m.generators) == 1


def test_presentation_round_trip():
    m = mc.AffineMonoid.from_vectors([(2,), (3,)])
    pres = mc.presentation_of(m)
    back = mc.integralize(pres)
    assert back.ambient == m.ambient
    mirrored = mc.AffineMonoid(back.ambient,
                               [back.neg(g) for g in back.generators])
    assert back.same_submonoid(m) or mirrored.same_submonoid(m)


# ---------------------------------------------------------------------------
# saturation, units, sharpening


def test_saturate_numerical_semigroup():
    m = mc.AffineMonoid.from_vectors([(2,), (3,)])
    sat = mc.saturate(m)
    assert [g.as_vector() for g in sat.generators] == [(1,)]


def test_saturate_cone_monoid():
    # <(2,-1),(0,1),(1,1)> spans Z^2 but misses (1,0) = half of (2,0)
    m = mc.AffineMonoid.from_vectors([(2, -1), (0, 1), (1, 1)])
    assert m.ambient == xl.FgAbelianGroup(2, ())
    sat = mc.saturate(m)
    assert sorted(g.as_vector() for g in sat.generators) == \
        [(0, 1), (1, 0), (2, -1)]
    assert mc.is_saturated(sat)
    assert not mc.is_saturated(m)


def test_saturate_handles_torsion():
    # N (+) 0 inside Z (+) Z/2 saturates to N (+) Z/2: 2(0,1) = 0 in M
    m = mc.AffineMonoid.from_vectors([(1, 1), (1, 0)], torsion_orders=(2,))
    sat = mc.saturate(m)
    assert sat.contains((0, 1))
    assert mc.is_saturated(sat)


def test_units_and_sharpening():
    m = mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (0, 1)])
    us = mc.units(m)
    assert sorted(u.as_vector() for u in us) == [(-1, 0), (1, 0)]
    sharp = mc.sharpen(m)
    assert mc.predicates(sharp).is_sharp
    assert sharp.ambient.free_rank == 1
    assert [g.as_vector() for g in sharp.generators] == [(1,)]


def test_sharpen_of_sharp_monoid_is_identity_shaped():
    m = mc.AffineMonoid.from_vectors([(1, 0), (0, 1)])
    sharp = mc.sharpen(m)
    assert sharp.same_submonoid(m)
    # a sharp monoid keeps its unique minimal generating set
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2), (2, 2), (3, 1)])
    assert sorted(g.as_vector() for g in mc.sharpen(m).generators) == \
        [(1, 0), (1, 1), (1, 2)]


def test_group_monoid_is_all_units():
    g = xl.FgAbelianGroup(1, (2,))
    m = group_monoid(g)
    assert len(mc.units(m)) == len(m.generators)
    sharp = mc.sharpen(m)
    assert sharp.ambient.is_trivial


def test_characteristic_rank():
    assert mc.characteristic_rank(mc.free_monoid(3)) == 3
    mixed = mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (0, 1)])
    assert mc.characteristic_rank(mixed) == 1
    grp = group_monoid(xl.FgAbelianGroup(2, ()))
    assert mc.characteristic_rank(grp) == 0


# ---------------------------------------------------------------------------
# predicates


def test_predicates_table():
    cases = [
        (mc.free_monoid(2), (True, True, True, True)),
        (mc.AffineMonoid.from_vectors([(2,), (3,)]),
         (True, False, False, False)),
        (mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)]),
         (True, True, True, False)),
        (mc.AffineMonoid.from_vectors([(1,), (-1,)]),
         (False, True, False, True)),
        (mc.AffineMonoid.from_vectors([(1, 1), (1, 0)], torsion_orders=(2,)),
         (True, False, False, False)),
    ]
    for monoid, (sharp, saturated, toric, free) in cases:
        pred = mc.predicates(monoid)
        assert pred.is_sharp == sharp, monoid
        assert pred.is_saturated == saturated, monoid
        assert pred.is_toric == toric, monoid
        assert pred.is_free == free, monoid


def test_toric_requires_torsion_free_group():
    # in N (+) Z/2 the torsion generator is its own inverse, hence a unit:
    # the monoid is saturated but not sharp, so not toric; its sharpening
    # is N, and no saturated monoid with a torsion unit-free part exists
    # (saturation pulls every torsion element of the group into the monoid)
    m = mc.AffineMonoid.from_vectors([(1, 0), (0, 1)], torsion_orders=(2,))
    pred = mc.predicates(m)
    assert pred.is_saturated
    assert not pred.is_sharp
    assert not pred.is_toric
    assert sorted(u.as_vector() for u in mc.units(m)) == [(0, 1)]


# ---------------------------------------------------------------------------
# spectrum


def test_spec_of_free_monoid():
    primes = mc.spec(mc.free_monoid(2))
    got = sorted(p.sorted_indices() for p in primes)
    assert got == [(), (0,), (0, 1), (1,)]


def test_spec_interior_generator_in_no_proper_face():
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])
    got = sorted(p.sorted_indices() for p in mc.spec(m))
    assert got == [(), (0,), (0, 1, 2), (2,)]


def test_spec_units_lie_in_every_face():
    m = mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (0, 1)])
    idx_unit_a = [i for i, g in enumerate(m.generators)
                  if g.as_vector() == (1, 0)][0]
    for p in mc.spec(m):
        assert idx_unit_a in p.complement_face


def test_spec_matches_bounded_face_oracle():
    rng = random.Random(909)
    for _ in range(8):
        k = rng.randint(1, 3)
        gens = []
        while len(gens) < k:
            g = tuple(rng.randint(0, 3) for _ in range(2))
            if sum(g) >= 1 and g not in gens:
                gens.append(g)
        m = mc.AffineMonoid.from_vectors(gens)
        if m.ambient != xl.FgAbelianGroup(2, ()):
            continue  # oracle works in the written coordinates
        want = oracle_face_sets([g.as_vector() for g in m.generators])
        got = sorted(frozenset(p.complement_face) for p in mc.spec(m))
        assert got == want, gens


def test_spec_of_group_monoid_is_a_point():
    m = group_monoid(xl.FgAbelianGroup(1, ()))
    primes = mc.spec(m)
    assert len(primes) == 1
    assert primes[0].complement_face == frozenset(range(len(m.generators)))


def _oracle_spec(monoid):
    """The spectrum by building every face of the cone of free parts (a
    breadth-first search through ``facets``) and testing each generator's
    free part against it."""
    n = len(monoid.generators)
    r = monoid.ambient.free_rank
    if r == 0:
        return [mc.PrimeIdeal(complement_face=frozenset(range(n)))]
    cone = cc.RationalCone.from_rays([g.free for g in monoid.generators], r)
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
    sets = {frozenset(i for i, g in enumerate(monoid.generators)
                      if f.contains(g.free)) for f in found}
    return sorted((mc.PrimeIdeal(complement_face=s) for s in sets),
                  key=lambda p: (len(p.complement_face), p.sorted_indices()))


@st.composite
def _monoids(draw, max_gens=5):
    """Monoids on one to ``max_gens`` generators of Z^r (+) torsion,
    r = 0..3: with torsion, with the negatives of some generators (units),
    and in a small minority of draws with free rank 0 (a finite group, which
    has no cone).  For r >= 1 the first generator has a nonzero free part,
    so the monoid keeps a positive free rank."""
    rank = 0 if draw(st.integers(0, 7)) == 7 else draw(st.integers(1, 3))
    orders = draw(st.sampled_from([(), (2,), (3,), (2, 4), (6,)]))
    vec = st.tuples(*[st.integers(-3, 3)] * rank,
                    *[st.integers(0, f - 1) for f in orders])
    first = vec.filter(lambda v: any(v[:rank])) if rank else vec
    gens = [draw(first)] + draw(st.lists(vec, max_size=max_gens - 1))
    if draw(st.booleans()):
        flips = draw(st.lists(st.booleans(), min_size=len(gens),
                              max_size=len(gens)))
        gens += [tuple(-x for x in g) for g, flip in zip(gens, flips) if flip]
    return mc.AffineMonoid.from_vectors(gens, orders)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monoids())
def test_spec_matches_cone_per_face_oracle(monoid):
    assert mc.spec(monoid) == _oracle_spec(monoid)


def _solver_units(monoid):
    """The invertible generators by one membership test each."""
    return tuple(sorted(g for g in monoid.generators
                        if monoid.contains(monoid.neg(g))))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monoids(max_gens=4))
def test_units_match_solver_oracle(monoid):
    # at five drawn generators the oracle takes over 20 s on some sharp draws
    import logmonoid.log_ideal_blowup as lib
    want = _solver_units(monoid)
    assert mc.units(monoid) == want
    assert lib.maximal_ideal(monoid).generators == tuple(
        g for g in monoid.generators if g not in want)


def _all_units():
    """Every generator is a unit, and the solver took seconds to show it."""
    return mc.AffineMonoid.from_vectors(
        [(-3, -2, -2, 1, 0), (-3, -3, 3, 1, 3), (-2, 2, 3, 0, 1),
         (3, 3, -1, 0, 1), (3, -3, 1, 0, 2)], (2, 4))


# factories: each test builds its monoid afresh, since a monoid caches its
# cone of free parts and a second test would otherwise count no build
CONE_OF_FREE_PARTS_CALLS = [
    (partial(mc.AffineMonoid.from_vectors, [(1, 0, 1), (0, 1, 1), (-1, 0, 1),
                                            (0, -1, 1)]), 1),
    (partial(mc.AffineMonoid.from_vectors, [(1, 0), (-1, 0), (0, 1)]), 1),
    (partial(mc.AffineMonoid.from_vectors, [(1, 1), (2, 0)], (4,)), 1),
    (partial(group_monoid, xl.FgAbelianGroup(0, (2, 6))), 0),
    (partial(mc.trivial_monoid), 0),
    (partial(_all_units), 1),
]


@pytest.mark.parametrize("monoid, calls", CONE_OF_FREE_PARTS_CALLS)
def test_spec_builds_at_most_the_cone_of_free_parts(monoid, calls,
                                                     count_calls):
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    mc.spec(monoid())
    assert len(from_rays_calls) == calls


@pytest.mark.parametrize("monoid, calls", CONE_OF_FREE_PARTS_CALLS)
def test_units_build_at_most_the_cone_of_free_parts(monoid, calls,
                                                    count_calls, no_solver):
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    mc.units(monoid())
    assert len(from_rays_calls) == calls


@pytest.mark.parametrize("monoid, calls", CONE_OF_FREE_PARTS_CALLS)
def test_sharpen_builds_no_cone_for_the_quotient(monoid, calls, count_calls):
    # M/M^x is sharp by construction: only units(M) builds a cone
    from_rays_calls = count_calls(cc.RationalCone, "from_rays")
    mc.sharpen(monoid())
    assert len(from_rays_calls) == calls


def test_units_of_the_all_units_monoid_need_no_solver(no_solver):
    import logmonoid.log_ideal_blowup as lib
    all_units = _all_units()
    assert mc.units(all_units) == tuple(sorted(all_units.generators))
    assert mc.sharpen(all_units).ambient.is_trivial
    assert mc.characteristic_rank(all_units) == 0
    assert lib.maximal_ideal(all_units).is_empty


@pytest.mark.parametrize("monoid", [
    partial(_all_units), partial(group_monoid, xl.FgAbelianGroup(2, (2,))),
    partial(mc.trivial_monoid)])
def test_a_group_is_saturated_without_a_membership_test(monoid, no_solver):
    monoid = monoid()
    assert mc.is_saturated(monoid)
    assert mc.predicates(monoid) == mc.MonoidPredicates(
        is_sharp=monoid.ambient.is_trivial, is_saturated=True,
        is_toric=monoid.ambient.is_trivial, is_free=True)


def test_units_alone_do_not_make_a_monoid_saturated():
    # N(0,2) + N(0,3) + Z(1,0) misses (0,1), although 2(0,1) lies in it
    m = mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (0, 2), (0, 3)])
    assert len(mc.units(m)) == 2
    assert not mc.is_saturated(m)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monoids(max_gens=4))
def test_is_saturated_matches_the_membership_oracle(monoid):
    sat = mc.saturate(monoid)
    assert mc.is_saturated(monoid) == all(
        monoid.contains(g) for g in sat.generators)


# ---------------------------------------------------------------------------
# trusted construction


SPANNING_SITES = {"span_submonoid", "free_monoid", "trivial_monoid",
                  "integralize", "saturate", "sharpen",
                  "pushout_with_maps", "relative_characteristic",
                  "blowup_charts"}


@contextlib.contextmanager
def _checked_spanning():
    """Rebuilds every ``AffineMonoid._spanning`` result through the public
    constructor, which raises InputError when the generators do not span,
    and requires the two to be equal.  Yields the set of calling functions."""
    trusted = mc.AffineMonoid._spanning.__func__
    sites = set()

    def checked(cls, ambient, generators):
        out = trusted(cls, ambient, generators)
        assert mc.AffineMonoid(out.ambient, out.generators) == out
        sites.add(sys._getframe(1).f_code.co_name)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mc.AffineMonoid, "_spanning", classmethod(checked))
        yield sites


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_trusted_construction_matches_the_public_one(data):
    import logmonoid.log_hom_analysis as lha
    import logmonoid.log_ideal_blowup as lib
    with _checked_spanning() as sites:
        monoid = data.draw(_monoids(max_gens=4))
        amb, gens = monoid.ambient, monoid.generators
        mc.trivial_monoid()
        mc.integralize(mc.presentation_of(monoid))
        mc.saturate(monoid)
        mc.sharpen(monoid)
        rows = [[g.as_vector()[i] for g in gens] for i in range(amb.lift_dim)]
        onto = lha.MonoidHom(mc.free_monoid(len(gens)), monoid, rows)
        mc.pushout_with_maps(onto, onto)
        lha.relative_characteristic(onto)
        pick = data.draw(st.lists(st.sampled_from(gens), min_size=1,
                                  max_size=2)) if gens else [monoid.zero]
        lib.blowup_charts(monoid, lib.MonoidIdeal(monoid, tuple(pick)))
    assert sites == SPANNING_SITES


# ---------------------------------------------------------------------------
# pushouts


def _incl(sub, sup):
    n = sup.ambient.lift_dim
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    import logmonoid.log_hom_analysis as lha
    return lha.MonoidHom(sub, sup, rows)


def _hom(src, dst, rows):
    import logmonoid.log_hom_analysis as lha
    return lha.MonoidHom(src, dst, rows)


def test_kummer_pushout_fine_and_fs():
    n1 = mc.free_monoid(1)
    double = _hom(n1, n1, [[2]])
    fine = mc.pushout(double, double, "fine")
    amb = fine.ambient
    assert (amb.free_rank, amb.invariant_factors) == (1, (2,))
    # the fine pushout misses exactly the purely-torsion element
    assert not fine.contains((0, 1))
    for level in range(1, 5):
        assert fine.contains((level, 0))
        assert fine.contains((level, 1))
    assert fine.contains((0, 0))
    fs = mc.pushout(double, double, "fs")
    assert fs.contains((0, 1))
    full = mc.AffineMonoid(amb, [(1, 0), (0, 1)])
    assert fs.same_submonoid(full)


def test_presentation_pushout_counts_generators():
    n1 = mc.free_monoid(1)
    double = _hom(n1, n1, [[2]])
    pres = mc.pushout(double, double, "presentation")
    assert pres.ngens == 2
    # integralizing the symbolic pushout gives the fine pushout
    fine = mc.integralize(pres)
    direct = mc.pushout(double, double, "fine")
    assert fine.ambient == direct.ambient


def test_pushout_along_identity_is_other_leg():
    # N <- N -> <2,3> (1 -> 2): pushout along the identity left leg is the
    # right-hand monoid, up to the sign convention of the quotient coordinates
    n1 = mc.free_monoid(1)
    target = mc.AffineMonoid.from_vectors([(2,), (3,)])
    ident = _hom(n1, n1, [[1]])
    into = _hom(n1, target, [[2]])
    po = mc.pushout(ident, into, "fine")
    assert po.ambient == target.ambient
    mirrored = mc.AffineMonoid(po.ambient,
                               [po.neg(g) for g in po.generators])
    assert po.same_submonoid(target) or mirrored.same_submonoid(target)


def test_pushout_with_maps_commutes():
    n1 = mc.free_monoid(1)
    n2 = mc.free_monoid(2)
    f = _hom(n1, n2, [[1], [1]])   # diagonal
    g = _hom(n1, n1, [[3]])
    res = mc.pushout_with_maps(f, g)
    amb = res.monoid.ambient
    # image of the shared source through both squares agrees
    src_gen = (1,)
    via_left = res.left_matrix @ f.matrix
    via_right = res.right_matrix @ g.matrix
    left_vec = tuple(int(sum(via_left[i, j] * src_gen[j]
                             for j in range(1))) for i in range(amb.lift_dim))
    right_vec = tuple(int(sum(via_right[i, j] * src_gen[j]
                              for j in range(1))) for i in range(amb.lift_dim))
    assert amb.reduce_vector(left_vec) == amb.reduce_vector(right_vec)


def test_pushout_mode_validation():
    n1 = mc.free_monoid(1)
    ident = _hom(n1, n1, [[1]])
    with pytest.raises(InputError):
        mc.pushout(ident, ident, "nonsense")
    other = _hom(mc.free_monoid(2), n1, [[1, 1]])
    with pytest.raises(InputError):
        mc.pushout(ident, other, "fine")  # different sources


# ---------------------------------------------------------------------------
# fiber products


def test_fiber_product_of_diagonal():
    # M = N -> N <- N = N with identity legs: fiber product is the diagonal N
    n1 = mc.free_monoid(1)
    ident = _hom(n1, n1, [[1]])
    pairs = mc.fiber_product_generators(ident, ident)
    assert [(m.as_vector(), n.as_vector()) for m, n in pairs] == [((1,), (1,))]
    fp = mc.fiber_product(ident, ident)
    assert fp.ambient.free_rank == 1


def test_fiber_product_solutions_are_generated():
    # f: N^2 -> N via (a,b) -> a+b, g: N -> N via x -> 2x
    n2, n1 = mc.free_monoid(2), mc.free_monoid(1)
    f = _hom(n2, n1, [[1, 1]])
    g = _hom(n1, n1, [[2]])
    pairs = mc.fiber_product_generators(f, g)
    # all nonneg (a, b, x) with a + b = 2x up to bound must be N-combinations
    got = sorted((m.as_vector(), n.as_vector()) for m, n in pairs)
    assert got == [((0, 2), (1,)), ((1, 1), (1,)), ((2, 0), (1,))]
    bound = 6
    gen_triples = [m.as_vector() + n.as_vector() for m, n in pairs]
    all_solutions = [(a, b, x)
                     for a in range(bound) for b in range(bound)
                     for x in range(bound) if a + b == 2 * x]
    for sol in all_solutions:
        found = False
        for coeffs in itertools.product(range(bound + 1),
                                        repeat=len(gen_triples)):
            combo = tuple(sum(c * t[i] for c, t in zip(coeffs, gen_triples))
                          for i in range(3))
            if combo == sol:
                found = True
                break
        assert found, sol


def test_fiber_product_with_torsion_target():
    # legs into Z/2: fiber product of N -> Z/2 (1 -> 1bar) with itself
    z2 = group_monoid(xl.FgAbelianGroup(0, (2,)))
    n1 = mc.free_monoid(1)
    leg = _hom(n1, z2, [[1]])
    pairs = mc.fiber_product_generators(leg, leg)
    got = sorted((m.as_vector(), n.as_vector()) for m, n in pairs)
    # parity-matching pairs are generated by (1,1), (2,0), (0,2)
    assert got == [((0,), (2,)), ((1,), (1,)), ((2,), (0,))]
