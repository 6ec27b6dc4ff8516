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
import time
from functools import partial

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.monoid_core as mc
from logmonoid._verify import _cone_units, _searched, facets
from logmonoid.errors import InputError

from conftest import (group_monoid, has_nonneg_solution, identity_hom,
                      relations_among)


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


@pytest.mark.parametrize("call", [
    lambda: mc.MonoidElement((0.5,)),
    lambda: mc.MonoidElement((1,), (0.5,)),
    lambda: mc.MonoidPresentation(1, (((0.5,), (1,)),)),
    lambda: mc.MonoidPresentation(1, (((1,),),)),
    lambda: mc.MonoidPresentation(1, (5,)),
    lambda: mc.AffineMonoid.from_vectors([(1.9, 0), (0, 1)]),
    lambda: mc.AffineMonoid.from_vectors([(1, 0), (0, 1)], (2.5,)),
    lambda: mc.free_monoid(2).contains((0.5, 0)),
], ids=["element_free", "element_torsion", "presentation",
        "relation_not_a_pair", "relation_not_iterable", "from_vectors",
        "torsion_orders", "contains"])
def test_non_integers_are_refused_not_truncated(call):
    with pytest.raises(InputError):
        call()


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
        "MonoidHom.apply": lambda: identity_hom(m).apply(bad),
        "add": lambda: m.add(bad, m.generators[0]),
        "neg": lambda: m.neg(bad),
        "sub": lambda: m.sub(m.generators[0], bad),
        "exponent_sum": lambda: mc.exponent_sum(m.ambient, (1,), (bad,)),
        "element": lambda: m.element(bad),
        "element_of": lambda: mc.element_of(m.ambient, bad),
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


def test_the_span_check_builds_no_group(count_calls):
    # whether the generators span is read off the invariant factors
    cokernels = count_calls(xl, "_cokernel_of")
    mc.AffineMonoid(xl.FgAbelianGroup(1, (2,)), [(1, 0), (1, 1)])
    mc.AffineMonoid.from_vectors([(1, 0), (1, 1)], (2,))
    mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])
    assert cokernels == []


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
                    im == g for im, g in zip(images, gens)):
                assert sub.contains(t) == want, (gens, t)


def test_membership_with_torsion():
    # Kummer-style monoid in Z (+) Z/2: generated by (1, 1bar) and (1, 0bar)
    m = mc.AffineMonoid.from_vectors([(1, 1), (1, 0)], torsion_orders=(2,))
    assert m.contains((2, 0))
    assert m.contains((2, 1))  # (1,1) + (1,0)
    assert m.contains((1, 1))
    assert not m.contains((0, 1))  # the famous missing element
    assert m.contains((0, 0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_lattice_membership_matches_the_search(data):
    monoid = data.draw(_monoids())
    amb, vectors = monoid.ambient, monoid._vectors
    k = len(vectors) - amb.free_rank
    event(f"kernel rank {k}" if amb.free_rank else "free rank 0")
    vec = st.tuples(*[st.integers(-4, 4)] * amb.free_rank,
                    *[st.integers(0, f - 1) for f in amb.invariant_factors])
    exponents = st.tuples(*[st.integers(0, 3)] * len(vectors))
    sums = [mc._combination(amb, e, vectors)
            for e in data.draw(st.lists(exponents, min_size=1, max_size=3))]
    for t in sums + data.draw(st.lists(vec, min_size=1, max_size=3)):
        if amb.free_rank and any(t) and k <= 2 and \
                mc._lattice_verdict(monoid._lattice, t) is None:
            event("search at kernel rank <= 2")
        assert mc.contains(monoid, t) == _searched(monoid, t), t
    assert all(mc.contains(monoid, t) for t in sums)


def _hand_sliced_relation_lattice(dec, n, lift):
    """The relation lattice as ``contains`` read it before it went through
    ``xl._kernel_columns``: the rows of V_head U and of the last columns of
    V, sliced by hand and cut to the n generator rows, the kernel handed
    on as columns, the form ``_lattice_verdict`` reads."""
    left, right = dec.left.rows, dec.right.rows[:n]
    particular = tuple(tuple(sum(a * b for a, b in zip(row[:lift], col))
                             for col in zip(*left)) for row in right)
    return particular, tuple(zip(*(row[lift:] for row in right)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_readings_of_the_kept_decomposition_match_the_old_ones(data):
    # the relations and the lattice of relations read off ``_lattice``,
    # re-presented monoids included, against the old readings: relations
    # from a decomposition of their own, and the lattice sliced by hand
    # off another
    monoid = data.draw(_monoids())
    amb, vectors = monoid.ambient, monoid._vectors
    rels = tuple((tuple(max(x, 0) for x in col), tuple(max(-x, 0) for x in col))
                 for col in relations_among(amb, vectors) if any(col))
    assert mc.presentation_of(monoid).relations == rels
    if not amb.free_rank:
        return
    old = _hand_sliced_relation_lattice(xl._decompose_among(amb, vectors),
                                        len(vectors), amb.lift_dim)
    vec = st.tuples(*[st.integers(-4, 4)] * amb.free_rank,
                    *[st.integers(0, f - 1) for f in amb.invariant_factors])
    exponents = st.tuples(*[st.integers(0, 3)] * len(vectors))
    sums = [mc._combination(amb, e, vectors)
            for e in data.draw(st.lists(exponents, min_size=1, max_size=3))]
    targets = sums + [amb.neg(t) for t in sums] + \
        data.draw(st.lists(vec, min_size=1, max_size=3))
    for t in targets:
        verdict = mc._lattice_verdict(old, t)
        assert mc._lattice_verdict(monoid._lattice, t) == verdict, t
        if verdict is not None:
            assert mc.contains(monoid, t) == verdict, t


def test_presentation_of_reads_the_decomposition_the_monoid_holds(
        count_calls):
    # the public constructor keeps the lattice of the decomposition that
    # checks its span, and from_vectors that of its own when it keeps the
    # coordinates
    monoids = [mc.AffineMonoid(xl.FgAbelianGroup(1, (2,)),
                               [(1, 0), (1, 1), (2, 1)]),
               mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])]
    assert all("_lattice" in vars(m) for m in monoids)
    calls = count_calls(xl, "_snf_full")
    relations = [mc.presentation_of(m).relations for m in monoids]
    assert calls == []
    assert relations == [tuple(
        (tuple(max(x, 0) for x in col), tuple(max(-x, 0) for x in col))
        for col in relations_among(m.ambient, m._vectors) if any(col))
        for m in monoids]
    assert relations[1] == (((1, 0, 1), (0, 2, 0)),)


def test_a_large_target_is_decided_at_once():
    # the search ran for more than 120 s on (200, 300), and 1.8 s on (60, 90)
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2), (1, 3)])
    start = time.perf_counter()
    assert m.contains((200, 300))
    assert m.contains((60, 90))
    assert not m.contains((200, 601))
    assert time.perf_counter() - start < 0.1


def test_a_far_hole_of_a_monoid_that_is_not_saturated_is_decided_at_once():
    # (2m + 1, 1) lies inside the cone, the quadrant, and in the group, but
    # every sum of the generators at height 1 has even first coordinate
    m = mc.AffineMonoid.from_vectors([(2, 0), (0, 1), (2, 1), (1, 2)])
    assert m.ambient == xl.FgAbelianGroup(2) and not mc.is_saturated(m)
    start = time.perf_counter()
    assert not m.contains((2 * 10 ** 6 + 1, 1))
    assert m.contains((2 * 10 ** 6 + 1, 2))
    assert m.contains((2 * 10 ** 6, 1))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("gens, torsion", [
    ([(1, 0), (0, 1)], ()),
    ([(1, 0), (1, 1), (1, 2)], ()),
    ([(1, 0), (1, 1), (1, 2), (1, 3)], ()),
    ([(2, 0), (0, 1), (2, 1), (1, 2)], ()),
    ([(1, 1), (1, 0), (2, 1)], (2,)),
    ([(1, 0, 0), (0, 1, 0), (1, 1, 2), (2, 1, 3), (1, 2, 3)], ()),
])
def test_a_sharp_monoid_of_kernel_rank_at_most_2_needs_no_search(
        gens, torsion, count_calls):
    m = mc.AffineMonoid.from_vectors(gens, torsion)
    assert not mc.units(m) and len(m._vectors) - m.ambient.free_rank <= 2
    searches = count_calls(xl, "_nonneg_solutions")
    box = itertools.product(range(-1, 7), repeat=m.ambient.free_rank)
    answers = [m.contains(t + (0,) * len(torsion)) for t in box]
    assert True in answers and False in answers
    assert searches == []


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
        # the old path: a fresh membership system for every query, as a
        # checked matrix through the public solver doors
        system = xl.intmat_from_columns(
            mc._membership_system(amb, [g.as_vector() for g in gens]),
            nrows=amb.lift_dim)
        want = xl.solve_nonneg(system, amb.reduce_vector(t))
        assert monoid.contains(t) == has_nonneg_solution(
            system, amb.reduce_vector(t))
        assert mc.expression(monoid, t) == (
            None if want is None else want[:len(gens)])


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_lift_vector_and_its_element_answer_alike(data):
    # residues outside [0, f) too: the door reduces a lift vector and a
    # MonoidElement alike, and the solver sees only the reduced target
    monoid = data.draw(_monoids(max_gens=4))
    amb = monoid.ambient
    r = amb.free_rank
    vec = st.tuples(*[st.integers(-3, 3)] * r,
                    *[st.integers(-2 * f, 2 * f) for f in amb.invariant_factors])
    targets = data.draw(st.lists(vec, min_size=1, max_size=3))
    targets += [amb.zero()] + list(monoid._vectors)
    for t in targets:
        elem = mc.MonoidElement(free=t[:r], torsion=t[r:])
        reduced = amb.reduce_vector(t)
        assert mc.vector_of(amb, t) == mc.vector_of(amb, elem) == reduced
        assert mc.element_of(amb, t) == mc.element_of(amb, elem) == \
            monoid.element(reduced)
        assert monoid.contains(t) == monoid.contains(elem) == \
            monoid.contains(reduced)
        assert mc.expression(monoid, t) == mc.expression(monoid, elem) == \
            mc.expression(monoid, reduced)


def test_constructions_build_elements_only_for_their_results(count_calls):
    # the package passes its own vectors as canonical tuples: no
    # construction goes back through element_of, and a MonoidElement is
    # built only for a generator or image it returns
    import logmonoid.log_hom_analysis as lha
    import logmonoid.log_ideal_blowup as lib
    torsion = mc.AffineMonoid.from_vectors([(1, 1), (1, 0), (2, 1)], (2,))
    units = mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (1, 2)])
    n1 = mc.free_monoid(1)
    double = lha.MonoidHom(n1, n1, [[2]])
    to_torsion = lha.MonoidHom(n1, torsion, [[2], [0]])
    plane = mc.free_monoid(2)
    ideal = lib.MonoidIdeal(plane, ((2, 0), (1, 1), (0, 2), (2, 2)))
    calls = count_calls(mc, "element_of")
    built = count_calls(mc, "_element")
    results = [mc.saturate(torsion), mc.sharpen(torsion), mc.sharpen(units),
               mc.span_submonoid(xl.FgAbelianGroup(2, ()), [(2, 0), (1, 1)])[0]]
    assert len(built) == sum(len(m.generators) for m in results)
    built.clear()
    pushout = mc.pushout_with_maps(double, to_torsion)
    assert len(built) == len(pushout.monoid.generators) + \
        len(pushout.left_images) + len(pushout.right_images)
    built.clear()
    charts = lib.blowup_charts(plane, ideal)
    # and the reduced ideal, whose generators are the chart centers
    assert len(built) == len(charts) + sum(
        len(c.fine.generators) + len(c.fs.generators) for c in charts)
    assert calls == []


def test_one_monoid_builds_its_membership_system_once(count_calls):
    builds = count_calls(mc, "_membership_system")
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])
    answers = [(m.contains(t), mc.expression(m, t))
               for t in [(0, 0), (2, 1), (0, 1), (3, 6), (1, -1)]]
    assert [a for a, _ in answers] == [True, True, False, True, False]
    assert len(builds) == 1


def test_expression_on_a_unit_rich_monoid():
    # every generator but (1,0,0) and (0,1,0) comes with its negative, so
    # the membership system has many homogeneous solutions; the capped
    # search reaches the lex-least expression without listing them all
    m = mc.AffineMonoid.from_vectors([(0, -1, 0), (25, 20, 33), (1, 0, 0),
                                      (-20, -16, -25), (0, 1, 0),
                                      (20, 16, 25)])
    assert mc.expression(m, (1, 0, 0)) == (0, 0, 1, 0, 0, 0)
    assert mc.expression(m, (0, -1, 0)) == (0, 25, 35, 33, 27, 0)
    assert mc.expression(m, (0, 1, 0)) == (0, 0, 0, 0, 1, 0)


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


@st.composite
def _finite_group_monoids(draw):
    """Monoids of free rank 0: up to four elements of a finite group
    Z/f_1 (+) ..., re-presented on their span (the trivial monoid when
    none is drawn or all are zero)."""
    orders = draw(st.sampled_from([(2,), (3,), (2, 4), (6,), (2, 2, 2), (3, 9)]))
    vec = st.tuples(*[st.integers(0, f - 1) for f in orders])
    return mc.AffineMonoid.from_vectors(
        draw(st.lists(vec, max_size=4)), orders)


def _saturate_of_a_finite_group(monoid):
    """The saturation of a monoid of free rank 0 as the removed special
    case built it: the torsion unit vectors of its ambient group."""
    amb = monoid.ambient
    assert amb.free_rank == 0
    units = [tuple(int(i == j) for j in range(amb.lift_dim))
             for i in range(amb.lift_dim)]
    return mc.AffineMonoid._spanning(amb, units)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(_finite_group_monoids())
def test_saturate_of_a_finite_group_takes_the_general_path(monoid):
    # the cone of free parts is {0}, with no lattice generators
    assert cc.cone_lattice_generators(monoid._cone) == ()
    assert mc.saturate(monoid) == _saturate_of_a_finite_group(monoid)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_characteristic_rank_is_the_rank_of_the_sharpening(data):
    monoid = data.draw(_monoids(max_gens=4))
    assert mc.characteristic_rank(monoid) == \
        mc.sharpen(monoid).ambient.free_rank


def test_characteristic_rank_runs_no_solver(no_solver):
    # rank M^gp / M^x needs the unit quotient only, not the irreducibles
    m = mc.AffineMonoid.from_vectors(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1), (0, 2, 1), (0, 3, 1)])
    assert mc.characteristic_rank(m) == 2


def _sharpened_by_search(monoid):
    """The generators of ``sharpen`` as its earlier scan found them: the
    images of the generators in M/M^x in lex order, each dropped when one
    Contejean-Devie search writes it in the images kept and those after it."""
    quot, proj = xl.quotient_presentation(
        monoid.ambient, [u.as_vector() for u in mc.units(monoid)])
    current = sorted(mc._distinct_nonzero(
        quot.reduce_vector(xl.apply(proj, v)) for v in monoid._vectors))
    keep = []
    for i, g in enumerate(current):
        rest = keep + current[i + 1:]
        if next(xl._nonneg_solutions(mc._membership_system(quot, rest), g),
                None) is None:
            keep.append(g)
    return quot, current, tuple(keep)


@st.composite
def _sharp_quotients(draw):
    """Monoids whose sharp quotients have free rank 1 to 3, torsion, and
    kernel rank 0 to 4; in some draws a generator comes with its negative,
    a unit that the quotient divides out.  Five generators at free rank 1
    leave four to the rest, whose lattice has rank 3: the search."""
    rank = draw(st.integers(1, 3))
    orders = draw(st.sampled_from([(), (2,), (3,), (2, 2)]))
    vec = st.tuples(*[st.integers(-2, 4)] * rank,
                    *[st.integers(0, f - 1) for f in orders])
    more = draw(st.integers(rank - 1, rank + 3))
    gens = [draw(vec.filter(lambda v: any(v[:rank])))] + \
        draw(st.lists(vec, min_size=more, max_size=more))
    if draw(st.booleans()):
        gens.append(tuple(-x for x in gens[-1]))
    try:
        # generators that span keep their small entries, which the search
        # needs: from_vectors would re-present a proper span
        return mc.AffineMonoid(xl.FgAbelianGroup(rank, orders), gens)
    except InputError:
        reject()


@settings(derandomize=True, database=None, deadline=None, max_examples=250,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(_sharp_quotients())
def test_sharpen_keeps_the_generators_of_the_search(monoid):
    quot, images, kept = _sharpened_by_search(monoid)
    event(f"kernel rank {len(images) - quot.free_rank}")
    sharp = mc.sharpen(monoid)
    assert (sharp.ambient, sharp._vectors) == (quot, kept)


# sharp, of kernel rank 2 (the search took 9 s on it) and 3
MOTIVATING = [(-2, 6, 5), (6, 0, -2), (5, -3, 3), (4, 0, 2), (3, -1, 4)]
KERNEL_RANK_3 = [(1, 0), (1, 1), (1, 2), (2, 3), (3, 5)]


def test_the_motivating_monoid_is_sharpened_at_once():
    m = mc.AffineMonoid.from_vectors(MOTIVATING)
    start = time.perf_counter()
    sharp = mc.sharpen(m)
    predicates = mc.predicates(m)
    assert time.perf_counter() - start < 1
    # what the search found, in the coordinates from_vectors re-presents
    assert [g.as_vector() for g in sharp.generators] == [
        (-29, -79, -6), (-2, -4, 0), (0, 0, 1), (2, 9, 0), (9, 25, 3)]
    assert predicates == mc.MonoidPredicates(
        is_sharp=True, is_saturated=False, is_toric=False, is_free=False)


@pytest.mark.parametrize("gens, kept", [
    (MOTIVATING, 5), (KERNEL_RANK_3, 3)], ids=["k=2", "k=3"])
def test_sharpen_searches_nothing_below_kernel_rank_4(gens, kept, count_calls):
    # the rest has one generator less, so its lattice has rank at most 2
    m = mc.AffineMonoid.from_vectors(gens)
    assert not mc.units(m) and len(m._vectors) - m.ambient.free_rank <= 3
    searches = count_calls(xl, "_nonneg_solutions")
    assert len(mc.sharpen(m).generators) == kept
    assert searches == []


def test_sharpen_searches_at_kernel_rank_4(count_calls):
    # N generated by 2, 3, 5, 7, 11: the rest of 2 is 3, 5, 7, 11, whose
    # lattice has rank 3, and only 2 and 3 are irreducible
    searches = count_calls(xl, "_nonneg_solutions")
    m = mc.AffineMonoid.from_vectors([(2,), (3,), (5,), (7,), (11,)])
    sharp = mc.sharpen(m)
    assert sharp._vectors == ((2,), (3,))
    assert searches


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


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monoids())
def test_is_toric_matches_predicates(monoid):
    assert mc.is_toric(monoid) == mc.predicates(monoid).is_toric


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monoids())
def test_a_saturation_keeps_the_cone_of_its_monoid(monoid):
    sat = mc.saturate(monoid)
    assert sat._cone is monoid._cone
    assert sat._cone == cc.RationalCone.from_rays(
        [g.free for g in sat.generators], sat.ambient.free_rank)


def test_the_units_of_a_saturation_build_no_cone(count_calls):
    # Z x N (+) Z/2: a line of units and torsion; the saturation is handed
    # the cone of the monoid, which saturate built
    m = mc.AffineMonoid.from_vectors(
        [(1, 0, 0), (-1, 0, 1), (1, 2, 0), (0, 1, 1)], (2,))
    sat = mc.saturate(m)
    calls = count_calls(cc.RationalCone, "_of_rays")
    units = mc.units(sat)
    assert calls == []
    assert [u.as_vector() for u in units] == [(-1, 0, 0), (0, 0, 1),
                                              (1, 0, 0)]


def _solver_units(monoid):
    """The invertible generators by one membership search each."""
    return tuple(sorted(g for g in monoid.generators
                        if _searched(monoid, monoid.neg(g))))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_monoids(max_gens=4))
def test_units_match_solver_oracle(monoid):
    # at five drawn generators the oracle takes over 20 s on some sharp draws
    import logmonoid.log_ideal_blowup as lib
    want = _solver_units(monoid)
    assert mc.units(monoid) == want
    # the --verify route: the dual cone, found afresh
    assert tuple(sorted(_cone_units(monoid))) == want
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
    (partial(mc.free_monoid, 0), 0),
    (partial(_all_units), 1),
]


@pytest.mark.parametrize("monoid, calls", CONE_OF_FREE_PARTS_CALLS)
def test_spec_builds_at_most_the_cone_of_free_parts(monoid, calls,
                                                     count_calls):
    cone_builds = count_calls(cc.RationalCone, "_of_rays")
    mc.spec(monoid())
    assert len(cone_builds) == calls


@pytest.mark.parametrize("monoid, calls", CONE_OF_FREE_PARTS_CALLS)
def test_units_build_at_most_the_cone_of_free_parts(monoid, calls,
                                                    count_calls, no_solver):
    cone_builds = count_calls(cc.RationalCone, "_of_rays")
    mc.units(monoid())
    assert len(cone_builds) == calls


@pytest.mark.parametrize("monoid, calls", CONE_OF_FREE_PARTS_CALLS)
def test_sharpen_builds_no_cone_for_the_quotient(monoid, calls, count_calls):
    # M/M^x is sharp by construction: only units(M) builds a cone
    cone_builds = count_calls(cc.RationalCone, "_of_rays")
    mc.sharpen(monoid())
    assert len(cone_builds) == calls


def test_units_of_the_all_units_monoid_need_no_solver(no_solver):
    import logmonoid.log_ideal_blowup as lib
    all_units = _all_units()
    assert mc.units(all_units) == tuple(sorted(all_units.generators))
    assert mc.sharpen(all_units).ambient.is_trivial
    assert mc.characteristic_rank(all_units) == 0
    assert lib.maximal_ideal(all_units).is_empty


@pytest.mark.parametrize("monoid", [
    partial(_all_units), partial(group_monoid, xl.FgAbelianGroup(2, (2,))),
    partial(mc.free_monoid, 0)])
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
        _searched(monoid, g) for g in sat._vectors)


# ---------------------------------------------------------------------------
# trusted construction


SPANNING_SITES = {"span_submonoid", "free_monoid", "integralize",
                  "saturate", "sharpen",
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
        mc.free_monoid(0)
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


def test_package_built_values_are_not_checked_again(count_calls):
    # a caller's matrix is checked once, when the hom is built; after that
    # no construction goes back through the checked matrix builders or the
    # public solver doors
    import logmonoid.log_hom_analysis as lha
    torsion = mc.AffineMonoid.from_vectors([(1, 1), (1, 0), (2, 1)], (2,))
    n1 = mc.free_monoid(1)
    double = _hom(n1, n1, [[2]])
    to_torsion = _hom(n1, torsion, [[2], [0]])
    cone = cc.RationalCone.from_rays([(1, 0, 0), (0, 1, 0), (1, 2, 5)], 3)
    fan = cc.fan_from_cones([cone], 3)
    doors = {name: count_calls(xl, name) for name in (
        "intmat", "intmat_from_columns", "solve_nonneg")}
    mc.saturate(torsion)
    mc.sharpen(torsion)
    torsion.contains((3, 1))
    mc.expression(torsion, (3, 1))
    mc.fiber_product(double, double)
    mc.pushout_with_maps(double, to_torsion)
    lha.kato_criterion(to_torsion, 2)
    cc.hilbert_basis(cone)
    cc.resolve(fan)
    assert {name: len(calls) for name, calls in doors.items()} == \
        dict.fromkeys(doors, 0)


@st.composite
def _groups(draw):
    """Groups Z^r (+) Z/f_1 (+) ..., r = 0..3, with up to two invariant
    factors in a divisibility chain."""
    factors = [draw(st.integers(2, 4))]
    for _ in range(draw(st.integers(0, 1))):
        factors.append(factors[-1] * draw(st.integers(1, 3)))
    return xl.FgAbelianGroup(draw(st.integers(0, 3)),
                             tuple(factors[:draw(st.integers(0, 2))]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_trusted_cores_match_their_doors(data):
    # on the tuples of ints the package holds, each trusted core gives what
    # its checked door gives: the door is the oracle
    group = data.draw(_groups())
    r = group.free_rank
    vec = st.tuples(*[st.integers(-12, 12)] * group.lift_dim)
    raw = data.draw(st.lists(vec, min_size=1, max_size=4))
    reduced = [group._reduce(v) for v in raw]
    assert reduced == [group.reduce_vector(v) for v in raw]
    for x, y in zip(raw, raw[1:] + raw[:1]):
        assert group._add(x, y) == group.add(x, y)
        assert group._sub(x, y) == group.sub(x, y)
        assert group._neg(x) == group.neg(x)
    trusted = [mc._element(group, v) for v in reduced]
    checked = [mc.MonoidElement(v[:r], v[r:]) for v in reduced]
    for a, a_door in zip(trusted, checked):
        assert a == a_door and hash(a) == hash(a_door)
        assert repr(a) == repr(a_door)
        for b, b_door in zip(trusted, checked):
            assert (a < b, a <= b, a == b) == \
                (a_door < b_door, a_door <= b_door, a_door == b_door)
    m, n = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.tuples(*[st.integers(-6, 6)] * n),
                              min_size=m, max_size=m))
    dec = xl._snf_full(xl.IntMatrix(tuple(rows), n))
    coker = xl._cokernel_of(dec)
    door = xl.FgAbelianGroup(dec.left.ncols - len(dec.diag),
                             tuple(f for f in dec.diag if f >= 2))
    assert coker == door and hash(coker) == hash(door)
    assert type(coker.free_rank) is int and coker.lift_dim == door.lift_dim
    dim = data.draw(st.integers(0, 4))
    rays = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                              max_size=5))
    assert cc.RationalCone._of_rays(rays, dim) == \
        cc.RationalCone.from_rays(rays, dim)


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


def test_fiber_product_of_an_empty_fiber_is_trivial():
    # N -> Z <- N by 1 -> 1 and 1 -> -1 meet only in (0, 0)
    z1 = group_monoid(xl.FgAbelianGroup(1, ()))
    n1 = mc.free_monoid(1)
    up, down = _hom(n1, z1, [[1]]), _hom(n1, z1, [[-1]])
    assert mc.fiber_product_generators(up, down) == []
    assert mc.fiber_product(up, down) == mc.free_monoid(0)


def _old_fiber_product_generators(f, g):
    """The fiber product generators as they were built before the
    membership system served them: slack columns that add and subtract
    each torsion order."""
    l_amb = f.target.ambient
    m_mon, n_mon = f.source, g.source
    cols = [f.apply(m).as_vector() for m in m_mon.generators]
    cols += [l_amb.neg(g.apply(n).as_vector()) for n in n_mon.generators]
    cols += [tuple(s * x for x in c)
             for c in l_amb.relation_columns() for s in (1, -1)]
    a = xl.intmat_from_columns(cols, nrows=l_amb.lift_dim)
    p, q = len(m_mon.generators), len(n_mon.generators)
    pairs = []
    for sol in sorted(xl.minimal_nonneg_solutions(a)):
        am, bn = sol[:p], sol[p:p + q]
        pair = (mc.exponent_sum(m_mon.ambient, am, m_mon.generators),
                mc.exponent_sum(n_mon.ambient, bn, n_mon.generators))
        if (any(am) or any(bn)) and pair not in pairs:
            pairs.append(pair)
    return pairs


@st.composite
def _cospans(draw):
    """Homs N^p -> L <- N^q, p, q <= 3, into a monoid L of Z^r (+) torsion,
    r <= 2, on the lift basis and up to two more small elements: each basis
    vector of N^p goes to a sum of generators of L with coefficients 0..2."""
    rank = draw(st.integers(0, 2))
    orders = draw(st.sampled_from([(2,), (3,), (2, 4), (6,)]))
    amb = xl.FgAbelianGroup(rank, orders)
    vec = st.tuples(*[st.integers(-2, 2)] * rank,
                    *[st.integers(0, f - 1) for f in orders])
    basis = [tuple(int(i == j) for j in range(amb.lift_dim))
             for i in range(amb.lift_dim)]
    target = mc.AffineMonoid(amb, basis + draw(st.lists(vec, max_size=2)))
    gens = target.generators

    def leg(k):
        coeffs = draw(st.lists(
            st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens)),
            min_size=k, max_size=k))
        images = [mc.exponent_sum(target.ambient, c, gens).as_vector()
                  for c in coeffs]
        return _hom(mc.free_monoid(k), target,
                    [list(row) for row in zip(*images)])

    return leg(draw(st.integers(1, 3))), leg(draw(st.integers(1, 3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cospans())
def test_fiber_product_matches_the_old_slack_system(legs):
    f, g = legs
    assert mc.fiber_product_generators(f, g) == \
        _old_fiber_product_generators(f, g)


def _fiber_product_generators_skipping_slack(f, g):
    """``fiber_product_generators`` with the removed skip of minimal
    solutions that have no generator exponent."""
    m_mon, n_mon = f.source, g.source
    a = mc._membership_system(
        f.target.ambient, [f.apply(m).as_vector() for m in m_mon.generators] +
        [g.target.neg(g.apply(n)).as_vector() for n in n_mon.generators])
    p, q = len(m_mon.generators), len(n_mon.generators)
    pairs = []
    for sol in sorted(xl._minimal_solutions(xl._gram(a))):
        am, bn = sol[:p], sol[p:p + q]
        pair = (mc.exponent_sum(m_mon.ambient, am, m_mon.generators),
                mc.exponent_sum(n_mon.ambient, bn, n_mon.generators))
        if (any(am) or any(bn)) and pair not in pairs:
            pairs.append(pair)
    return pairs


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cospans())
def test_no_fiber_product_solution_is_slack_alone(legs):
    # the slack columns -f_i e_i sit on distinct coordinates, so a nonzero
    # minimal solution always has a generator exponent
    f, g = legs
    k = len(f.source.generators) + len(g.source.generators)
    a = mc._membership_system(
        f.target.ambient, [f.apply(m).as_vector() for m in f.source.generators] +
        [g.target.neg(g.apply(n)).as_vector() for n in g.source.generators])
    assert all(any(sol[:k]) for sol in xl._minimal_solutions(xl._gram(a)))
    assert mc.fiber_product_generators(f, g) == \
        _fiber_product_generators_skipping_slack(f, g)
