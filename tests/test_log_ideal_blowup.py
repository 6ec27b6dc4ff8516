"""Tests for monoid ideals and their blowups.

The exact chart shapes for the plane blown up at the origin are written out
by hand; random cases check the structural properties (charts contain the
host, pulled-back ideals become principal, the construction is idempotent).
"""

import contextlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.log_hom_analysis as lha
import logmonoid.log_ideal_blowup as lib
import logmonoid.monoid_core as mc
from logmonoid import cli
from logmonoid._verify import check_blowup_fan
from logmonoid.errors import DomainError, InputError
from conftest import monoid_of_cone
from test_monoid_core import _monoids


def _n2():
    return mc.free_monoid(2)


# ---------------------------------------------------------------------------
# ideals


def test_ideal_normalization_and_membership():
    m = _n2()
    ideal = lib.MonoidIdeal(m, (m.element((1, 0)), m.element((0, 1)),
                                m.element((1, 1))))
    red = ideal.reduce()
    assert sorted(g.as_vector() for g in red.generators) == [(0, 1), (1, 0)]
    assert ideal.contains(m.element((3, 2)))
    assert not ideal.contains(m.zero)
    assert not ideal.is_empty


def test_ideal_rejects_outside_generators():
    m = mc.AffineMonoid.from_vectors([(2,), (3,)])
    with pytest.raises(DomainError):
        lib.MonoidIdeal(m, (m.element((1,)),))


def test_maximal_ideal():
    m = mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (0, 1)])
    mx = lib.maximal_ideal(m)
    assert sorted(g.as_vector() for g in mx.generators) == [(0, 1)]
    sharp_max = lib.maximal_ideal(_n2())
    assert sorted(g.as_vector() for g in sharp_max.generators) == \
        [(0, 1), (1, 0)]


def test_invertibility():
    m = _n2()
    principal = lib.MonoidIdeal(m, (m.element((1, 1)),))
    assert lib.is_invertible(principal)
    # a principal ideal written with redundant generators
    padded = lib.MonoidIdeal(m, (m.element((1, 1)), m.element((2, 1))))
    assert lib.is_invertible(padded)
    corner = lib.maximal_ideal(m)
    assert not lib.is_invertible(corner)
    empty = lib.MonoidIdeal(m, ())
    assert not lib.is_invertible(empty)


def _is_invertible_with_empty_case(ideal):
    """``is_invertible`` with the removed answer for the empty ideal."""
    if ideal.is_empty:
        return False
    return len(ideal.reduce().generators) == 1


@st.composite
def _ideals(draw):
    """An ideal of a drawn monoid on up to three sums of its generators
    with coefficients 0..2, or on none (the empty ideal)."""
    monoid = draw(_monoids(max_gens=4))
    gens = monoid.generators
    coeffs = st.lists(st.integers(0, 2), min_size=len(gens), max_size=len(gens))
    return lib.MonoidIdeal(monoid, tuple(
        mc.exponent_sum(monoid.ambient, c, gens)
        for c in draw(st.lists(coeffs, max_size=3))))


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ideals())
def test_is_invertible_matches_the_empty_case_split(ideal):
    assert lib.is_invertible(ideal) == _is_invertible_with_empty_case(ideal)


@pytest.mark.parametrize("monoid", [
    mc.free_monoid(0), mc.free_monoid(2),
    mc.AffineMonoid.from_vectors([(1, 0), (-1, 0), (0, 1)], (2,))],
    ids=["trivial", "N2", "with-units-and-torsion"])
def test_the_empty_ideal_reduces_to_no_generators(monoid):
    empty = lib.MonoidIdeal(monoid, ())
    assert empty.reduce().generators == ()
    assert not lib.is_invertible(empty)


# ---------------------------------------------------------------------------
# blowup charts


def test_blowup_of_plane_at_origin():
    m = _n2()
    ideal = lib.maximal_ideal(m)
    charts = lib.blowup_charts(m, ideal)
    assert len(charts) == 2
    by_center = {c.center.as_vector(): c for c in charts}
    # chart at s = (0,1): generated by (0,1) and (1,-1) after saturation
    fs0 = by_center[(0, 1)].fs
    assert sorted(g.as_vector() for g in fs0.generators) == [(0, 1), (1, -1)]
    fs1 = by_center[(1, 0)].fs
    assert sorted(g.as_vector() for g in fs1.generators) == [(-1, 1), (1, 0)]
    for chart in charts:
        pred = mc.predicates(chart.fs)
        assert pred.is_sharp and pred.is_saturated and pred.is_free
        # the fine chart has the same saturation
        assert mc.saturate(chart.fine).same_submonoid(chart.fs)


def test_blowup_charts_contain_host():
    m = _n2()
    charts = lib.blowup_charts(m, lib.maximal_ideal(m))
    for chart in charts:
        for g in m.generators:
            assert chart.fine.contains(g.as_vector())


def test_blowup_pulled_ideal_is_principal():
    m = _n2()
    ideal = lib.maximal_ideal(m)
    for chart in lib.blowup_charts(m, ideal):
        pulled = lib.pulled_ideal(chart.fine, ideal)
        assert lib.is_invertible(pulled)
        pulled_fs = lib.pulled_ideal(chart.fs, ideal)
        assert lib.is_invertible(pulled_fs)
    assert lib.blowup_is_idempotent(m, ideal)


def test_blowup_of_principal_ideal_is_trivial():
    m = _n2()
    principal = lib.MonoidIdeal(m, (m.element((2, 1)),))
    charts = lib.blowup_charts(m, principal)
    assert len(charts) == 1
    assert charts[0].fine.same_submonoid(m)
    assert lib.blowup_is_idempotent(m, principal)


def test_blowup_of_empty_ideal_rejected():
    m = _n2()
    empty = lib.MonoidIdeal(m, ())
    with pytest.raises(DomainError):
        lib.blowup_charts(m, empty)
    with pytest.raises(DomainError):
        lib.blowup_fan(m, empty)


def test_blowup_host_mismatch_rejected():
    m = _n2()
    other = mc.free_monoid(2)
    ideal = lib.maximal_ideal(m)
    assert other == m  # equal monoids are fine
    three = mc.free_monoid(3)
    with pytest.raises(InputError):
        lib.blowup_charts(three, ideal)


def test_blowup_a1_cone_point():
    # the A_1 monoid <(1,0),(1,1),(1,2)>: three ideal generators give three
    # charts, the middle one with units (its saturation is not sharp)
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])
    ideal = lib.maximal_ideal(m)
    charts = lib.blowup_charts(m, ideal)
    assert len(charts) == 3
    middle = [c for c in charts if c.center.as_vector() == (1, 1)][0]
    assert mc.units(middle.fs)  # nontrivial units: N x Z shaped
    assert lib.blowup_is_idempotent(m, ideal)


def test_blowup_random_pulled_principal_and_idempotent():
    rng = random.Random(71)
    done = 0
    while done < 12:
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(k)]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        m = mc.AffineMonoid.from_vectors(gens)
        if not m.generators:
            continue
        n_ideal = rng.randint(1, min(2, len(m.generators)))
        ideal_gens = tuple(m.generators[i]
                           for i in range(len(m.generators)))[:n_ideal]
        ideal = lib.MonoidIdeal(m, ideal_gens)
        charts = lib.blowup_charts(m, ideal)
        for chart in charts:
            assert lib.is_invertible(lib.pulled_ideal(chart.fine, ideal))
            assert lib.is_invertible(lib.pulled_ideal(chart.fs, ideal))
        assert lib.blowup_is_idempotent(m, ideal)
        done += 1


# ---------------------------------------------------------------------------
# blowup fan


def test_blowup_fan_of_plane():
    m = _n2()
    fan = lib.blowup_fan(m, lib.maximal_ideal(m))
    assert len(fan.maximal_cones) == 2
    assert sorted(fan.rays()) == [(0, 1), (1, 0), (1, 1)]
    assert fan.is_regular()


def test_blowup_fan_charts_duality():
    # each maximal cone's dual recovers the fs chart of the matching center
    m = _n2()
    ideal = lib.maximal_ideal(m)
    charts = lib.blowup_charts(m, ideal)
    fan = lib.blowup_fan(m, ideal)
    chart_monoids = [c.fs for c in charts]
    for cone in fan.maximal_cones:
        dual = cc.dual_cone(cone)
        lattice = mc.AffineMonoid.from_vectors(
            cc.cone_lattice_generators(dual))
        assert any(lattice.same_submonoid(chart) for chart in chart_monoids)


def test_blowup_fan_a1_has_fewer_cones_than_charts():
    # the middle chart of the A_1 blowup is not the dual monoid of any
    # full-dimensional linearity region: 3 charts, 2 maximal cones
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)])
    ideal = lib.maximal_ideal(m)
    assert len(lib.blowup_charts(m, ideal)) == 3
    fan = lib.blowup_fan(m, ideal)
    assert len(fan.maximal_cones) == 2


def test_blowup_fan_requires_toric_host():
    m = mc.AffineMonoid.from_vectors([(2,), (3,)])  # not saturated
    ideal = lib.maximal_ideal(m)
    with pytest.raises(DomainError):
        lib.blowup_fan(m, ideal)


@st.composite
def _toric_ideals(draw):
    """An ideal of a toric monoid: the lattice points of a full-dimensional
    pointed cone in Z^2 or Z^3.  The ideal is generated by one to three of
    the monoid's generators, which are irreducible, so none divides
    another, and by at most one sum of generators."""
    dim = draw(st.sampled_from([2, 3]))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    cone = cc.RationalCone.from_rays(
        draw(st.lists(vec, min_size=dim, max_size=dim + 1, unique=True)), dim)
    assume(cone.is_strongly_convex and cone.is_full_dimensional)
    m = monoid_of_cone(cone)
    n = len(m.generators)
    picks = draw(st.lists(st.sampled_from(m._vectors), min_size=1,
                          max_size=3, unique=True))
    sums = draw(st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                         max_size=1))
    # generators and their sums lie in the monoid, so the public
    # constructor's membership solve, seconds on some draws, is skipped
    return lib.MonoidIdeal._of_members(m, picks + [
        mc.exponent_sum(m.ambient, e, m.generators).as_vector()
        for e in sums if any(e)])


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(_toric_ideals())
def test_blowup_fan_passes_every_verify_check(ideal):
    # the regions are a fan by theorem: the all-pairs reduction drops none,
    # they meet along common faces and they cover the dual cone
    fan = lib.blowup_fan(ideal.host, ideal)
    assert cc.Fan(dim=fan.dim, maximal_cones=fan.maximal_cones) == fan
    assert list(check_blowup_fan(ideal, fan)) == [
        "in_dual_cone", "fan", "covers"]


def test_blowup_fan_reduces_and_checks_no_region(count_calls):
    hosts = [_n2(), mc.AffineMonoid.from_vectors([(1, 0), (1, 1), (1, 2)]),
             mc.free_monoid(3)]
    ideals = [lib.maximal_ideal(m) for m in hosts]
    calls = [count_calls(cc.RationalCone, "contains_cone"),
             count_calls(cc, "_facet_separator"),
             count_calls(cc, "_lemma_separator")]
    fans = [lib.blowup_fan(m, ideal) for m, ideal in zip(hosts, ideals)]
    assert [len(fan.maximal_cones) for fan in fans] == [2, 2, 3]
    assert calls == [[], [], []]


def _verify_blowup_fan_with(monkeypatch, capsys, swap):
    """The stderr of ``blowup-fan --verify`` on the golden case
    ``blowup-fan-plane``, whose regions are cone((0, 1), (1, 1)) and
    cone((1, 0), (1, 1)), with each region that ``swap`` names replaced
    by its value.  ``blowup-fan`` trusts the regions and exits 0;
    ``--verify`` reports the result as an internal fault."""
    path = (Path(__file__).parent / "golden" / "cases" / "blowup-fan-plane"
            / "ideal.json")
    real = cc.cone_from_constraints

    def injected(normals, equations, dim):
        region = real(normals, equations, dim)
        return swap.get(region, region)

    monkeypatch.setattr(cc, "cone_from_constraints", injected)
    assert cli.main(["blowup-fan", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["blowup-fan", "--verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_blowup_fan_verify_reports_an_overlapping_region(monkeypatch, capsys):
    # cone((1, 0), (1, 2)) overlaps cone((0, 1), (1, 1)) in
    # cone((1, 1), (1, 2)), a face of neither
    err = _verify_blowup_fan_with(monkeypatch, capsys, {
        cc.RationalCone.from_rays([(1, 0), (1, 1)], 2):
            cc.RationalCone.from_rays([(1, 0), (1, 2)], 2)})
    assert "blowup fan is not a fan" in err


def test_blowup_fan_verify_reports_a_missing_region(monkeypatch, capsys):
    # cone((1, 0), (2, 1)) leaves cone((2, 1), (1, 1)) uncovered
    err = _verify_blowup_fan_with(monkeypatch, capsys, {
        cc.RationalCone.from_rays([(1, 0), (1, 1)], 2):
            cc.RationalCone.from_rays([(1, 0), (2, 1)], 2)})
    assert "blowup fan does not cover the dual cone of the host" in err


# ---------------------------------------------------------------------------
# trusted construction


@contextlib.contextmanager
def _checked_members():
    """Rebuilds every ``MonoidIdeal._of_members`` result through the public
    constructor, which raises DomainError for a generator outside the host,
    and requires the two to be equal.  Yields the set of calling functions."""
    trusted = lib.MonoidIdeal._of_members.__func__
    sites = set()

    def checked(cls, host, vectors):
        vectors = list(vectors)
        out = trusted(cls, host, vectors)
        assert lib.MonoidIdeal(host, tuple(vectors)) == out
        sites.add(sys._getframe(1).f_code.co_name)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lib.MonoidIdeal, "_of_members", classmethod(checked))
        yield sites


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_trusted_ideals_match_the_public_constructor(data):
    with _checked_members() as sites:
        monoid = data.draw(_monoids(max_gens=4))
        lib.maximal_ideal(monoid).reduce()
        gens = monoid.generators
        pick = data.draw(st.lists(st.sampled_from(gens), min_size=1,
                                  max_size=2)) if gens else [monoid.zero]
        ideal = lib.MonoidIdeal(monoid, tuple(pick))
        lib.charts_are_idempotent(lib.blowup_charts(monoid, ideal), ideal)
    assert sites == {"maximal_ideal", "reduce", "pulled_ideal"}


def test_package_tuples_skip_the_membership_door(monkeypatch):
    # only a caller's value is reduced by ``vector_of`` inside ``contains``:
    # the ideal's own checks and divisibility tests, ``same_submonoid`` and
    # ``is_saturated`` hold canonical tuples and call the trusted core
    doors = []
    real = xl.FgAbelianGroup.reduce_vector

    def counting(group, vec):
        caller = sys._getframe(1)
        if caller.f_code is mc.vector_of.__code__ and \
                caller.f_back.f_code is mc.contains.__code__:
            doors.append(vec)
        return real(group, vec)

    monkeypatch.setattr(xl.FgAbelianGroup, "reduce_vector", counting)
    # not saturated: (1, 0, 0) is missing, and (2, 0, 0) is a generator
    host = mc.AffineMonoid(xl.FgAbelianGroup(2, (2,)),
                           [(2, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1)])
    ideal = lib.MonoidIdeal(host, [(2, 1, 1), (3, 3, 1), (2, 2, 0),
                                   (4, 4, 0), (1, 1, 1)])
    assert [g.as_vector() for g in ideal.reduce().generators] == \
        [(1, 1, 1), (2, 1, 1)]
    assert ideal.contains((5, 5, 1)) and not ideal.contains((0, 1, 0))
    charts = lib.blowup_charts(host, ideal)
    assert lib.charts_are_idempotent(charts, ideal)
    assert not mc.is_saturated(host)
    assert mc.saturate(charts[0].fine).same_submonoid(charts[0].fs)
    assert doors == []
    # a caller's lift vector goes through the door once
    assert host.contains((3, 3, 1))
    assert doors == [(3, 3, 1)]


def test_package_values_reach_no_checked_door(monkeypatch):
    # the package's own tuples go to the trusted cores: of the doors split
    # into a check and a core, only those of a caller's values (vector_of,
    # from_vectors, subgroup_presentation) are entered from the package.  A
    # door entered is recorded with the first function up the stack that
    # is neither a door nor a comprehension, when it is in the package
    doors = [(xl.FgAbelianGroup, "_vector"), (xl.FgAbelianGroup, "__post_init__"),
             (mc.MonoidElement, "__post_init__"), (cc.RationalCone, "contains"),
             (cc.RationalCone, "contains_cone"), (cc, "extreme_rays_of_halfspaces")]
    skipped = {f.__code__ for f in (
        xl.FgAbelianGroup.reduce_vector, xl.FgAbelianGroup.add,
        xl.FgAbelianGroup.sub, xl.FgAbelianGroup.neg, xl.FgAbelianGroup.scale,
        xl.FgAbelianGroup.__init__, mc.MonoidElement.__init__,
        cc.RationalCone.from_rays.__func__)}
    sites = []

    def entered(real):
        def checked(*args, **kwargs):
            frame = sys._getframe(1)
            while frame.f_code in skipped or frame.f_code.co_name[0] == "<":
                frame = frame.f_back
            if frame.f_globals["__name__"].startswith("logmonoid."):
                sites.append(frame.f_code.co_name)
            return real(*args, **kwargs)

        return checked

    for owner, name in doors:
        monkeypatch.setattr(owner, name, entered(getattr(owner, name)))
    monkeypatch.setattr(cc.RationalCone, "from_rays",
                        staticmethod(entered(cc.RationalCone.from_rays)))
    host = mc.AffineMonoid.from_vectors(
        [(2, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1)], (2,))
    line = mc.AffineMonoid.from_vectors([(1,)])
    # the host group and each vector of the two monoids
    assert sites == ["from_vectors"] * 7
    sites.clear()
    for monoid in (host, line):
        mc.saturate(monoid), mc.sharpen(monoid), mc.spec(monoid)
        mc.predicates(monoid), mc.units(monoid)
    hom = lha.MonoidHom(line, host, [[2], [2], [0]])
    other = lha.MonoidHom(line, host, [[1], [1], [1]])
    double = lha.MonoidHom(line, line, [[2]])
    assert lha.is_kummer(double) and not lha.is_kummer(hom)
    lha.kato_criterion(hom, 2), lha.gp_kernel(hom), lha.gp_cokernel(hom)
    lha.relative_characteristic(hom), lha.monoid_kernel_trivial(hom)
    lha.universal_differential_presentation(hom)
    mc.pushout_with_maps(hom, other), mc.pushout(hom, other, "fs")
    mc.fiber_product(hom, other)
    ideal = lib.MonoidIdeal(host, [(2, 1, 1), (3, 3, 1), (1, 1, 1)])
    charts = lib.blowup_charts(host, ideal)
    assert lib.charts_are_idempotent(charts, ideal)
    lib.maximal_ideal(host).reduce()
    assert ideal.contains((5, 5, 1)) and not ideal.contains((0, 1, 0))
    assert sites and set(sites) == {"vector_of"}
