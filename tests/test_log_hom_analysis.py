"""Tests for monoid homomorphisms and their smoothness combinatorics.

Oracles used here:

* the nodal family N -> N^2, 1 |-> (a, b), where the group cokernel is
  Z + Z/gcd(a, b) by hand, so the chart criterion must say "smooth iff the
  residue characteristic does not divide gcd(a, b)" and never "etale";
* Gaussian elimination over F_p (and over Q via fractions) applied to the
  relation columns of the universal differential presentation: the rank of
  the presented module over a field must match ``differential_rank``.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import logmonoid.exact_lattice as xl
import logmonoid.log_hom_analysis as lha
import logmonoid.monoid_core as mc
from logmonoid.errors import DomainError, InputError
from conftest import group_monoid, identity_hom, relations_among
from test_monoid_core import _cospans, _monoids


def _hom(src, dst, rows):
    return lha.MonoidHom(source=src, target=dst,
                         matrix=xl.intmat(rows, ncols=src.ambient.lift_dim))


def _free(n):
    return mc.free_monoid(n)


def _nodal(a, b):
    """N -> N^2, 1 |-> (a, b): the monoid chart of a nodal degeneration."""
    return _hom(_free(1), _free(2), [[a], [b]])


# ---------------------------------------------------------------------------
# field-rank oracles


def oracle_rank_mod_p(cols, nrows, p):
    """Rank over F_p of the matrix with the given columns."""
    rows = [[c[i] % p for c in cols] for i in range(nrows)]
    rank, lead = 0, 0
    for j in range(len(cols)):
        piv = next((i for i in range(lead, nrows) if rows[i][j] % p), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = pow(rows[lead][j], p - 2, p)
        rows[lead] = [(x * inv) % p for x in rows[lead]]
        for i in range(nrows):
            if i != lead and rows[i][j] % p:
                f = rows[i][j]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[lead])]
        lead += 1
        rank += 1
        if lead == nrows:
            break
    return rank


def oracle_rank_rational(cols, nrows):
    rows = [[Fraction(c[i]) for c in cols] for i in range(nrows)]
    rank, lead = 0, 0
    for j in range(len(cols)):
        piv = next((i for i in range(lead, nrows) if rows[i][j]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = 1 / rows[lead][j]
        rows[lead] = [x * inv for x in rows[lead]]
        for i in range(nrows):
            if i != lead and rows[i][j]:
                f = rows[i][j]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[lead])]
        lead += 1
        rank += 1
        if lead == nrows:
            break
    return rank


def oracle_field_rank(pres, p):
    """Rank of Z^n / <columns> over F_p (p prime) or Q (p = 0)."""
    n = len(pres.symbols)
    if not pres.relation_columns:
        return n
    if p == 0:
        return n - oracle_rank_rational(pres.relation_columns, n)
    return n - oracle_rank_mod_p(pres.relation_columns, n, p)


# ---------------------------------------------------------------------------
# construction and validation


def test_hom_validation():
    with pytest.raises(InputError):
        _hom(_free(1), _free(2), [[1]])  # wrong shape
    # an IntMatrix is built unchecked, so the hom checks it like any matrix
    for unchecked in (xl.IntMatrix(((1, 5),), 1), xl.IntMatrix(((0.5,),), 1)):
        with pytest.raises(InputError):
            lha.MonoidHom(_free(1), _free(1), unchecked)
    with pytest.raises(DomainError):
        _hom(_free(1), _free(1), [[-1]])  # image outside target
    # torsion source into a free target: 2 * 1bar = 0 must map to 0
    kummer_src = mc.AffineMonoid.from_vectors([(1,)], torsion_orders=(2,))
    with pytest.raises(DomainError):
        _hom(kummer_src, _free(1), [[1]])
    ok = _hom(kummer_src, kummer_src, [[1]])
    assert ok.apply((1,)).as_vector() == (1,)


def test_apply_reduces_in_target():
    double = _hom(_free(1),
                  mc.AffineMonoid.from_vectors([(1,)], torsion_orders=(4,)),
                  [[3]])
    assert double.apply((2,)).as_vector() == (2,)  # 6 mod 4


def test_a_hom_reduces_each_image_once(count_calls):
    # the constructor reduces each image once and tests it behind the
    # membership door; the verdicts read the images it keeps
    target = mc.AffineMonoid.from_vectors([(1, 0), (1, 1)], torsion_orders=(2,))
    doors = count_calls(mc, "contains")
    reductions = count_calls(xl.FgAbelianGroup, "_reduce")

    def on_target():
        return [vec for group, vec in reductions if group is target.ambient]

    hom = _hom(_free(1), target, [[2], [3]])
    assert doors == []
    assert on_target() == [(2, 3)]
    assert lha.is_kummer(hom)
    assert lha.relative_characteristic(hom).ambient.is_finite
    assert lha.monoid_kernel_trivial(hom)
    assert on_target() == [(2, 3)]


def test_identity_hom():
    m = mc.AffineMonoid.from_vectors([(1, 0), (1, 1)])
    ident = identity_hom(m)
    assert lha.gp_kernel(ident).is_trivial
    assert lha.gp_cokernel(ident).is_trivial
    assert lha.is_kummer(ident)
    assert lha.monoid_kernel_trivial(ident)


# ---------------------------------------------------------------------------
# chart criterion vs the nodal-family oracle


@pytest.mark.parametrize("p", [0, 2, 3, 5])
def test_kato_criterion_nodal_family(p):
    for a in range(1, 7):
        for b in range(1, 7):
            verdict = lha.kato_criterion(_nodal(a, b), residue_char=p)
            g = math.gcd(a, b)
            assert verdict.is_smooth == (p == 0 or g % p != 0), (a, b, p)
            # the cokernel always has free rank 1, so never etale
            assert not verdict.is_etale
            assert verdict.gp_cokernel.free_rank == 1
            assert verdict.gp_cokernel.invariant_factors == \
                ((g,) if g > 1 else ())


def test_kato_criterion_kummer_map():
    double = _hom(_free(1), _free(1), [[2]])
    for p, smooth, etale in [(0, True, True), (3, True, True),
                             (2, False, False)]:
        verdict = lha.kato_criterion(double, residue_char=p)
        assert (verdict.is_smooth, verdict.is_etale) == (smooth, etale)
    assert lha.kato_criterion(double).gp_cokernel.invariant_factors == (2,)


def test_kato_criterion_kernel_side():
    # quotient killing torsion: Z/2 source mapping to the trivial monoid
    src = mc.AffineMonoid.from_vectors([(1,)], torsion_orders=(2,))
    crush = _hom(src, _free(0), [])
    for p, smooth in [(0, True), (3, True), (2, False)]:
        verdict = lha.kato_criterion(crush, residue_char=p)
        assert verdict.is_smooth == smooth
        assert verdict.is_etale == smooth
        assert verdict.gp_kernel.invariant_factors == (2,)


def test_kato_criterion_rejects_composite_char():
    with pytest.raises(DomainError):
        lha.kato_criterion(_nodal(1, 1), residue_char=6)


def _cokernel_order_invertible(hom, residue_char):
    return xl.is_order_invertible(lha.gp_cokernel(hom), residue_char)


# every entry point that takes a residue characteristic
_AT_A_CHAR = [lha.kato_criterion, lha.neat_chart_class, lha.differential_rank,
              _cokernel_order_invertible]


@pytest.mark.parametrize("entry", _AT_A_CHAR,
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("p", [2.0, 1.5, 2.5])
def test_a_non_integer_char_is_refused(entry, p):
    with pytest.raises(InputError):
        entry(_nodal(1, 2), residue_char=p)


@pytest.mark.parametrize("entry", _AT_A_CHAR,
                         ids=lambda f: f.__name__)
def test_chars_beyond_the_exact_primality_range_are_refused(entry):
    # psi_12 passes Miller-Rabin on the bases 2 to 37, and psi_13 is past
    # the range where the bases 2 to 41 are a proof
    for p in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(DomainError):
            entry(_nodal(1, 2), residue_char=p)


def test_hollow_chart_is_smooth_never_etale():
    hollow = _hom(_free(0), _free(2), [[], []])
    for p in (0, 2, 5):
        verdict = lha.kato_criterion(hollow, residue_char=p)
        assert verdict.is_smooth and not verdict.is_etale
        assert lha.differential_rank(hollow, p) == 2


@st.composite
def _torsion_homs(draw):
    """A hom out of a monoid of ``_monoids`` (torsion, units, free rank
    0..3) into a group Z^r (+) torsion, r = 0..2, on a random matrix: a
    torsion column of order f takes, on a factor g, a multiple of
    g / gcd(f, g), so the matrix is a hom.  The target monoid is generated
    by the unit vectors and the images, so kernels and cokernels, finite
    and infinite, with and without torsion, all occur."""
    src = draw(_monoids(max_gens=4))
    tgt = xl.FgAbelianGroup(draw(st.integers(0, 2)), draw(
        st.sampled_from([(), (2,), (4,), (2, 6)])))
    r, gs = tgt.free_rank, tgt.invariant_factors
    orders = (0,) * src.ambient.free_rank + src.ambient.invariant_factors
    cols = [tuple(draw(st.integers(-3, 3)) if f == 0 else 0
                  for _ in range(r)) +
            tuple(draw(st.integers(0, 3)) * (g // math.gcd(f, g))
                  for g in gs)
            for f in orders]
    units = [tuple(int(i == j) for j in range(tgt.lift_dim))
             for i in range(tgt.lift_dim)]
    images = [xl.apply(xl._from_columns(cols, tgt.lift_dim), v)
              for v in src._vectors]
    return _hom(src, mc.AffineMonoid(tgt, units + images),
                [list(row) for row in zip(*cols)] if cols
                else [[] for _ in range(tgt.lift_dim)])


def _groups_by_two_decompositions(hom):
    """Ker and Coker of phi^gp by two decompositions: the relations among
    the matrix columns, and the quotient of the target by them."""
    amb, cols = hom.target.ambient, xl.mat_columns(hom.matrix)
    ker = xl.subgroup_presentation(hom.source.ambient,
                                   relations_among(amb, cols))[0]
    return ker, xl.quotient_presentation(amb, cols)[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_torsion_homs())
# Z/2 -> Z/4, 1 |-> 2, is injective, though the relation (2) among its
# column and the target relation is not 0 before it is reduced in Z/2
@example(_hom(group_monoid(xl.FgAbelianGroup(0, (2,))),
              group_monoid(xl.FgAbelianGroup(0, (4,))), [[2]]))
def test_verdicts_read_the_groups_of_two_decompositions(hom):
    ker, coker = _groups_by_two_decompositions(hom)
    assert lha.gp_kernel(hom) == ker
    assert lha.gp_cokernel(hom) == coker
    assert lha.is_gp_injective(hom) == ker.is_trivial
    for p in (0, 2, 3):
        smooth = ker.is_finite and xl.is_order_invertible(ker, p) and \
            xl.is_order_invertible(coker, p)
        verdict = lha.kato_criterion(hom, p)
        assert (verdict.is_smooth, verdict.is_etale, verdict.gp_kernel,
                verdict.gp_cokernel) == \
            (smooth, smooth and coker.is_finite, ker, coker)
        assert lha.neat_chart_class(hom, p) == (
            "zariski" if not coker.invariant_factors else
            "etale" if xl.is_order_invertible(coker, p) else "fppf")
        assert lha.differential_rank(hom, p) == coker.free_rank + sum(
            1 for f in coker.invariant_factors if p and f % p == 0)
    assert lha.universal_differential_presentation(hom).module == coker


# ---------------------------------------------------------------------------
# Kummer homomorphisms


def test_kummer_positive_cases():
    assert lha.is_kummer(_hom(_free(1), _free(1), [[3]]))
    diag = _hom(_free(2), _free(2), [[2, 0], [0, 3]])
    assert lha.is_kummer(diag)
    # saturation inclusion <2,3> -> N is Kummer as well
    sub = mc.AffineMonoid.from_vectors([(2,), (3,)])
    assert lha.is_kummer(_hom(sub, _free(1), [[1]]))


def test_kummer_negative_cases():
    # not injective on groups
    addition = _hom(_free(2), _free(1), [[1, 1]])
    assert not lha.is_kummer(addition)
    # injective but (0,1) has no multiple in the image
    axis = _hom(_free(1), _free(2), [[1], [0]])
    assert lha.is_kummer(axis) is False
    # hollow chart: nothing is hit
    hollow = _hom(_free(0), _free(2), [[], []])
    assert not lha.is_kummer(hollow)


def test_kummer_with_torsion_target():
    tgt = mc.AffineMonoid.from_vectors([(1, 0), (1, 1)], torsion_orders=(2,))
    incl = _hom(_free(1), tgt, [[1], [0]])
    # 2 * (1, 1bar) = (2, 0) is in the image, and gp map Z -> Z + Z/2 is
    # injective, so the inclusion is Kummer
    assert lha.is_kummer(incl)


def test_kummer_builds_no_cokernel(count_calls):
    # for an injective map, a finite cokernel is equal free ranks: no verdict
    # presents Coker, and a rank mismatch takes no decomposition at all
    torsion_src = mc.AffineMonoid.from_vectors([(1, 0), (0, 1)],
                                               torsion_orders=(2,))
    homs = [
        (_hom(_free(1), _free(1), [[3]]), True),
        (_hom(_free(2), _free(1), [[1, 1]]), False),
        (_hom(torsion_src, _free(1), [[1, 0]]), False),
        (_hom(_free(2), _free(2), [[1, 1], [0, 1]]), False),
        (_nodal(2, 3), False),
    ]
    cokernels = count_calls(xl, "_cokernel_of")
    assert [lha.is_kummer(hom) for hom, _ in homs] == \
        [verdict for _, verdict in homs]
    assert cokernels == []
    axis = _nodal(1, 0)
    decompositions = count_calls(xl, "_snf_full")
    assert lha.is_kummer(axis) is False
    assert decompositions == []


def _oracle_is_kummer(hom):
    """Kummer by one nonnegative solve per target generator q: a solution
    of sum a_i phi(p_i) - c q = 0 with c >= 1, with slack columns that add
    or subtract each torsion order."""
    if not lha.is_gp_injective(hom):
        return False
    amb = hom.target.ambient
    img = [hom.apply(g).as_vector() for g in hom.source.generators]
    slack = [tuple(s * x for x in c)
             for c in amb.relation_columns() for s in (1, -1)]
    for q in hom.target.generators:
        cols = img + [tuple(-x for x in q.as_vector())] + slack
        a = xl.intmat_from_columns(cols, nrows=amb.lift_dim)
        if not any(sol[len(img)] >= 1
                   for sol in xl.minimal_nonneg_solutions(a)):
            return False
    return True


@st.composite
def _scaled_inclusions(draw):
    """k times the inclusion of a monoid M into the monoid generated by M
    and one or two more elements of its group, k = 1..3, in half the draws
    followed by M' -> M' (+) N, whose group cokernel is infinite.  M comes
    from ``_monoids`` (torsion, units), cut to positive free rank, where
    Kummer is not automatic, and to four generators, as the oracle's solve
    grows fast with the columns.  Multiplication by k kills torsion of order
    dividing k, so the group map is not always injective."""
    src = draw(_monoids())
    assume(src.ambient.free_rank and len(src.generators) <= 4)
    amb = src.ambient
    vec = st.tuples(*[st.integers(-3, 3)] * amb.free_rank,
                    *[st.integers(0, f - 1) for f in amb.invariant_factors])
    extra = [mc.element_of(amb, v)
             for v in draw(st.lists(vec, min_size=1, max_size=2))]
    dst = mc.AffineMonoid(amb, src.generators + tuple(extra))
    k = draw(st.integers(1, 3))
    n = amb.lift_dim
    rows = [[k if i == j else 0 for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        r = amb.free_rank
        wide = xl.FgAbelianGroup(r + 1, amb.invariant_factors)
        dst = mc.AffineMonoid(wide, [v[:r] + (0,) + v[r:] for v in dst._vectors]
                              + [tuple(int(i == r) for i in range(n + 1))])
        rows.insert(r, [0] * n)
    return _hom(src, dst, rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scaled_inclusions())
def test_is_kummer_matches_solver_oracle(hom):
    assert lha.is_kummer(hom) == _oracle_is_kummer(hom)


def test_kummer_of_a_large_index_takes_no_solver(monkeypatch):
    finite = group_monoid(xl.FgAbelianGroup(0, (2, 6)))
    homs = [
        (_hom(_free(1), _free(1), [[3000]]), True),
        (_hom(_free(1), _free(2), [[3000], [0]]), False),
        # free rank 0: the image cone lives in Z^0
        (_hom(finite, finite, [[1, 0], [0, 5]]), True),
        (_hom(finite, finite, [[1, 0], [0, 2]]), False),
    ]

    def solver(*args, **kwargs):
        raise AssertionError("nonnegative solver called")

    monkeypatch.setattr(xl, "_minimal_solutions", solver)
    assert [lha.is_kummer(hom) for hom, _ in homs] == \
        [verdict for _, verdict in homs]


@pytest.mark.parametrize("vectors, orders", [
    ([(1, 0), (1, 1), (1, 2)], ()), ([(1, 1), (1, 0)], (2,)),
    ([(2, 1), (0, 1), (1, 0), (-1, 0)], (4,))])
def test_a_hom_onto_target_generators_takes_no_solver(vectors, orders,
                                                      no_solver):
    # each image is zero or a generator of the target: members by definition
    target = mc.AffineMonoid.from_vectors(vectors, orders)
    cols = [g.as_vector() for g in target.generators]
    cols += [target.ambient.zero()] + cols[:1]
    rows = [[col[i] for col in cols] for i in range(target.ambient.lift_dim)]
    hom = _hom(_free(len(cols)), target, rows)
    assert [hom.apply(g) for g in hom.source.generators] == \
        list(target.generators) + [target.zero, target.generators[0]]


def test_relative_characteristic():
    triple = _hom(_free(1), _free(1), [[3]])
    rc = lha.relative_characteristic(triple)
    assert rc.ambient.free_rank == 0
    assert rc.ambient.invariant_factors == (3,)
    assert sorted(g.as_vector() for g in rc.generators) == [(1,)]

    diag2 = _hom(_free(2), _free(2), [[2, 0], [0, 2]])
    rc2 = lha.relative_characteristic(diag2)
    assert rc2.ambient.invariant_factors == (2, 2)

    ident = identity_hom(_free(2))
    rci = lha.relative_characteristic(ident)
    assert rci.ambient.is_trivial
    assert all(g.is_zero for g in rci.generators)


def test_relative_characteristic_of_axis_keeps_free_part():
    axis = _hom(_free(1), _free(2), [[1], [0]])
    rc = lha.relative_characteristic(axis)
    assert rc.ambient.free_rank == 1
    assert rc.ambient.invariant_factors == ()
    # the image of (1, 0) collapses to zero and is dropped; (0, 1) survives
    assert sorted(g.as_vector() for g in rc.generators) == [(1,)]


# ---------------------------------------------------------------------------
# neat chart classes


def test_neat_chart_classes():
    axis = _hom(_free(1), _free(2), [[1], [0]])  # cokernel Z: free
    assert lha.neat_chart_class(axis, 0) == "zariski"
    assert lha.neat_chart_class(axis, 5) == "zariski"

    triple = _hom(_free(1), _free(1), [[3]])  # cokernel Z/3
    assert lha.neat_chart_class(triple, 0) == "etale"
    assert lha.neat_chart_class(triple, 2) == "etale"
    assert lha.neat_chart_class(triple, 3) == "fppf"

    double = _hom(_free(1), _free(1), [[2]])  # cokernel Z/2
    assert lha.neat_chart_class(double, 2) == "fppf"
    assert lha.neat_chart_class(double, 5) == "etale"

    with pytest.raises(DomainError):
        lha.neat_chart_class(double, 4)


# ---------------------------------------------------------------------------
# monoid kernel vs group kernel


def test_monoid_kernel_weaker_than_group_kernel():
    # (a, b) |-> a + b: group kernel Z(1, -1), but no nonzero monoid element
    # dies since coordinates are nonnegative
    addition = _hom(_free(2), _free(1), [[1, 1]])
    assert not lha.is_gp_injective(addition)
    assert lha.monoid_kernel_trivial(addition)

    # projection (a, b) |-> a kills (0, 1)
    proj = _hom(_free(2), _free(1), [[1, 0]])
    assert not lha.monoid_kernel_trivial(proj)

    # a torsion generator maps to zero: the monoid kernel is nontrivial
    src = mc.AffineMonoid.from_vectors([(1, 0), (0, 1)], torsion_orders=(2,))
    crush = _hom(src, _free(1), [[1, 0]])
    assert not lha.monoid_kernel_trivial(crush)
    # but if the torsion element is not itself in the monoid the kernel is
    # trivial: <(1, 0bar), (1, 1bar)> maps injectively on monoid elements
    mixed = mc.AffineMonoid.from_vectors([(1, 0), (1, 1)], torsion_orders=(2,))
    skew = _hom(mixed, _free(1), [[1, 0]])
    assert not lha.is_gp_injective(skew)
    assert lha.monoid_kernel_trivial(skew)


def _monoid_kernel_trivial_skipping_slack(hom):
    """``monoid_kernel_trivial`` with the removed skip of minimal solutions
    that have no generator exponent."""
    src = hom.source
    a = mc._membership_system(
        hom.target.ambient, [hom.apply(g).as_vector() for g in src.generators])
    k = len(src.generators)
    for sol in xl._minimal_solutions(xl._gram(a)):
        exps = sol[:k]
        if any(exps) and not mc.exponent_sum(
                src.ambient, exps, src.generators).is_zero:
            return False
    return True


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cospans())
def test_no_monoid_kernel_solution_is_slack_alone(legs):
    # each leg maps N^p into a monoid of a group with torsion; its slack
    # columns -f_i e_i sit on distinct coordinates
    for hom in legs:
        k = len(hom.source.generators)
        a = mc._membership_system(hom.target.ambient, [
            hom.apply(g).as_vector() for g in hom.source.generators])
        assert all(any(sol[:k]) for sol in xl._minimal_solutions(xl._gram(a)))
        assert lha.monoid_kernel_trivial(hom) == \
            _monoid_kernel_trivial_skipping_slack(hom)


# ---------------------------------------------------------------------------
# universal differentials


def test_differential_presentation_nodal():
    pres = lha.universal_differential_presentation(_nodal(2, 2))
    assert pres.symbols == ("d0", "d1")
    assert pres.relation_columns == ((2, 2),)
    assert pres.module.free_rank == 1
    assert pres.module.invariant_factors == (2,)
    assert pres.coefficient_ring == "Z"


def test_differential_rank_nodal_values():
    nodal = _nodal(2, 2)
    assert lha.differential_rank(nodal, 0) == 1
    assert lha.differential_rank(nodal, 2) == 2  # dlog relation dies mod 2
    assert lha.differential_rank(nodal, 3) == 1


def test_differential_module_is_gp_cokernel():
    rng = random.Random(83)
    for _ in range(15):
        s, t = rng.randint(0, 3), rng.randint(1, 3)
        rows = [[rng.randint(0, 3) for _ in range(s)] for _ in range(t)]
        hom = _hom(_free(s), _free(t), rows)
        pres = lha.universal_differential_presentation(hom)
        coker = lha.gp_cokernel(hom)
        assert pres.module.free_rank == coker.free_rank
        assert pres.module.invariant_factors == coker.invariant_factors
        # the group the presentation's own relations define
        assert pres.module == xl.group_from_relations(
            len(pres.symbols), pres.relation_columns)[0]


def test_differential_rank_matches_field_oracle():
    rng = random.Random(97)
    for _ in range(25):
        s, t = rng.randint(0, 3), rng.randint(1, 3)
        rows = [[rng.randint(0, 4) for _ in range(s)] for _ in range(t)]
        hom = _hom(_free(s), _free(t), rows)
        pres = lha.universal_differential_presentation(hom)
        for p in (0, 2, 3, 5):
            assert lha.differential_rank(hom, p) == \
                oracle_field_rank(pres, p), (rows, p)


def test_differential_rank_with_torsion_target():
    tgt = mc.AffineMonoid.from_vectors(
        [(1, 0), (-1, 0), (0, 1)], torsion_orders=(2,))
    hom = _hom(_free(1), tgt, [[1], [0]])
    pres = lha.universal_differential_presentation(hom)
    # relations: the image column (1, 0) and the torsion column (0, 2)
    assert (0, 2) in pres.relation_columns
    assert pres.module == xl.group_from_relations(2, pres.relation_columns)[0]
    for p in (0, 2, 3):
        assert lha.differential_rank(hom, p) == oracle_field_rank(pres, p)
    assert lha.differential_rank(hom, 2) == 1
    assert lha.differential_rank(hom, 3) == 0


def test_differential_rank_rejects_composite_char():
    with pytest.raises(DomainError):
        lha.differential_rank(_nodal(1, 2), residue_char=9)


@pytest.mark.parametrize("check", _AT_A_CHAR, ids=lambda f: f.__name__)
def test_composite_char_message_is_the_same_everywhere(check):
    for p in (9, 4):
        with pytest.raises(DomainError) as err:
            check(_nodal(1, 2), p)
        assert str(err.value) == \
            f"residue characteristic must be 0 or prime, got {p}"
