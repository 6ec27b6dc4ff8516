"""Homomorphisms of affine monoids and their smoothness combinatorics.

A ``MonoidHom`` is a group homomorphism of the ambient (Grothendieck)
groups, given as an integer matrix on lift coordinates, that maps the source
monoid into the target monoid.  On top of it this module computes the exact
kernel and cokernel of the group map, the chart criterion for log smoothness
and log etaleness at a residue characteristic, Kummer-ness, the relative
characteristic monoid, the classification of how local one must go to find a
neat chart, and the rank and presentation of the universal log differentials.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError
from . import exact_lattice as xl
from . import monoid_core as mc


@dataclass(frozen=True, eq=False)
class MonoidHom:
    """A homomorphism of affine monoids.

    ``matrix`` acts on lift coordinates of the ambient groups, has shape
    (target lift dimension, source lift dimension), must be a well-defined
    group homomorphism (torsion orders respected), and must map every source
    generator into the target monoid.
    """

    source: mc.AffineMonoid
    target: mc.AffineMonoid
    matrix: xl.IntMatrix

    def __post_init__(self):
        rows = self.target.ambient.lift_dim
        cols = self.source.ambient.lift_dim
        mat = xl.intmat(self.matrix.tolist() if hasattr(self.matrix, "tolist")
                        else self.matrix, ncols=cols)
        if mat.shape != (rows, cols):
            raise InputError(
                f"hom matrix has shape {mat.shape}, expected {(rows, cols)}")
        object.__setattr__(self, "matrix", mat)
        if not xl.hom_is_well_defined(self.source.ambient, self.target.ambient, mat):
            raise DomainError(
                "matrix is not a homomorphism of the ambient groups")
        for g in self.source.generators:
            if not self.target.contains(self.apply(g)):
                raise DomainError(
                    "homomorphism maps a generator outside the target monoid")

    def apply(self, elem):
        if not isinstance(elem, mc.MonoidElement):
            elem = mc.element_of(self.source.ambient, elem)
        return mc.element_of(self.target.ambient,
                             xl.apply(self.matrix, elem.as_vector()))


def identity_hom(monoid):
    n = monoid.ambient.lift_dim
    return MonoidHom(source=monoid, target=monoid, matrix=xl.identity_mat(n))


# ---------------------------------------------------------------------------
# group-level invariants


def gp_kernel(hom):
    """Ker of the map on Grothendieck groups, in invariant-factor form."""
    return xl.hom_kernel(hom.source.ambient, hom.target.ambient, hom.matrix)


def gp_cokernel(hom):
    """Coker of the map on Grothendieck groups, in invariant-factor form."""
    return xl.hom_cokernel(hom.source.ambient, hom.target.ambient, hom.matrix)


def is_gp_injective(hom):
    return gp_kernel(hom).is_trivial


def _image_columns(hom):
    """Images of the source generators as reduced target lift vectors."""
    return [hom.apply(g).as_vector() for g in hom.source.generators]


def monoid_kernel_trivial(hom):
    """Whether no nonzero source monoid element maps to zero.

    This is weaker than injectivity of the group map: the group kernel may
    be nontrivial while meeting the monoid only in 0.
    """
    amb = hom.target.ambient
    cols = list(_image_columns(hom))
    r = amb.free_rank
    for j, f in enumerate(amb.invariant_factors):
        e = [0] * amb.lift_dim
        e[r + j] = -f
        cols.append(tuple(e))
    a = xl.intmat_from_columns(cols, nrows=amb.lift_dim)
    k = len(hom.source.generators)
    src = hom.source
    for sol in xl.minimal_nonneg_solutions(a):
        exps = sol[:k]
        if not any(exps):
            continue
        total = src.zero
        for c, g in zip(exps, src.generators):
            if c:
                total = src.add(total, mc.element_of(
                    src.ambient, src.ambient.scale(c, g.as_vector())))
        if not total.is_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# chart criterion for smoothness


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Outcome of the chart criterion at a residue characteristic.

    Smooth: the group kernel is finite of invertible order and the torsion
    of the group cokernel has invertible order.  Etale: additionally the
    cokernel is finite (of invertible order).
    """

    residue_char: int
    is_smooth: bool
    is_etale: bool
    gp_kernel: xl.FgAbelianGroup
    gp_cokernel: xl.FgAbelianGroup


def kato_criterion(hom, residue_char=0):
    """The chart criterion for log smoothness / etaleness.

    ``residue_char`` is 0 or a prime p.  The map is (combinatorially) smooth
    iff Ker(phi^gp) is finite with order invertible in the residue field and
    the torsion part of Coker(phi^gp) has invertible order; it is etale iff
    moreover Coker(phi^gp) itself is finite.
    """
    if residue_char != 0 and not xl.is_prime(residue_char):
        raise DomainError(
            f"residue characteristic must be 0 or prime, got {residue_char}")
    ker = gp_kernel(hom)
    coker = gp_cokernel(hom)
    smooth = ker.is_finite and \
        xl.is_order_invertible(ker, residue_char) and \
        xl.is_order_invertible(coker, residue_char)
    etale = smooth and coker.is_finite
    return SmoothnessVerdict(
        residue_char=residue_char, is_smooth=smooth, is_etale=etale,
        gp_kernel=ker, gp_cokernel=coker)


# ---------------------------------------------------------------------------
# Kummer homomorphisms


def is_kummer(hom):
    """Whether the hom is Kummer: injective on groups, with every target
    element having a multiple in the image of the source."""
    if not is_gp_injective(hom):
        return False
    amb = hom.target.ambient
    img = _image_columns(hom)
    r = amb.free_rank
    slack = []
    for j, f in enumerate(amb.invariant_factors):
        e = [0] * amb.lift_dim
        e[r + j] = f
        slack.append(tuple(e))
        slack.append(tuple(-x for x in e))
    for q in hom.target.generators:
        cols = list(img)
        cols.append(tuple(-x for x in q.as_vector()))
        cols.extend(slack)
        a = xl.intmat_from_columns(cols, nrows=amb.lift_dim)
        npos = len(img)
        if not any(sol[npos] >= 1 for sol in xl.minimal_nonneg_solutions(a)):
            return False
    return True


def relative_characteristic(hom):
    """The relative characteristic monoid: the image of the target in
    Coker(phi^gp), i.e. the quotient of the target by the congruence
    q ~ q + phi(p)."""
    quot, proj = xl.quotient_presentation(
        hom.target.ambient, _image_columns(hom))
    gens = []
    for q in hom.target.generators:
        gens.append(mc.element_of(quot, xl.apply(proj, q.as_vector())))
    return mc.AffineMonoid(quot, tuple(gens))


def neat_chart_class(hom, residue_char=0):
    """How locally a neat chart can be extracted from this chart.

    Determined by the torsion of Coker(phi^gp): trivial torsion splits the
    cokernel and a neat chart exists Zariski-locally; torsion of order
    invertible in the residue field needs roots of units, available etale
    locally; in general only an fppf cover works.  Returns "zariski",
    "etale", or "fppf".
    """
    if residue_char != 0 and not xl.is_prime(residue_char):
        raise DomainError(
            f"residue characteristic must be 0 or prime, got {residue_char}")
    coker = gp_cokernel(hom)
    if not coker.invariant_factors:
        return "zariski"
    if xl.is_order_invertible(coker, residue_char):
        return "etale"
    return "fppf"


# ---------------------------------------------------------------------------
# universal log differentials


def differential_rank(hom, residue_char=0):
    """The rank of the universal log differential module over a field of the
    given characteristic: the free rank of Coker(phi^gp), plus in positive
    characteristic one for every invariant factor divisible by p."""
    if residue_char != 0 and not xl.is_prime(residue_char):
        raise DomainError(
            f"residue characteristic must be 0 or prime, got {residue_char}")
    coker = gp_cokernel(hom)
    if residue_char == 0:
        return coker.free_rank
    return coker.free_rank + sum(
        1 for f in coker.invariant_factors if f % residue_char == 0)


@dataclass(frozen=True)
class DifferentialPresentation:
    """Symbolic presentation of the universal log differential module.

    One symbol d<i> per lift coordinate of the target group; the relations
    kill the differentials of all source images and the torsion relations of
    the target, so the underlying group is exactly Coker(phi^gp).  The
    coefficient ring is a placeholder: the combinatorial layer carries the
    monoid contribution only, and a geometric realization tensors the module
    with the structure sheaf.
    """

    symbols: tuple
    relation_columns: tuple
    module: xl.FgAbelianGroup
    coefficient_ring: str = "Z"


def universal_differential_presentation(hom):
    """Generators and relations of the universal log differential module."""
    amb = hom.target.ambient
    n = amb.lift_dim
    symbols = tuple(f"d{i}" for i in range(n))
    cols = [col for col in xl.mat_columns(hom.matrix) if any(col)]
    cols.extend(tuple(c) for c in amb.relation_columns())
    module, _ = xl.group_from_relations(n, cols)
    return DifferentialPresentation(
        symbols=symbols, relation_columns=tuple(cols), module=module)
