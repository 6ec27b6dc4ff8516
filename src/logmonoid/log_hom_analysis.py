"""Homomorphisms of affine monoids and their smoothness combinatorics.

A ``MonoidHom`` is a group homomorphism of the ambient (Grothendieck)
groups, given as an integer matrix on lift coordinates, that maps the source
monoid into the target monoid.  On top of it this module computes the exact
kernel and cokernel of the group map, the chart criterion for log smoothness
and log etaleness at a residue characteristic, Kummer-ness, the relative
characteristic monoid, the classification of how local one must go to find a
neat chart, and the rank and presentation of the universal log differentials.

Every verdict but the relative characteristic (its coordinates depend on the
entries it decomposes) reads the groups off ``MonoidHom._smith``, and every
image of a source generator is reduced once, by the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError
from . import cone_complex as cc
from . import exact_lattice as xl
from . import monoid_core as mc


@dataclass(frozen=True, eq=False)
class MonoidHom:
    """A homomorphism of affine monoids.

    ``matrix`` acts on lift coordinates of the ambient groups, has shape
    (target lift dimension, source lift dimension), must be a well-defined
    group homomorphism (torsion orders respected), and must map every source
    generator into the target monoid.  The private ``_images`` are the
    canonical lift tuples of the source generators' images, reduced once.
    """

    source: mc.AffineMonoid
    target: mc.AffineMonoid
    matrix: xl.IntMatrix

    def __post_init__(self):
        mat = xl.intmat(self.matrix.tolist() if hasattr(self.matrix, "tolist")
                        else self.matrix, ncols=self.source.ambient.lift_dim)
        # refuses a matrix of the wrong shape and one that is not a hom
        xl._hom_columns(self.source.ambient, self.target.ambient, mat)
        object.__setattr__(self, "matrix", mat)
        images = tuple(self.target.ambient.reduce_vector(xl.apply(mat, v))
                       for v in self.source._vectors)
        if not all(mc._contains(self.target, v) for v in images):
            raise DomainError(
                "homomorphism maps a generator outside the target monoid")
        object.__setattr__(self, "_images", images)

    @cached_property
    def _smith(self):
        """[matrix columns | target relations] in Smith form: its invariant
        factors present Coker(phi^gp), and its kernel columns, cut to the
        matrix columns, generate Ker(phi^gp)."""
        return xl._decompose_among(self.target.ambient,
                                   xl.mat_columns(self.matrix))

    def apply(self, elem):
        vec = mc.vector_of(self.source.ambient, elem)
        return mc.element_of(self.target.ambient, xl.apply(self.matrix, vec))


# ---------------------------------------------------------------------------
# group-level invariants


def gp_kernel(hom):
    """Ker of the map on Grothendieck groups, in invariant-factor form."""
    return xl._kernel_of(hom.source.ambient, hom._smith)


def gp_cokernel(hom):
    """Coker of the map on Grothendieck groups, in invariant-factor form."""
    return xl._cokernel_of(hom._smith)


def is_gp_injective(hom):
    """Whether Ker(phi^gp) is trivial, without presenting it."""
    return xl._is_injective(hom.source.ambient, hom._smith)


def monoid_kernel_trivial(hom):
    """Whether no nonzero source monoid element maps to zero.

    This is weaker than injectivity of the group map: the group kernel may
    be nontrivial while meeting the monoid only in 0.
    """
    src = hom.source
    a = mc._membership_system(hom.target.ambient, hom._images)
    k = len(src._vectors)
    return not any(any(mc._combination(src.ambient, sol[:k], src._vectors))
                   for sol in xl._minimal_solutions(xl._gram(a)))


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
    residue_char = xl._check_residue_char(residue_char)
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
    element having a multiple in the image of the source.  As the target
    generates its group, that makes Coker(phi^gp) torsion, hence finite:
    the cheapest test comes first."""
    return gp_cokernel(hom).is_finite and is_gp_injective(hom) and \
        _multiples_in_image(hom)


def _multiples_in_image(hom):
    """Whether every target element has a positive multiple in the image of
    the source, for a hom that is injective on groups with finite cokernel.

    Given injectivity, a target element q has a positive multiple in the
    image iff its free part lies in the rational cone of the free parts of
    the images: clearing denominators writes a multiple N q as a
    nonnegative integer combination of the images up to a torsion element,
    and a further multiple kills that.  The elements with such a multiple
    form a submonoid, so testing the target generators suffices.  One cone
    and one containment test per generator replace a nonnegative solve per
    generator whose cost grows with the index of the image.  The cokernel
    is finite, so the free parts span Q^r: the cone needs no span equations.
    """
    r = hom.target.ambient.free_rank
    image = cc.RationalCone.from_rays([v[:r] for v in hom._images], r)
    return all(image.contains(q.free) for q in hom.target.generators)


def relative_characteristic(hom):
    """The relative characteristic monoid: the image of the target in
    Coker(phi^gp), i.e. the quotient of the target by the congruence
    q ~ q + phi(p)."""
    # reduced images: the Smith pivots, and so the emitted coordinates,
    # depend on the exact entries
    quot, proj = xl.quotient_presentation(hom.target.ambient, hom._images)
    gens = [quot.reduce_vector(xl.apply(proj, q)) for q in hom.target._vectors]
    # images of the target's spanning generators under the surjective proj
    return mc.AffineMonoid._spanning(quot, gens)


def neat_chart_class(hom, residue_char=0):
    """How locally a neat chart can be extracted from this chart.

    Determined by the torsion of Coker(phi^gp): trivial torsion splits the
    cokernel and a neat chart exists Zariski-locally; torsion of order
    invertible in the residue field needs roots of units, available etale
    locally; in general only an fppf cover works.  Returns "zariski",
    "etale", or "fppf".
    """
    residue_char = xl._check_residue_char(residue_char)
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
    residue_char = xl._check_residue_char(residue_char)
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
    symbols = tuple(f"d{i}" for i in range(amb.lift_dim))
    cols = [col for col in xl.mat_columns(hom.matrix) if any(col)]
    cols.extend(amb.relation_columns())
    return DifferentialPresentation(
        symbols=symbols, relation_columns=tuple(cols), module=gp_cokernel(hom))
