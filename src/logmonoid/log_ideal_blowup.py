"""Monoid ideals, their invertibility, and blowups.

An ideal of an affine monoid M is a subset J with J + M = J, recorded by
finitely many generators: J = union of (g + M).  Blowing up J produces one
chart per minimal generator s: the submonoid M[J - s] of M^gp generated by M
together with the differences j - s; on every chart the pulled-back ideal is
principal, which makes the blowup idempotent.  The tropical counterpart is
the subdivision of the dual cone into domains of linearity of
u -> min over J of <u, j>, computed here as the blowup fan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, InputError
from . import exact_lattice as xl
from . import monoid_core as mc
from . import cone_complex as cc

# ---------------------------------------------------------------------------
# ideals


@dataclass(frozen=True)
class MonoidIdeal:
    """An ideal of an affine monoid, given by generators inside the monoid.

    Generators are normalized (reduced coordinates, deduplicated) but not
    divisibility-reduced; call ``reduce`` for the canonical minimal
    generator list.  The empty tuple is the empty ideal.
    """

    host: mc.AffineMonoid
    generators: tuple = ()

    def __post_init__(self):
        gens = []
        seen = set()
        for g in self.generators:
            if not isinstance(g, mc.MonoidElement):
                g = mc.element_of(self.host.ambient, g)
            else:
                g = mc.element_of(self.host.ambient, g.as_vector())
            if not self.host.contains(g):
                raise DomainError("ideal generator lies outside the host monoid")
            if g not in seen:
                seen.add(g)
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))

    @property
    def is_empty(self):
        return not self.generators

    def contains(self, elem):
        if not isinstance(elem, mc.MonoidElement):
            elem = mc.element_of(self.host.ambient, elem)
        return any(self.host.contains(self.host.sub(elem, g))
                   for g in self.generators)

    def reduce(self):
        """The canonical minimal generator list: lex-sorted survivors after
        removing every generator divisible by another one."""
        gens = sorted(self.generators)
        keep = []
        for i, g in enumerate(gens):
            others = keep + gens[i + 1:]
            if not any(self.host.contains(self.host.sub(g, h)) for h in others):
                keep.append(g)
        return MonoidIdeal(host=self.host, generators=tuple(keep))


def maximal_ideal(monoid):
    """The ideal of non-units M+ (for a sharp monoid, everything nonzero)."""
    gens = [g for g in monoid.generators
            if not monoid.contains(monoid.neg(g))]
    return MonoidIdeal(host=monoid, generators=tuple(gens))


def is_invertible(ideal):
    """Whether the ideal is invertible, i.e. principal: J = g + M.

    The empty ideal is not invertible.
    """
    if ideal.is_empty:
        return False
    return len(ideal.reduce().generators) == 1


# ---------------------------------------------------------------------------
# blowup charts


@dataclass(frozen=True)
class BlowupChart:
    """One chart of the blowup of J on M: the monoid M[J - s] for a minimal
    generator s, in fine and in fine-saturated form (same ambient group)."""

    center: mc.MonoidElement
    fine: mc.AffineMonoid
    fs: mc.AffineMonoid


def blowup_charts(monoid, ideal):
    """The affine charts of the blowup of a nonempty ideal.

    One chart per minimal generator s of the ideal: the fine chart is
    generated inside M^gp by the generators of M together with j - s over
    the minimal ideal generators j; the fs chart is its saturation.  On each
    chart the pulled ideal is principal, generated by s.
    """
    if ideal.host != monoid:
        raise InputError("ideal does not live on the given monoid")
    if ideal.is_empty:
        raise DomainError("cannot blow up the empty ideal")
    reduced = ideal.reduce()
    amb = monoid.ambient
    charts = []
    for s in reduced.generators:
        gens = list(monoid.generators)
        for j in reduced.generators:
            gens.append(mc.element_of(amb, amb.sub(j.as_vector(), s.as_vector())))
        fine = mc.AffineMonoid(amb, tuple(gens))
        charts.append(BlowupChart(center=s, fine=fine, fs=mc.saturate(fine)))
    return charts


def pulled_ideal(chart_monoid, ideal):
    """The ideal generated on a blowup chart by the original generators."""
    return MonoidIdeal(host=chart_monoid, generators=ideal.generators)


def blowup_is_idempotent(monoid, ideal):
    """Checks that the blowup is idempotent: on every chart (fine and fs)
    the pulled-back ideal is invertible, so blowing up again is trivial."""
    for chart in blowup_charts(monoid, ideal):
        if not is_invertible(pulled_ideal(chart.fine, ideal)):
            return False
        if not is_invertible(pulled_ideal(chart.fs, ideal)):
            return False
    return True


# ---------------------------------------------------------------------------
# blowup fan


def blowup_fan(monoid, ideal):
    """The subdivision of the dual cone induced by the ideal.

    For a toric monoid M with dual cone sigma, the function
    u -> min over the ideal of <u, j> is piecewise linear on sigma; its
    maximal domains of linearity are sigma cut by <u, j - s> >= 0 over the
    minimal generators s.  The fan of the full-dimensional domains is
    returned.  (Charts whose domain of linearity is lower-dimensional are
    glue between neighbouring charts and contribute no maximal cone, so the
    charts of the blowup surject onto, but need not biject with, the maximal
    cones.)
    """
    if not mc.predicates(monoid).is_toric:
        raise DomainError("blowup fans are defined for toric monoids")
    if ideal.is_empty:
        raise DomainError("cannot blow up the empty ideal")
    d = monoid.ambient.free_rank
    primal = cc.RationalCone.from_rays([g.free for g in monoid.generators], d)
    sigma = cc.dual_cone(primal)
    reduced = ideal.reduce()
    regions = []
    for s in reduced.generators:
        normals = sigma.facet_normals + tuple(
            tuple(a - b for a, b in zip(j.free, s.free))
            for j in reduced.generators)
        region = cc.cone_from_constraints(normals, sigma.span_equations, d)
        if region.span_dim == sigma.span_dim:
            regions.append(region)
    return cc.fan_from_cones(regions, d)
