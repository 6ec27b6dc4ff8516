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
        amb = xl._of_kind(self.host, mc.AffineMonoid, "ideal host").ambient
        vecs = dict.fromkeys(mc.vector_of(amb, g) for g in
                             xl._as_tuple(self.generators, "ideal generators"))
        if not all(mc._contains(self.host, v) for v in vecs):
            raise DomainError("ideal generator lies outside the host monoid")
        object.__setattr__(self, "generators",
                           tuple(mc._element(amb, v) for v in vecs))

    @classmethod
    def _of_members(cls, host, vectors):
        """The ideal of ``host`` generated by canonical lift tuples that are
        known to lie in it.

        Trusted: it only drops repeats, and neither reduces the tuples nor
        checks membership.  Each caller states why membership holds.
        """
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "host", host)
        object.__setattr__(ideal, "generators", tuple(
            mc._element(host.ambient, v) for v in dict.fromkeys(vectors)))
        return ideal

    @property
    def is_empty(self):
        return not self.generators

    def contains(self, elem):
        amb = self.host.ambient
        vec = mc.vector_of(amb, elem)
        return any(mc._contains(self.host, amb._sub(vec, g.as_vector()))
                   for g in self.generators)

    def reduce(self):
        """The canonical minimal generator list: lex-sorted survivors after
        removing every generator divisible by another one."""
        amb = self.host.ambient
        gens = sorted(g.as_vector() for g in self.generators)
        keep = []
        for i, g in enumerate(gens):
            others = keep + gens[i + 1:]
            if not any(mc._contains(self.host, amb._sub(g, h)) for h in others):
                keep.append(g)
        # the survivors are generators of this ideal, so in the host
        return MonoidIdeal._of_members(self.host, keep)


def maximal_ideal(monoid):
    """The ideal of non-units M+ (for a sharp monoid, everything nonzero),
    generated by the generators outside ``monoid_core.units``."""
    unit_gens = {u.as_vector() for u in mc.units(monoid)}
    # generators of the monoid lie in it
    return MonoidIdeal._of_members(
        monoid, [g for g in monoid._vectors if g not in unit_gens])


def is_invertible(ideal):
    """Whether the ideal is invertible, i.e. principal: J = g + M.

    The empty ideal is not invertible: it reduces to no generators.
    """
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
    reduced = ideal.reduce().generators
    amb = monoid.ambient
    centers = [s.as_vector() for s in reduced]
    charts = []
    for s, c in zip(reduced, centers):
        # the generators include the host's, which span M^gp
        fine = mc.AffineMonoid._spanning(
            amb, monoid._vectors + tuple(amb._sub(j, c) for j in centers))
        charts.append(BlowupChart(center=s, fine=fine, fs=mc.saturate(fine)))
    return charts


def pulled_ideal(chart_monoid, ideal):
    """The ideal generated on a blowup chart of ``ideal`` by the original
    generators."""
    # a chart holds the generators of the ideal's host (the fine chart is
    # generated by them and more, the fs chart contains the fine one), so
    # it holds the ideal's generators
    return MonoidIdeal._of_members(
        chart_monoid, [g.as_vector() for g in ideal.generators])


def blowup_is_idempotent(monoid, ideal):
    """Checks that the blowup is idempotent: on every chart (fine and fs)
    the pulled-back ideal is invertible, so blowing up again is trivial."""
    return charts_are_idempotent(blowup_charts(monoid, ideal), ideal)


def charts_are_idempotent(charts, ideal):
    """``blowup_is_idempotent`` on the charts ``blowup_charts`` returned
    for ``ideal``."""
    return all(is_invertible(pulled_ideal(chart.fine, ideal)) and
               is_invertible(pulled_ideal(chart.fs, ideal))
               for chart in charts)


# ---------------------------------------------------------------------------
# blowup fan


def blowup_fan(monoid, ideal):
    """The subdivision of the dual cone induced by the ideal.

    For a toric monoid M with dual cone sigma, the function
    u -> min over the ideal of <u, j> is piecewise linear on sigma; its
    maximal domains of linearity are sigma cut by <u, j - s> >= 0 over the
    minimal generators s.  The fan of the full-dimensional domains is
    returned, a fan by theorem (see ``cone_complex.Fan``).  (Charts whose
    domain of linearity is lower-dimensional are glue between neighbouring
    charts and contribute no maximal cone, so the charts of the blowup
    surject onto, but need not biject with, the maximal cones.)
    """
    if not mc.is_toric(monoid):
        raise DomainError("blowup fans are defined for toric monoids")
    if ideal.is_empty:
        raise DomainError("cannot blow up the empty ideal")
    d = monoid.ambient.free_rank
    sigma = cc.dual_cone(monoid._cone)
    reduced = ideal.reduce()
    regions = []
    for s in reduced.generators:
        normals = sigma.facet_normals + tuple(
            tuple(a - b for a, b in zip(j.free, s.free))
            for j in reduced.generators)
        region = cc.cone_from_constraints(normals, sigma.span_equations, d)
        if region.span_dim == sigma.span_dim:
            regions.append(region)
    return cc.Fan._built(d, regions)
