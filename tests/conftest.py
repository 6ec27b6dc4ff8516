"""Fixtures shared by the test modules."""

import inspect
import warnings

import pytest

import logmonoid.cone_complex as cc
import logmonoid.exact_lattice as xl
import logmonoid.log_hom_analysis as lha
import logmonoid.monoid_core as mc


def pytest_configure(config):
    # hypothesis formats a failing example through hypothesis.extra._patching,
    # whose first import (of libcst) raises a DeprecationWarning; under
    # -W error that turns the report of the failure into an INTERNALERROR and
    # stops the run.  Importing it once here, with that warning ignored,
    # installs no filter: every later warning still fails the run.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass


def group_monoid(group):
    """A finitely generated abelian group viewed as a monoid (all units):
    the basis vectors of its lift coordinates, and the negatives of the
    free ones."""
    gens = []
    for i in range(group.lift_dim):
        e = tuple(int(i == j) for j in range(group.lift_dim))
        gens.append(e)
        if i < group.free_rank:
            gens.append(tuple(-x for x in e))
    return mc.AffineMonoid(group, gens)


def has_nonneg_solution(a, b):
    """Whether a x = b has any nonnegative integer solution, through the
    checked matrix and right-hand-side doors of the solver."""
    a = xl._as_matrix(a)
    b = xl._as_vector(b, a.shape[0], "right-hand side")
    return next(xl._nonneg_solutions(xl.mat_columns(a), b), None) is not None


def relations_among(group, vectors):
    """Generators of {x : sum_i x_i vectors[i] = 0 in ``group``}, read by
    hand off a Smith decomposition of their own: the columns of V past the
    invariant factors of [vectors | relations], sign-normalized and cut to
    the vectors' coordinates, zero columns kept."""
    vectors = list(vectors)
    dec = xl._snf_full(xl._from_columns(
        vectors + group.relation_columns(), group.lift_dim))
    cols = []
    for col in xl.mat_columns(dec.right)[len(dec.diag):]:
        if next(x for x in col if x) < 0:
            col = tuple(-x for x in col)
        cols.append(col[:len(vectors)])
    return cols


def zeros_mat(m, n):
    return xl.IntMatrix(((0,) * n,) * m, n)


def identity_mat(n):
    return xl.IntMatrix(tuple(tuple(int(i == j) for j in range(n))
                              for i in range(n)), n)


def identity_hom(monoid):
    n = monoid.ambient.lift_dim
    return lha.MonoidHom(source=monoid, target=monoid,
                         matrix=identity_mat(n))


def all_cones(fan):
    """Every face of every maximal cone of the fan, sorted by (dimension,
    rays)."""
    found = set()
    for c in fan.maximal_cones:
        found.update(cc.faces(c))
    return sorted(found, key=cc.RationalCone.sort_key)


def monoid_of_cone(cone):
    """cone meet Z^dim as an affine monoid.

    Full-dimensional cones keep their coordinates (``from_vectors`` keeps
    those of a spanning set); otherwise the span sublattice is re-presented,
    changing coordinates.  The zero cone gives the trivial monoid.
    """
    return mc.AffineMonoid.from_vectors(cc.cone_lattice_generators(cone))


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps the function or classmethod
    ``owner.name`` until the test ends and returns the list that receives
    the positional arguments of each call made from then on."""
    def wrap(owner, name):
        calls, real = [], getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        if isinstance(inspect.getattr_static(owner, name), classmethod):
            monkeypatch.setattr(owner, name, classmethod(
                lambda cls, *args, **kwargs: counting(*args, **kwargs)))
        else:
            monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap


@pytest.fixture
def no_solver(monkeypatch):
    """Makes every Contejean-Devie solve from here on fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the nonnegative solver was called")

    monkeypatch.setattr(xl, "_minimal_solutions", refuse)
