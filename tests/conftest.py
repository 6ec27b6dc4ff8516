"""Fixtures shared by the test modules."""

import inspect

import pytest

import logmonoid.exact_lattice as xl
import logmonoid.monoid_core as mc


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

    monkeypatch.setattr(xl, "minimal_nonneg_solutions", refuse)
