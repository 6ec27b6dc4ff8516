"""Fixtures shared by the test modules."""

import inspect

import pytest

import logmonoid.exact_lattice as xl


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
