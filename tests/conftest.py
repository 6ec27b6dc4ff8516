"""Fixtures shared by the test modules."""

import pytest

import logmonoid.cone_complex as cc


@pytest.fixture
def from_rays_calls(monkeypatch):
    """The list of ``RationalCone.from_rays`` calls made from here on."""
    calls = []
    build = cc.RationalCone.from_rays

    def counting(cls, vectors, dim):
        calls.append(dim)
        return build(vectors, dim)

    monkeypatch.setattr(cc.RationalCone, "from_rays", classmethod(counting))
    return calls
