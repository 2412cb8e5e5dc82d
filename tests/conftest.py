import functools

import pytest

from moduli_census import curvezeta, moduli


@pytest.fixture
def fresh_symbols(monkeypatch):
    """Empty symbol tables for the test; the shared ones are left as they were."""
    monkeypatch.setattr(curvezeta, "_symbol_table",
                        functools.lru_cache(maxsize=None)(curvezeta._symbol_table.__wrapped__))


@pytest.fixture
def fresh_forms(monkeypatch):
    """An empty cache of form vectors for the test, so that no vector of a
    patched form builder outlives it; the shared cache is left as it was."""
    monkeypatch.setattr(moduli, "_vector",
                        functools.lru_cache(maxsize=None)(moduli._vector.__wrapped__))
