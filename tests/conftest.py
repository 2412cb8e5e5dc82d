import functools

import pytest

from moduli_census import curvezeta


@pytest.fixture
def fresh_symbols(monkeypatch):
    """Empty symbol tables for the test; the shared ones are left as they were."""
    monkeypatch.setattr(curvezeta, "_symbol_table",
                        functools.lru_cache(maxsize=None)(curvezeta._symbol_table.__wrapped__))
