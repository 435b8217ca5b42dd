"""Fixtures shared by the test modules."""

import pytest

import driftsolve.grid


@pytest.fixture
def op_applies(monkeypatch):
    """Count of scalar-operator applies, taken through grid._scalar_op_values."""
    real = driftsolve.grid._scalar_op_values
    count = [0]

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(driftsolve.grid, "_scalar_op_values", counted)
    return count
