"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end protocol tests")


@pytest.fixture
def require_batched(monkeypatch):
    """Make every vmap batch that leaves the lockstep path fail loudly:
    the fallback that runs a raising batch's trials as cells of one
    (``repro.experiments.vmap._rows_alone``) raises instead of quietly
    producing serial-identical rows."""
    from repro.experiments import vmap

    def refuse(trials, policy=None):
        raise AssertionError(
            f"cell {trials[0].cell} fell back to cells of one")

    monkeypatch.setattr(vmap, "_rows_alone", refuse)
