"""Shared fixtures and frozen regression constants.

The lemma constants below are 10x the supremum ratios measured by
inequality_harness.calibrate on the frozen corpus (seed 20260819, grid
n=1024, length=400, lambda in {1, 5, 20, 100}), rounded up at the last
kept digit. They are regression pins: the inequalities assert such
constants exist, and the suite asserts the measured ratios never cross
these particular values.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import bovirial as bv

settings.register_profile(
    "suite",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

FROZEN_CONSTANTS = {
    "KM1": 1137.3,
    "KM2": 20.457,
    "COMM": 0.48512,
    "KEY": 4.208,
}

CORPUS_SEED = 20260819
CORPUS_LAMBDAS = (1.0, 5.0, 20.0, 100.0)


@pytest.fixture(scope="session")
def grid_small():
    return bv.make_grid(1024, 400.0)


@pytest.fixture(scope="session")
def grid_medium():
    return bv.make_grid(4096, 400.0)


@pytest.fixture(scope="session")
def corpus(grid_small):
    from bovirial.inequality_harness import build_corpus

    return build_corpus(grid_small, seed=CORPUS_SEED)


@pytest.fixture(scope="session")
def gaussian_small(grid_small):
    x = grid_small.coords
    return bv.Field(grid_small, 0.5 * np.exp(-((x / 5.0) ** 2)))


@pytest.fixture(scope="session")
def budget_states(gaussian_small):
    """Five snapshots, spacing 0.01, of the reference Gaussian from t=10.

    Used by the budget closure tests: the middle triple gives the h
    residual, the endpoints with the center give the 2h residual."""
    cfg = bv.SolverConfig(dt=1e-3, t0=10.0, t_end=10.04, record_every=10)
    return bv.run_trajectory(gaussian_small, cfg)


@pytest.fixture
def transforms(monkeypatch):
    """Counts of np.fft.rfft and np.fft.irfft calls from here on."""
    count = Counter()
    for name in ("rfft", "irfft"):
        def counted(*args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            count[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return count
