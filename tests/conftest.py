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
from bovirial.spectral_core import Field, _positive, deriv, hilbert
from bovirial.virial_diagnostics import phi

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


def _count_transforms(monkeypatch, weight):
    count = Counter()
    for name in ("rfft", "irfft"):
        def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            count[_name] += weight(a)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return count


@pytest.fixture
def transforms(monkeypatch):
    """Counts of np.fft.rfft and np.fft.irfft calls from here on."""
    return _count_transforms(monkeypatch, lambda a: 1)


@pytest.fixture
def transform_rows(monkeypatch):
    """Counts of the 1-D rows np.fft.rfft and np.fft.irfft transform from
    here on, along the last axis: a call on an (m, n) array counts m, so a
    batched call cannot hide work."""
    return _count_transforms(monkeypatch, lambda a: int(np.prod(np.shape(a)[:-1])))


# reference helpers that only the tests call, held to the library's rules:
# a window scale goes through `_positive`


def phi_pp(x):
    """The window profile's second derivative, -2x/(1 + x^2)^2."""
    x = np.asarray(x) if not np.isscalar(x) else x
    return -2.0 * x / np.square(1.0 + np.square(x))


def d2x_hilbert_phi(lam: float, grid) -> Field:
    """Discrete (d/dx)^2 H image of the sampled window phi(x/lam).

    Across the periodic seam the sampled window jumps by
    phi(L/(2 lam)) - phi(-L/(2 lam)) = 2 arctan(L/(2 lam)), which a
    spectral derivative turns into global ringing. A linear ramp carrying
    that jump is removed first; nothing is added back because a second
    derivative annihilates affine functions. Since phi' is even, what
    remains is continuous across the seam in both value and slope, and
    the sup error on |x| <= L/4 against the rational closed form
    lam^-2 (1-z^2)/(1+z^2)^2, z = x/lam, is set by the -1/x^2 tail of the
    image that the finite box cuts off (measured 2.3e-5 at (4096, 400) and
    5.8e-6 at (8192, 800), for lam = 1, 5 and 20 alike).
    """
    jump = 2.0 * np.arctan(grid.length / (2.0 * _positive(lam, "lam")))
    ramp = jump * (0.5 + grid.coords / grid.length)
    smooth = Field(grid, phi(grid.coords / lam) - ramp)
    return deriv(deriv(hilbert(smooth)))


def weighted_dispersive_flux(u: Field, lam: float) -> float:
    """int phi(x/lam) (H u_xx) u dx, the dispersive contribution to the
    energy budget before splitting; equals -(d31 + d32/lam)."""
    g = u.grid
    win = phi(g.coords / _positive(lam, "lam"))
    disp = deriv(deriv(hilbert(u)))
    return float(g.spacing * np.sum(win * (disp.samples * u.samples)))
