"""Fourier multiplier calculus on a uniform periodic grid.

Everything downstream (time stepping, virial budgets, inequality checks)
reduces to a handful of multiplier operations on real samples: the Hilbert
transform, fractional derivatives |xi|^s, the spatial derivative, and
rectangle-rule integrals. Fields are real-valued and all transforms go
through rfft, so realness is exact by construction instead of being
enforced by discarding imaginary residue after a complex round trip.

Conventions:
  * grid points x_j = -L/2 + j L/n, j = 0..n-1, periodic wrap;
  * wavenumbers xi_k = 2 pi k / L;
  * Hilbert transform = multiplier -i sgn(xi), with sgn(0) = 0;
  * odd multipliers (H, d/dx) zero the unpaired Nyquist mode, even
    ones (|xi|^s) keep it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "make_grid",
    "zeros",
    "hilbert",
    "frac_deriv",
    "deriv",
    "dealias",
    "inner",
    "l2_norm",
    "fourier_l1_deriv",
    "reflect",
]


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform sampling of [-L/2, L/2) with n points.

    n must be a power of two (>= 16) so transform sizes stay fast and the
    dealiasing mask is unambiguous. Derived arrays are computed once and
    frozen; `wavenumbers` lists the full set 2 pi k / L for
    k = -n/2 .. n/2 - 1 in fft order, while the rfft half-spectrum used
    internally is kept private.
    """

    n: int
    length: float

    def __post_init__(self):
        n, length = self.n, self.length
        if not isinstance(n, int) or n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n!r}")
        if not (np.isfinite(length) and length > 0):
            raise ValueError(f"grid length must be positive and finite, got {length!r}")
        object.__setattr__(self, "length", float(length))
        coords = -0.5 * self.length + self.spacing * np.arange(n)
        object.__setattr__(self, "coords", _frozen(coords))
        k_full = np.fft.fftfreq(n, d=1.0 / n)  # integer k in fft order
        object.__setattr__(self, "wavenumbers", _frozen(2.0 * np.pi * k_full / self.length))
        xi_r = 2.0 * np.pi * np.arange(n // 2 + 1) / self.length
        object.__setattr__(self, "_xi_r", _frozen(xi_r))
        # 2/3 rule: keep |k| <= n/3, zero the top third of the spectrum
        object.__setattr__(self, "_keep", _frozen(np.arange(n // 2 + 1) <= n // 3))

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def __reduce__(self):
        # rebuild on unpickling, so a worker's copy is frozen too
        return (Grid, (self.n, self.length))


def make_grid(n: int, length: float) -> Grid:
    return Grid(n=n, length=length)


@dataclass(frozen=True, eq=False)
class Field:
    """Real samples bound to a grid. Samples are copied, cast to float64,
    checked finite, and frozen."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", _frozen(s.copy()))


def zeros(grid: Grid) -> Field:
    return Field(grid, np.zeros(grid.n))


def _same_grid(f: Field, g: Field) -> Grid:
    if f.grid is not g.grid and (f.grid.n != g.grid.n or f.grid.length != g.grid.length):
        raise ValueError("fields live on different grids")
    return f.grid


def _band_limited(rng: np.random.Generator, grid: Grid, kmax: int) -> np.ndarray:
    """Real samples whose modes 1..kmax carry independent standard complex
    normal coefficients drawn from `rng`; every other mode is zero."""
    co = np.zeros(grid.n // 2 + 1, dtype=complex)
    co[1 : kmax + 1] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
    return np.fft.irfft(co, grid.n)


def hilbert(f: Field) -> Field:
    """Hilbert transform, multiplier -i sgn(xi).

    sgn(0) = 0 kills the mean; the Nyquist mode has no conjugate partner
    under an odd multiplier and is zeroed.
    """
    g = f.grid
    fh = np.fft.rfft(f.samples)
    fh[0] = 0.0
    fh[1:-1] *= -1j
    fh[-1] = 0.0
    return Field(g, np.fft.irfft(fh, g.n))


def frac_deriv(f: Field, s: float) -> Field:
    """|xi|^s multiplier for s in [0, 2]; s = 0 is the exact identity."""
    if not (np.isfinite(s) and 0.0 <= s <= 2.0):
        raise ValueError(f"fractional order must lie in [0, 2], got {s!r}")
    if s == 0.0:
        return Field(f.grid, f.samples)
    g = f.grid
    fh = np.fft.rfft(f.samples)
    fh *= g._xi_r ** s
    return Field(g, np.fft.irfft(fh, g.n))


def deriv(f: Field) -> Field:
    """Spectral d/dx (odd multiplier: Nyquist zeroed)."""
    g = f.grid
    fh = np.fft.rfft(f.samples)
    fh *= 1j * g._xi_r
    fh[-1] = 0.0
    return Field(g, np.fft.irfft(fh, g.n))


def dealias(f: Field) -> Field:
    """Zero every mode with |k| > n/3 (2/3 rule)."""
    g = f.grid
    fh = np.fft.rfft(f.samples)
    fh[~g._keep] = 0.0
    return Field(g, np.fft.irfft(fh, g.n))


def inner(f: Field, g: Field) -> float:
    """Rectangle-rule L2 pairing: spacing * sum(f g). Exact for
    band-limited products, spectrally accurate otherwise."""
    grid = _same_grid(f, g)
    return float(grid.spacing * np.dot(f.samples, g.samples))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def fourier_l1_deriv(w: Field) -> float:
    """l1 mass of the derivative's spectrum: sum_k |(w')^(xi_k)| * 2 pi / L.

    Coefficients are continuum-normalized (spacing * rfft), negative-k
    partners counted by doubling the interior of the half spectrum. For a
    window w(x/lam) this scales like 1/lam and bounds the commutator size
    measured by the inequality harness; constants give exactly 0.
    """
    g = w.grid
    mag = g.spacing * np.abs(np.fft.rfft(deriv(w).samples))
    total = mag[0] + 2.0 * float(np.sum(mag[1:-1])) + mag[-1]
    return float(total * 2.0 * np.pi / g.length)


def reflect(f: Field) -> Field:
    """Spatial reflection x -> -x on the periodic grid (index 0 fixed)."""
    g = f.grid
    idx = (g.n - np.arange(g.n)) % g.n
    return Field(g, f.samples[idx])
