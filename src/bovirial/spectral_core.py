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
    "hilbert",
    "frac_deriv",
    "deriv",
    "dealias",
    "inner",
    "l2_norm",
    "fourier_l1_deriv",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _positive(value, name: str):
    """Return value, raising ValueError unless it is positive and finite:
    the one check every length, scale and step goes through."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform sampling of [-L/2, L/2) with n points.

    n must be a power of two (>= 16) so transform sizes stay fast and the
    dealiasing mask is unambiguous. Derived arrays are computed once and
    frozen; the rfft half-spectrum symbols the operators use are private.
    """

    n: int
    length: float

    def __post_init__(self):
        n, length = self.n, self.length
        if not isinstance(n, int) or n < 16 or (n & (n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 16, got {n!r}")
        object.__setattr__(self, "length", float(_positive(length, "grid length")))
        coords = -0.5 * self.length + self.spacing * np.arange(n)
        object.__setattr__(self, "coords", _frozen(coords))
        # rfft half-spectrum symbols: H = -i sgn(xi) with sgn(0) = 0 and d/dx = i xi
        # are odd, so they zero the unpaired Nyquist mode; the 2/3 rule keeps |k| <= n/3.
        # The composites stand for a chain of round trips in one multiply: H d/dx,
        # H d^2/dx^2, -d/dx after the 2/3 rule, and |xi|^(1/2).
        # The equation's two operators are written only here. -_dispersion_sym is the
        # linear share of u_t: bo_rhs uses it, bo_solver._Plan exponentiates it into
        # the exact propagator (1 at Nyquist, where the symbol is 0), and the budgets'
        # a3 pairs phi with +_dispersion_sym. _flux_sym maps the spectrum of u^2 to
        # the flux's share: bo_solver._flux applies it for the stepper, bo_rhs and a4
        k = np.arange(n // 2 + 1)
        xi_r = 2.0 * np.pi * k / self.length
        paired = k < n // 2
        hil, dx, keep = -1j * ((k > 0) & paired), 1j * xi_r * paired, 1.0 * (k <= n // 3)
        for name, arr in (("_xi_r", xi_r), ("_hilbert_sym", hil), ("_deriv_sym", dx),
                          ("_dealias_sym", keep), ("_hilbert_deriv_sym", hil * dx),
                          ("_dispersion_sym", hil * dx * dx), ("_flux_sym", -(keep * dx)),
                          ("_half_sym", xi_r ** 0.5)):
            object.__setattr__(self, name, _frozen(arr))

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
    """Real samples bound to a grid: finite, length n, float64, frozen.
    Every Field, whether built from outside samples or from an operator
    result, is made here: the samples are cast, shape-checked, copied,
    checked finite and frozen, so an overflowing result raises ValueError."""

    grid: Grid
    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=np.float64)
        if s.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "samples", _frozen(s))


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


def _multiply(f: Field, symbol: np.ndarray) -> Field:
    """One rfft -> multiply by a half-spectrum symbol -> irfft round trip."""
    return Field(f.grid, np.fft.irfft(np.fft.rfft(f.samples) * symbol, f.grid.n))


def hilbert(f: Field) -> Field:
    """Hilbert transform, multiplier -i sgn(xi).

    sgn(0) = 0 kills the mean; the Nyquist mode has no conjugate partner
    under an odd multiplier and is zeroed.
    """
    return _multiply(f, f.grid._hilbert_sym)


def frac_deriv(f: Field, s: float) -> Field:
    """|xi|^s multiplier for s in [0, 2]; s = 0 is the exact identity."""
    if not (np.isfinite(s) and 0.0 <= s <= 2.0):
        raise ValueError(f"fractional order must lie in [0, 2], got {s!r}")
    if s == 0.0:
        return f
    return _multiply(f, f.grid._xi_r ** s)


def deriv(f: Field) -> Field:
    """Spectral d/dx (odd multiplier: Nyquist zeroed)."""
    return _multiply(f, f.grid._deriv_sym)


def dealias(f: Field) -> Field:
    """Zero every mode with |k| > n/3 (2/3 rule)."""
    return _multiply(f, f.grid._dealias_sym)


def inner(f: Field, g: Field) -> float:
    """Rectangle-rule L2 pairing: spacing * sum(f g). Exact for
    band-limited products, spectrally accurate otherwise."""
    grid = _same_grid(f, g)
    return float(grid.spacing * np.dot(f.samples, g.samples))


def l2_norm(f: Field) -> float:
    return float(np.sqrt(inner(f, f)))


def fourier_l1_deriv(w: Field) -> float:
    """l1 mass of the derivative's spectrum: sum_k |(w')^(xi_k)| * 2 pi / L.

    Coefficients are continuum-normalized (spacing * rfft), negative-k
    partners counted by doubling the interior of the half spectrum. For a
    window w(x/lam) this scales like 1/lam and bounds the commutator size
    measured by the inequality harness; constants give exactly 0. One
    rfft: the derivative's spectrum is w's times the d/dx symbol.
    """
    g = w.grid
    mag = g.spacing * np.abs(np.fft.rfft(w.samples) * g._deriv_sym)
    total = mag[0] + 2.0 * float(np.sum(mag[1:-1])) + mag[-1]
    return float(total * 2.0 * np.pi / g.length)
