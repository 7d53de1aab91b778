"""Weighted virial functionals: the moving window, local energy, and the
term-by-term mass/energy budgets with closure residuals.

The window is phi(x/lambda(t)) with phi = pi/2 + arctan, lambda(t) =
c t^b / log t growing sublinearly, w(t) = t^-a log^-2 t an outer damping,
eta(t) = 1/(t log t) the non-integrable time measure, a + b = 1,
a in [0, 1/2). All time derivatives of weights are closed-form; only the
solution is ever finite-differenced, so budget residuals converge at
exactly the order of the centered difference (second).

Sign conventions are fixed so that each budget's displayed terms sum to
zero along solutions:

    d/dt[ w int phi u ]        =  a1 - a2 - a3 - a4
    d/dt[ 1/2 w int phi u^2 ]  = -b1 - b2 - b3 - b4

with all terms stored in the positive forms documented on the budget
dataclasses. The stored residual is the corresponding defect and is the
quantity the closure tests drive to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bo_solver import _flux, _invariants
from .spectral_core import Field, Grid, _inverse, _positive, _same_grid, deriv, frac_deriv, hilbert, inner
# unused here, but perfbench's tracer wraps it as this module's dealias
from .spectral_core import dealias as spectral_dealias  # noqa: F401

__all__ = [
    "WeightSchedule",
    "DiagRecord",
    "MassBudget",
    "EnergyBudget",
    "lambda_at",
    "lambda_prime_at",
    "w_at",
    "w_prime_at",
    "eta_at",
    "local_energy",
    "diag_record",
    "budgets",
    "mass_budget",
    "energy_budget",
    "integrated_decay",
]


def phi(x):
    """Window profile pi/2 + arctan(x): 0 at -inf, pi at +inf."""
    return np.pi / 2.0 + np.arctan(x)


def phi_prime(x):
    return 1.0 / (1.0 + np.square(x))


def phi_pp(x):
    x = np.asarray(x) if not np.isscalar(x) else x
    return -2.0 * x / np.square(1.0 + np.square(x))


@dataclass(frozen=True)
class WeightSchedule:
    """Exponent a in [0, 1/2) and window scale factor; b = 1 - a is derived
    so a + b = 1 holds exactly."""

    a: float
    c_scale: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and 0.0 <= self.a < 0.5):
            raise ValueError(f"a must lie in [0, 1/2), got {self.a!r}")
        _positive(self.c_scale, "c_scale")

    @property
    def b(self) -> float:
        return 1.0 - self.a


def _check_t(t: float) -> float:
    t = float(t)
    if not (np.isfinite(t) and t > 1.0):
        raise ValueError(f"weights are defined for t > 1 only, got {t!r}")
    return t


def lambda_at(s: WeightSchedule, t: float) -> float:
    t = _check_t(t)
    return s.c_scale * t ** s.b / math.log(t)


def lambda_prime_at(s: WeightSchedule, t: float) -> float:
    t = _check_t(t)
    lt = math.log(t)
    return s.c_scale * t ** (s.b - 1.0) * (s.b * lt - 1.0) / lt ** 2


def w_at(s: WeightSchedule, t: float) -> float:
    t = _check_t(t)
    return t ** (-s.a) / math.log(t) ** 2


def w_prime_at(s: WeightSchedule, t: float) -> float:
    t = _check_t(t)
    lt = math.log(t)
    return -(t ** (-s.a - 1.0)) * (s.a * lt + 2.0) / lt ** 3


def eta_at(t: float) -> float:
    """Time measure 1/(t log t); integrable over no neighborhood of
    infinity, which is what makes the decay integral informative."""
    t = _check_t(t)
    return 1.0 / (t * math.log(t))


def window_prime(grid: Grid, lam: float) -> Field:
    """Sampled phi'(x/lam) (no 1/lam chain factor; callers keep those
    explicit)."""
    return Field(grid, phi_prime(grid.coords / _positive(lam, "lam")))


def d2x_hilbert_phi(lam: float, grid: Grid) -> Field:
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


@dataclass(frozen=True)
class DiagRecord:
    t: float
    I1: float
    I2: float
    E: float
    L1: float
    F: float
    lam: float  # window scale lambda(t); serialized under the name "lambda"

    def __post_init__(self):
        if not self.F >= 0.0:
            raise ValueError(f"local energy must be nonnegative, got {self.F!r}")
        _positive(self.lam, "window scale")
        if not self.I2 >= 0.0:
            raise ValueError(f"I2 must be nonnegative, got {self.I2!r}")


def local_energy(u: Field, lam: float) -> float:
    """F = int phi'(x/lam) (u^2 + (D^{1/2}u)^2) dx, always >= 0."""
    _positive(lam, "lam")
    return _local_energy(u, frac_deriv(u, 0.5), lam)


def _local_energy(u: Field, dh: Field, lam: float) -> float:
    g = u.grid
    wp = phi_prime(g.coords / lam)
    val = g.spacing * (np.sum(wp * u.samples ** 2) + np.sum(wp * dh.samples ** 2))
    return float(val)


def diag_record(u: Field, t: float, s: WeightSchedule) -> DiagRecord:
    """Invariants and local energy at t; D^{1/2}u is computed once for E and F."""
    lam = lambda_at(s, t)
    dh = frac_deriv(u, 0.5)
    i1, i2, e, l1 = _invariants(u, dh)
    return DiagRecord(t=float(t), I1=i1, I2=i2, E=e, L1=l1, F=_local_energy(u, dh, lam), lam=lam)


@dataclass(frozen=True)
class MassBudget:
    """Itemized d/dt of w(t) int phi(x/lambda) u dx.

    Terms are stored in positive form:
      a1 = w' int phi u
      a2 = w (lambda'/lambda) int (x/lambda) phi' u
      a3 = w int phi (H u_x)_x
      a4 = w int phi (u^2)_x
    and the closure defect is residual = ddt_term - a1 + a2 + a3 + a4.
    """

    t: float
    ddt_term: float
    a1: float
    a2: float
    a3: float
    a4: float
    residual: float


@dataclass(frozen=True)
class EnergyBudget:
    """Itemized d/dt of 1/2 w(t) int phi(x/lambda) u^2 dx.

    b1 = -1/2 w' int phi u^2
    b2 = +1/2 w (lambda'/lambda) int (x/lambda) phi' u^2
    b3 = -w (d31 + d32/lambda),  d31 = int (H u_x) u_x phi,
                                 d32 = int (H u_x) u phi'(x/lambda)
    b4 = -(2/3) (w/lambda) int phi'(x/lambda) u^3
    d32 splits exactly as d321 + d322 with
    d321 = int (D^{1/2}u)^2 phi'  and  d322 = int D^{1/2}u [D^{1/2}; phi'] u.
    Closure defect: residual = ddt_term + b1 + b2 + b3 + b4.
    """

    t: float
    ddt_term: float
    b1: float
    b2: float
    b3: float
    b4: float
    d31: float
    d32: float
    d321: float
    d322: float
    residual: float


def _budget_guard(u_prev: Field, u: Field, u_next: Field, dt: float) -> Grid:
    g = _same_grid(u, u_prev)
    _same_grid(u, u_next)
    _positive(dt, "dt")
    return g


def _weighted_sum(grid: Grid, weight: np.ndarray, samples: np.ndarray) -> float:
    return float(grid.spacing * (weight * samples).sum())


def budgets(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
            s: WeightSchedule) -> tuple[MassBudget, EnergyBudget]:
    """Both budgets from three consecutive snapshots at t-dt, t, t+dt.

    The d/dt terms are centered differences of the full weighted integrals
    (weights evaluated at their own times); every other term is evaluated
    at t with analytic w' and lambda'. The windows are evaluated once for
    both budgets, and the operators take one spectral pass (9 transforms):
    one rfft of u gives u_x, H u_x, H u_xx and D^{1/2}u, one of u^2 the flux
    and one of phi' u the commutator.
    """
    g = _budget_guard(u_prev, u, u_next, dt)
    lam, w = lambda_at(s, t), w_at(s, t)
    z = g.coords / lam
    win, winp = phi(z), phi_prime(z)
    zwinp = z * winp
    w_next, win_next = w_at(s, t + dt), phi(g.coords / lambda_at(s, t + dt))
    w_prev, win_prev = w_at(s, t - dt), phi(g.coords / lambda_at(s, t - dt))
    w_prime, w_rate = w_prime_at(s, t), w * (lambda_prime_at(s, t) / lam)

    def window_terms(density):
        """For rho = density(samples): the centered d/dt of w int phi rho,
        w' int phi rho and w (lambda'/lambda) int (x/lambda) phi' rho."""
        rho = density(u.samples)
        ddt = (w_next * _weighted_sum(g, win_next, density(u_next.samples))
               - w_prev * _weighted_sum(g, win_prev, density(u_prev.samples))) / (2.0 * dt)
        return ddt, w_prime * _weighted_sum(g, win, rho), w_rate * _weighted_sum(g, zwinp, rho)

    spectrum = np.fft.rfft(u.samples)
    ux, hux, disp, dh = (_inverse(g, spectrum, sym) for sym in (
        g._deriv_sym, g._hilbert_deriv_sym, g._dispersion_sym, g._half_sym))
    # the solver's own flux, -(u^2)_x after the 2/3 rule, so a4 is exactly
    # the flux term the trajectory felt; a square that overflows fails here
    flux = Field(g, np.fft.irfft(_flux(u.samples, g), g.n))
    # the commutator pairs as <D^{1/2}u, D^{1/2}(phi' u) - phi' D^{1/2}u>, with
    # plain products: the split d32 = d321 + d322 is then an exact adjointness
    # identity, not a band-limited approximation
    half_wu = _inverse(g, np.fft.rfft(Field(g, winp * u.samples).samples), g._half_sym)
    d322 = inner(dh, Field(g, half_wu.samples - winp * dh.samples))

    ddt, a1, a2 = window_terms(lambda v: v)
    a3 = w * _weighted_sum(g, win, disp.samples)
    a4 = -w * _weighted_sum(g, win, flux.samples)
    mass = MassBudget(t=float(t), ddt_term=ddt, a1=a1, a2=a2, a3=a3, a4=a4,
                      residual=ddt - a1 + a2 + a3 + a4)

    # the 1/2 of 1/2 u^2 is applied to the shared terms afterwards; halving
    # is exact in binary, so this matches weighting 1/2 u^2 directly
    ddt, damping, dilation = window_terms(np.square)
    ddt, b1, b2 = 0.5 * ddt, -0.5 * damping, 0.5 * dilation
    d31 = _weighted_sum(g, win, hux.samples * ux.samples)
    d32 = _weighted_sum(g, winp, hux.samples * u.samples)
    d321 = _weighted_sum(g, winp, dh.samples ** 2)
    b3 = -w * (d31 + d32 / lam)
    b4 = -(2.0 / 3.0) * (w / lam) * _weighted_sum(g, winp, u.samples ** 3)
    energy = EnergyBudget(t=float(t), ddt_term=ddt, b1=b1, b2=b2, b3=b3, b4=b4, d31=d31,
                          d32=d32, d321=d321, d322=d322, residual=ddt + b1 + b2 + b3 + b4)
    return mass, energy


def mass_budget(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
                s: WeightSchedule) -> MassBudget:
    """The mass half of budgets(u_prev, u, u_next, t, dt, s)."""
    return budgets(u_prev, u, u_next, t, dt, s)[0]


def energy_budget(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
                  s: WeightSchedule) -> EnergyBudget:
    """The energy half of budgets(u_prev, u, u_next, t, dt, s)."""
    return budgets(u_prev, u, u_next, t, dt, s)[1]


def weighted_dispersive_flux(u: Field, lam: float) -> float:
    """int phi(x/lam) (H u_xx) u dx, the dispersive contribution to the
    energy budget before splitting; equals -(d31 + d32/lam)."""
    g = u.grid
    win = phi(g.coords / _positive(lam, "lam"))
    disp = deriv(deriv(hilbert(u)))
    return _weighted_sum(g, win, disp.samples * u.samples)


def integrated_decay(records) -> tuple[float, list[tuple[float, float]]]:
    """Trapezoid approximation of int eta(t) F(t) dt over the recorded
    span, plus the minimizing (t, F) pair of each dyadic block [2^k, 2^{k+1})
    the records touch.

    Records must be ordered in t and start at t >= 10.
    """
    records = list(records)
    if not records:
        raise ValueError("no records: empty integration range")
    ts = np.array([r.t for r in records], dtype=float)
    fs = np.array([r.F for r in records], dtype=float)
    if np.any(ts < 10.0):
        raise ValueError("decay records must satisfy t >= 10")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("decay records must be strictly increasing in t")

    etas = np.array([eta_at(t) for t in ts])
    vals = etas * fs
    integral = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ts))) if len(ts) > 1 else 0.0

    minima: list[tuple[float, float]] = []
    k_lo = int(math.floor(math.log2(ts[0])))
    k_hi = int(math.floor(math.log2(ts[-1])))
    for k in range(k_lo, k_hi + 1):
        in_block = (ts >= 2.0 ** k) & (ts < 2.0 ** (k + 1))
        if not np.any(in_block):
            continue
        idx = np.flatnonzero(in_block)
        best = idx[int(np.argmin(fs[idx]))]  # argmin takes the first minimizer
        minima.append((float(ts[best]), float(fs[best])))
    return integral, minima
