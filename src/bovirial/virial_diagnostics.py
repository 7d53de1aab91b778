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
from .spectral_core import Field, Grid, _positive, _same_grid, frac_deriv
# unused here, but perfbench's tracer wraps them as this module's operators
from .spectral_core import dealias as spectral_dealias, deriv, hilbert  # noqa: F401

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
    g = u.grid
    wp = phi_prime(g.coords / _positive(lam, "lam"))
    return float(_local_energy(u.samples ** 2, frac_deriv(u, 0.5).samples, wp, g.spacing))


def _local_energy(squares: np.ndarray, dh: np.ndarray, wp: np.ndarray,
                  spacing: float) -> np.ndarray:
    """F of each row of a stack of states, given the rows of u^2, of D^{1/2}u
    and of the sampled phi'(x/lam)."""
    return spacing * ((wp * squares).sum(axis=-1) + (wp * dh ** 2).sum(axis=-1))


def diag_record(u: Field, t: float, s: WeightSchedule) -> DiagRecord:
    """Invariants and local energy at t; D^{1/2}u is computed once for E and F."""
    record = _block(u.samples[None], [t], [], s, u.grid)[0]
    return DiagRecord(**{name: float(v[0]) for name, v in record.items()})


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


def _weighted_sum(spacing: float, weight: np.ndarray, samples: np.ndarray) -> np.ndarray:
    return spacing * (weight * samples).sum(axis=-1)


def budgets(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
            s: WeightSchedule) -> tuple[MassBudget, EnergyBudget]:
    """Both budgets from three consecutive snapshots at t-dt, t, t+dt.

    The d/dt terms are centered differences of the full weighted integrals
    (weights evaluated at their own times); every other term is evaluated
    at t with analytic w' and lambda'. One spectral pass of 9 transforms
    (see _block), which also gives the three states' record values, unused
    here. Only the inputs are checked: a state whose square overflows
    gives terms that are not finite.
    """
    g = _same_grid(u, u_prev)
    _same_grid(u, u_next)
    _positive(dt, "dt")
    samples = np.array([u_prev.samples, u.samples, u_next.samples])
    _, mass, energy = _block(samples, [t - dt, t, t + dt], [dt], s, g)
    return (MassBudget(t=float(t), **{name: float(v[0]) for name, v in mass.items()}),
            EnergyBudget(t=float(t), **{name: float(v[0]) for name, v in energy.items()}))


def mass_budget(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
                s: WeightSchedule) -> MassBudget:
    """The mass half of budgets(u_prev, u, u_next, t, dt, s)."""
    return budgets(u_prev, u, u_next, t, dt, s)[0]


def energy_budget(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
                  s: WeightSchedule) -> EnergyBudget:
    """The energy half of budgets(u_prev, u, u_next, t, dt, s)."""
    return budgets(u_prev, u, u_next, t, dt, s)[1]


def _block(samples: np.ndarray, ts, hs, s: WeightSchedule, grid: Grid):
    """The record values of every row, and the budget values of the
    interior rows, of an (m, n) stack of consecutive states, in one
    spectral pass.

    Row i is the state at ts[i]; interior row i steps by hs[i - 1], its
    budgets pairing rows i - 1 and i + 1 as the states at t - h and t + h.
    Returns (record, mass, energy): dicts from the fields of DiagRecord,
    MassBudget and EnergyBudget (t left out of the budgets) to arrays over
    the rows and the interior rows, mass and energy None when no row is
    interior. The pass takes 9 transforms however many rows it serves (2
    with no interior row): one rfft of every row gives D^{1/2}u, shared by
    E, F and the budgets, and u_x, H u_x and H u_xx; one rfft of u^2 gives
    the flux and one of phi' u the commutator. Each row's window, spectrum
    and square are made once. A row gets the same bits as in a pass of its
    own: transforms and sums run along rows, dot products are taken row by
    row (a matrix product would sum in another order), and the scalar
    weights are taken with `math`, at each interior row's own t - h, t and
    t + h. Nothing is checked: a row whose samples are not finite has an L1
    that is not.
    """
    m, g = len(ts), grid
    lams = np.array([lambda_at(s, t) for t in ts])
    spectrum = np.fft.rfft(samples)
    dh = np.fft.irfft(spectrum * g._half_sym, g.n)
    z = g.coords / lams[:, None]
    winp, squares = phi_prime(z), np.square(samples)
    i1, i2, e, l1 = _invariants(samples, dh, g.spacing)
    record = {"t": np.array(ts, dtype=float), "I1": i1, "I2": i2, "E": e, "L1": l1,
              "F": _local_energy(squares, dh, winp, g.spacing), "lam": lams}
    if m < 3:
        return record, None, None

    spectrum, dh, z, winp, lam = spectrum[1:-1], dh[1:-1], z[1:-1], winp[1:-1], lams[1:-1]
    u, now, zwinp = samples[1:-1], ts[1:-1], z * winp
    taus = ([t - h for t, h in zip(now, hs)], now, [t + h for t, h in zip(now, hs)])
    w_prev, w, w_next = (np.array([w_at(s, tau) for tau in column]) for column in taus)
    wins = [phi(g.coords / np.array([lambda_at(s, tau) for tau in column])[:, None])
            for column in taus]
    w_prime = np.array([w_prime_at(s, t) for t in now])
    w_rate = w * (np.array([lambda_prime_at(s, t) for t in now]) / lam)
    two_h = 2.0 * np.asarray(hs, dtype=float)

    def window_terms(density):
        """For rho u or u^2 of every row: the centered d/dt of w int phi rho,
        w' int phi rho and w (lambda'/lambda) int (x/lambda) phi' rho of the
        interior rows, each neighbor weighted at its own t - h or t + h."""
        before, here, after = (_weighted_sum(g.spacing, window, rows) for window, rows
                               in zip(wins, (density[:-2], density[1:-1], density[2:])))
        return ((w_next * after - w_prev * before) / two_h, w_prime * here,
                w_rate * _weighted_sum(g.spacing, zwinp, density[1:-1]))

    ux, hux, disp = (np.fft.irfft(spectrum * sym, g.n) for sym in (
        g._deriv_sym, g._hilbert_deriv_sym, g._dispersion_sym))
    # the solver's own flux, -(u^2)_x after the 2/3 rule, so a4 is exactly
    # the flux term the trajectory felt
    flux = np.fft.irfft(_flux(u, g), g.n)
    # the commutator pairs as <D^{1/2}u, D^{1/2}(phi' u) - phi' D^{1/2}u>, with
    # plain products: the split d32 = d321 + d322 is then an exact adjointness
    # identity, not a band-limited approximation
    half_wu = np.fft.irfft(np.fft.rfft(winp * u) * g._half_sym, g.n)
    d322 = g.spacing * np.array([np.dot(a, b) for a, b in zip(dh, half_wu - winp * dh)])

    ddt, a1, a2 = window_terms(samples)
    a3 = w * _weighted_sum(g.spacing, wins[1], disp)
    a4 = -w * _weighted_sum(g.spacing, wins[1], flux)
    mass = {"ddt_term": ddt, "a1": a1, "a2": a2, "a3": a3, "a4": a4,
            "residual": ddt - a1 + a2 + a3 + a4}

    # the 1/2 of 1/2 u^2 is applied to the shared terms afterwards; halving
    # is exact in binary, so this matches weighting 1/2 u^2 directly
    ddt, damping, dilation = window_terms(squares)
    ddt, b1, b2 = 0.5 * ddt, -0.5 * damping, 0.5 * dilation
    d31 = _weighted_sum(g.spacing, wins[1], hux * ux)
    d32 = _weighted_sum(g.spacing, winp, hux * u)
    d321 = _weighted_sum(g.spacing, winp, dh ** 2)
    b3 = -w * (d31 + d32 / lam)
    b4 = -(2.0 / 3.0) * (w / lam) * _weighted_sum(g.spacing, winp, u * u * u)
    energy = {"ddt_term": ddt, "b1": b1, "b2": b2, "b3": b3, "b4": b4, "d31": d31, "d32": d32,
              "d321": d321, "d322": d322, "residual": ddt + b1 + b2 + b3 + b4}
    return record, mass, energy


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
