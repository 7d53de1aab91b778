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
    record = _block(u.samples[None], [t], None, s, u.grid)[0]
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


def _weighed(s: WeightSchedule, grid: Grid, taus, samples: np.ndarray) -> list[tuple]:
    """(w int phi u, w int phi u^2) of each row of a (k, n) stack of states,
    w and phi of row i at time taus[i]; sums run along rows, so a row gets
    the bits it would get alone."""
    w = np.array([w_at(s, tau) for tau in taus])
    win = phi(grid.coords / np.array([lambda_at(s, tau) for tau in taus])[:, None])
    return list(zip((w * _weighted_sum(grid.spacing, win, samples)).tolist(),
                    (w * _weighted_sum(grid.spacing, win, np.square(samples))).tolist()))


def _closed(behind, terms, ahead, h: float) -> tuple[dict, dict]:
    """A state's MassBudget and EnergyBudget fields but t, as two dicts, from its
    terms (see _block) and the _weighed integrals behind it at t - h and ahead at t + h."""
    (m, e), two_h = terms, 2.0 * h
    dm = (ahead[0] - behind[0]) / two_h
    # the 1/2 of 1/2 u^2 is applied afterwards; halving is exact in binary,
    # so this matches weighting 1/2 u^2 directly
    de = 0.5 * ((ahead[1] - behind[1]) / two_h)
    return ({**m, "ddt_term": dm, "residual": dm - m["a1"] + m["a2"] + m["a3"] + m["a4"]},
            {**e, "ddt_term": de, "residual": de + e["b1"] + e["b2"] + e["b3"] + e["b4"]})


def budgets(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
            s: WeightSchedule) -> tuple[MassBudget, EnergyBudget]:
    """Both budgets from three consecutive snapshots at t-dt, t, t+dt.

    The d/dt terms are centered differences of the full weighted integrals
    (weights evaluated at their own times); every other term is evaluated
    at t with analytic w' and lambda'. One spectral pass of 9 transforms,
    of u alone (see _block). Only the inputs are checked: a state whose
    square overflows gives terms that are not finite.
    """
    g = _same_grid(u, u_prev, u_next)
    _positive(dt, "dt")
    _, [terms], _ = _block(u.samples[None], [t], [dt], s, g)
    behind, ahead = _weighed(s, g, [t - dt, t + dt], np.array([u_prev.samples, u_next.samples]))
    mass, energy = _closed(behind, terms, ahead, dt)
    return MassBudget(t=float(t), **mass), EnergyBudget(t=float(t), **energy)


def mass_budget(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
                s: WeightSchedule) -> MassBudget:
    """The mass half of budgets(u_prev, u, u_next, t, dt, s)."""
    return budgets(u_prev, u, u_next, t, dt, s)[0]


def energy_budget(u_prev: Field, u: Field, u_next: Field, t: float, dt: float,
                  s: WeightSchedule) -> EnergyBudget:
    """The energy half of budgets(u_prev, u, u_next, t, dt, s)."""
    return budgets(u_prev, u, u_next, t, dt, s)[1]


def _block(samples: np.ndarray, ts, hs, s: WeightSchedule, g: Grid, before=None):
    """Record values, own budget terms and pair integrals of an (m, n) stack
    of consecutive states, in one spectral pass.

    Row i is the state at ts[i], hs[i] its step back; `before` is the state
    before row 0 as (t, h, samples), or None. Returns (record, terms,
    pairs): record maps the fields of DiagRecord to arrays over the rows;
    terms[i] is row i's pair of dicts of the MassBudget and EnergyBudget
    fields taken at its own t (all but t, ddt_term and residual); pairs[i]
    holds the _weighed integrals of the state before row i at ts[i] - hs[i]
    and of row i at that state's t + h (None for row 0 without `before`),
    so _closed(pairs[i][0], terms[i], pairs[i + 1][1], hs[i]) are row i's
    budgets. With hs None the record alone takes 2 transforms; else the
    pass takes 9 however many rows it serves, none of them `before`: one
    rfft of every row gives D^{1/2}u (for E, F and the terms), u_x, H u_x
    and H u_xx; one rfft of u^2 gives the flux, one of phi' u the
    commutator. Transforms and sums run along rows, dot products row by
    row, and weights come from `math`, so a row gets the bits of a pass of
    its own. Nothing is checked: samples that are not finite give an L1
    that is not."""
    lams = np.array([lambda_at(s, t) for t in ts])
    spectrum = np.fft.rfft(samples)
    dh = np.fft.irfft(spectrum * g._half_sym, g.n)
    z = g.coords / lams[:, None]
    winp, squares = phi_prime(z), np.square(samples)
    i1, i2, e, l1 = _invariants(samples, dh, g.spacing)
    record = {"t": np.array(ts, dtype=float), "I1": i1, "I2": i2, "E": e, "L1": l1,
              "F": _local_energy(squares, dh, winp, g.spacing), "lam": lams}
    if hs is None:
        return record, None, None

    u, win, zwinp = samples, phi(z), z * winp
    w = np.array([w_at(s, t) for t in ts])
    w_prime = np.array([w_prime_at(s, t) for t in ts])
    w_rate = w * (np.array([lambda_prime_at(s, t) for t in ts]) / lams)
    ux, hux, disp = (np.fft.irfft(spectrum * sym, g.n) for sym in (
        g._deriv_sym, g._hilbert_deriv_sym, g._dispersion_sym))
    # the solver's own flux, -(u^2)_x after the 2/3 rule, so a4 is exactly
    # the flux term the trajectory felt
    flux = np.fft.irfft(_flux(u, g._flux_sym), g.n)
    # the commutator pairs as <D^{1/2}u, D^{1/2}(phi' u) - phi' D^{1/2}u>, with
    # plain products: the split d32 = d321 + d322 is then an exact adjointness
    # identity, not a band-limited approximation
    half_wu = np.fft.irfft(np.fft.rfft(winp * u) * g._half_sym, g.n)
    d322 = g.spacing * np.array([np.dot(a, b) for a, b in zip(dh, half_wu - winp * dh)])
    mass = {"a1": w_prime * _weighted_sum(g.spacing, win, u),
            "a2": w_rate * _weighted_sum(g.spacing, zwinp, u),
            "a3": w * _weighted_sum(g.spacing, win, disp),
            "a4": -w * _weighted_sum(g.spacing, win, flux)}
    d31 = _weighted_sum(g.spacing, win, hux * ux)
    d32 = _weighted_sum(g.spacing, winp, hux * u)
    energy = {"b1": -0.5 * (w_prime * _weighted_sum(g.spacing, win, squares)),
              "b2": 0.5 * (w_rate * _weighted_sum(g.spacing, zwinp, squares)),
              "b3": -w * (d31 + d32 / lams), "d31": d31, "d32": d32, "d322": d322,
              "b4": -(2.0 / 3.0) * (w / lams) * _weighted_sum(g.spacing, winp, u * u * u),
              "d321": _weighted_sum(g.spacing, winp, dh ** 2)}
    terms = [tuple({name: float(v[i]) for name, v in part.items()} for part in (mass, energy))
             for i in range(len(ts))]
    # rows from `first` on have a state behind them: one weighing of those
    # states at the rows' t - h, one of the rows at those states' t + h
    first = 1 if before is None else 0
    behind = samples[:-1] if before is None else np.vstack([before[2], samples[:-1]])
    behind_th = ([] if before is None else [before[:2]]) + list(zip(ts, hs))[:-1]
    pairs = [None] * first + list(zip(
        _weighed(s, g, [t - h for t, h in zip(ts, hs)][first:], behind),
        _weighed(s, g, [t + h for t, h in behind_th], samples[first:])))
    return record, terms, pairs


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
