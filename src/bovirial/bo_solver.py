"""Time integration of the Benjamin-Ono equation and its conservation laws.

The equation is u_t + (H u_x + u^2)_x = 0 with H the Hilbert transform of
`spectral_core`. The linear part is purely dispersive with symbol
-i xi |xi|; it is applied exactly through an integrating factor, so RK4
only ever sees the quadratic flux. The flux is dealiased by the 2/3 rule;
both symbols are the grid's own, and the budget diagnostics call the same
`_flux`, so closure checks see exactly the solver's nonlinearity.
`iter_trajectory` yields the recorded states one at a time and keeps none
of them, and `run_trajectory` collects them in a list; `_iter_stack`
integrates a stack of fields on one grid that share a step and a span.

Solitary waves: the profile A/(1 + B^2 (x - x0)^2) travels at speed s
when H Q' + Q^2 = s Q. Under the sign conventions above that identity is
satisfied exactly by (A, s) = (-2B, -B); the classical normalization
(A, s) = (4c, +c) belongs to the u u_x form of the equation and leaves an
O(1) residual here. `soliton` returns the certified record;
`profile_residual` measures any candidate honestly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .spectral_core import Field, Grid, _positive, frac_deriv, inner

__all__ = [
    "BlowupError",
    "SolverConfig",
    "TrajectoryState",
    "SolitonParams",
    "check_stability",
    "bo_rhs",
    "iter_trajectory",
    "run_trajectory",
    "invariants",
    "conserved_energy",
    "soliton",
    "soliton_profile",
    "profile_residual",
    "l1_growth_fit",
]


class BlowupError(RuntimeError):
    """Raised when the integration produces non-finite samples."""

    def __init__(self, t, step):
        super().__init__(f"non-finite field detected at t={t:g} (step {step})")
        self.t = t
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t0: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        _positive(self.dt, "dt")
        if not (np.isfinite(self.t0) and self.t0 >= 0):
            raise ValueError(f"t0 must be >= 0, got {self.t0!r}")
        if not (np.isfinite(self.t_end) and self.t_end > self.t0):
            raise ValueError(f"t_end must exceed t0, got {self.t_end!r}")
        if not (isinstance(self.record_every, int) and self.record_every >= 1):
            raise ValueError(f"record_every must be a positive integer, got {self.record_every!r}")
        # dt must tile [t0, t_end] exactly; a span that does not is a
        # configuration error, not something to silently round
        span = self.t_end - self.t0
        if self.n_steps < 1 or abs(self.n_steps * self.dt - span) > 1e-9 * max(1.0, span):
            raise ValueError(f"dt={self.dt!r} does not evenly tile [{self.t0!r}, {self.t_end!r}]")

    @property
    def n_steps(self) -> int:
        return round((self.t_end - self.t0) / self.dt)


def check_stability(cfg: SolverConfig, grid: Grid) -> None:
    """Require dt <= 1/max|xi|.

    The integrating factor removes the linear stiffness, but the RK stages
    still transport energy across the spectrum through the flux; this bound
    keeps the effective CFL of the quadratic term safely inside the RK4
    stability region for O(1) field amplitudes.
    """
    xi_max = np.pi * grid.n / grid.length
    if cfg.dt > 1.0 / xi_max:
        raise ValueError(
            f"dt={cfg.dt:g} exceeds the stability bound 1/max|xi| = {1.0 / xi_max:g} "
            f"for n={grid.n}, length={grid.length:g}"
        )


@dataclass(frozen=True)
class TrajectoryState:
    u: Field
    t: float


def _flux(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectrum of -d/dx(w^2): the square truncated by the 2/3 rule."""
    return np.fft.rfft(w * w) * grid._flux_sym


class _Plan:
    """The exact linear propagators exp(-D dt/2) and exp(-D dt) of one
    (grid, dt) choice, D the grid's dispersion symbol (i xi|xi| off Nyquist,
    0 at Nyquist, where both propagators are therefore 1).

    `flux` and `advance` work along the last axis, so a (B, n/2+1) stack
    of half spectra advances as B independent rows, each bit for bit as it
    would alone."""

    def __init__(self, grid: Grid, dt: float):
        self.grid = grid
        self.dt = dt
        self.e_half = np.exp(-grid._dispersion_sym * (0.5 * dt))
        self.e_full = self.e_half * self.e_half

    def flux(self, vh: np.ndarray) -> np.ndarray:
        return _flux(np.fft.irfft(vh, self.grid.n), self.grid)

    def advance(self, vh: np.ndarray) -> np.ndarray:
        """One integrating-factor RK4 step of the flux equation."""
        dt, e1, e2 = self.dt, self.e_half, self.e_full
        k1 = self.flux(vh)
        k2 = self.flux(e1 * (vh + (0.5 * dt) * k1))
        k3 = self.flux(e1 * vh + (0.5 * dt) * k2)
        e2vh = e2 * vh
        k4 = self.flux(e2vh + dt * (e1 * k3))
        return e2vh + (dt / 6.0) * (e2 * k1 + 2.0 * (e1 * (k2 + k3)) + k4)


def bo_rhs(u: Field) -> Field:
    """Right-hand side -d/dx(H u_x + u^2) as a real field."""
    g = u.grid
    out = -g._dispersion_sym * np.fft.rfft(u.samples)
    return Field(g, np.fft.irfft(out + _flux(u.samples, g), g.n))


def iter_trajectory(u0: Field, cfg: SolverConfig) -> Iterator[TrajectoryState]:
    """Integrate from t0 to t_end, yielding each recorded state as it is made.

    Records are kept at step 0 (the state is `u0` itself), every
    `record_every` steps, and at the final step. Absolute time is
    recomputed from the step counter (t = t0 + step*dt) rather than
    accumulated, so it never drifts. The generator holds no state it has
    yielded, so a caller that keeps only a few bounds the memory of any
    length of run. An unstable dt raises at once, non-finite samples BlowupError.
    """
    g = u0.grid
    check_stability(cfg, g)
    records = _iter_stack([u0], cfg)
    yield TrajectoryState(u0, cfg.t0)
    del u0
    for ((t, vh),) in records:
        # Field copies the transform's output: kept as is, it made glibc trim and regrow
        # the heap top every later step at n = 8192 (986k vs 45k page faults, soliton_decay)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = np.fft.irfft(vh, g.n)
        try:
            st = TrajectoryState(Field(g, samples), t)
        except ValueError:
            raise BlowupError(t, round((t - cfg.t0) / cfg.dt)) from None
        del vh, samples  # hold no view of the spectrum while the next is made
        yield st
        del st


def _iter_stack(fields: list[Field], cfg: SolverConfig) -> Iterator[list]:
    """`iter_trajectory`'s loop after t0 for a stack of fields on one grid:
    their half spectra advance as one (B, n/2+1) array, each row bit for
    bit as it would alone, and each record is a list of B entries, one per
    member: (t, its half spectrum, a row no later step writes to), with no
    transform. At the record where a member's spectrum stops being finite
    its entry is that spectrum; the member then leaves the stack and its
    later entries are None. A lone field keeps a 1-D spectrum (a stack of
    one steps 3-5% slower). The caller has checked dt (check_stability)."""
    g = fields[0].grid
    if any((f.grid.n, f.grid.length) != (g.n, g.length) for f in fields):
        raise ValueError("fields live on different grids")
    plan = _Plan(g, cfg.dt)
    size = len(fields)
    vh = np.fft.rfft(fields[0].samples if size == 1 else np.array([f.samples for f in fields]))
    del fields
    members = list(range(size))  # the member each row of vh holds
    done = 0
    for k in itertools.chain(range(cfg.record_every, cfg.n_steps, cfg.record_every),
                             (cfg.n_steps,)):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(k - done):
                vh = plan.advance(vh)
        done = k
        t = cfg.t0 + k * cfg.dt
        rows = vh.reshape(len(members), -1)  # a view, also of a 1-D spectrum
        states = [None] * size
        for row, m in enumerate(members):
            states[m] = (t, rows[row])
        finite = np.isfinite(rows).all(axis=-1).tolist()
        if not all(finite):
            vh, members = rows[finite], [m for m, ok in zip(members, finite) if ok]
        del rows
        yield states
        del states
        if not members:
            return


def run_trajectory(u0: Field, cfg: SolverConfig) -> list[TrajectoryState]:
    """Every state `iter_trajectory` records, as a list."""
    return list(iter_trajectory(u0, cfg))


def invariants(u: Field) -> tuple[float, float, float, float]:
    """(I1, I2, E, L1): mass, squared L2 norm, energy, L1 norm.

    E here is ||D^{1/2}u||^2 - (1/3) int u^3, the form conventional for
    the u u_x normalization of the equation. Under the (u^2)_x
    normalization integrated by this solver the conserved cubic
    coefficient is +2/3 (see conserved_energy); this E is still constant
    on traveling waves, and both are tracked by the diagnostics.
    """
    values = _invariants(u.samples[None], frac_deriv(u, 0.5).samples[None], u.grid.spacing)
    return tuple(float(v[0]) for v in values)


def _invariants(s: np.ndarray, dh: np.ndarray, spacing: float) -> tuple[np.ndarray, ...]:
    """invariants of each row of a (k, n) stack of samples s, given the rows dh
    of D^{1/2}u, as four length-k arrays. Sums run along each row and dot
    products row by row, so a row gets the same bits in a stack of any size."""
    i1 = spacing * s.sum(axis=-1)
    i2 = spacing * np.array([np.dot(row, row) for row in s])
    cubic = spacing * (s * s * s).sum(axis=-1)
    e = spacing * np.array([np.dot(row, row) for row in dh]) - cubic / 3.0
    l1 = spacing * np.abs(s).sum(axis=-1)
    return i1, i2, e, l1


def conserved_energy(u: Field) -> float:
    """The Hamiltonian ||D^{1/2}u||^2 + (2/3) int u^3 of the flux form
    u_t = -d/dx(H u_x + u^2); drift-free on every trajectory, not just
    traveling waves."""
    g = u.grid
    dh = frac_deriv(u, 0.5)
    s = u.samples
    cubic = float(g.spacing * np.sum(s * s * s))
    return inner(dh, dh) + (2.0 / 3.0) * cubic


@dataclass(frozen=True)
class SolitonParams:
    amplitude: float
    scale: float
    center: float
    speed: float

    def __post_init__(self):
        _positive(self.scale, "scale")


def soliton_profile(p: SolitonParams, grid: Grid) -> Field:
    z = p.scale * (grid.coords - p.center)
    return Field(grid, p.amplitude / (1.0 + z * z))


def soliton(c: float, x0: float, grid: Grid) -> SolitonParams:
    """The certified parameter record of the solitary wave of scale c
    centered at x0: (amplitude, speed) = (-2c, -c), the member of the scale
    family that satisfies the traveling-wave equation integrated here
    (profile_residual ~1e-16). The textbook pairing (4c, +c) leaves an O(1)
    residual under these sign conventions. A width 1/c outside [L/n, L/20]
    is refused: the box must hold the profile and a cell resolve it.
    """
    if 1.0 / _positive(c, "c") > grid.length / 20.0:
        raise ValueError(f"profile too wide for the grid: width 1/c = {1.0 / c:g} exceeds "
                         f"length/20 = {grid.length / 20.0:g}")
    if 1.0 / c < grid.spacing:
        raise ValueError(f"profile too narrow for the grid: width 1/c = {1.0 / c:g} is below "
                         f"length/n = {grid.spacing:g}")
    return SolitonParams(amplitude=-2.0 * c, scale=c, center=x0, speed=-c)


def _hilbert_deriv_closed_form(p: SolitonParams, grid: Grid) -> np.ndarray:
    # H Q' for Q = A/(1+B^2 z^2) is A*B*(1-B^2 z^2)/(1+B^2 z^2)^2: the
    # transform commutes with translation and positive dilation, and the
    # base profile's derivative has this exact rational image.
    z = p.scale * (grid.coords - p.center)
    return p.amplitude * p.scale * (1.0 - z * z) / (1.0 + z * z) ** 2


def _relative_residual(q: Field, hq: np.ndarray, speed: float) -> float:
    """||H Q' + Q^2 - s Q||_2 / ||Q||_2, given the samples hq of H Q'."""
    res = hq + q.samples ** 2 - speed * q.samples
    qn = math.sqrt(inner(q, q))
    if qn == 0.0:
        return 0.0
    return math.sqrt(float(q.grid.spacing * np.sum(res * res))) / qn


def profile_residual(p: SolitonParams, grid: Grid) -> float:
    """Relative L2 residual of the integrated traveling-wave equation
    H Q' + Q^2 - s Q = 0.

    H Q' is evaluated from the exact rational image of the profile
    derivative, so the result measures the parameter pairing itself and
    not domain-truncation error. The discrete transform in its place adds a
    periodization floor (~1e-4 at n=4096, L=400).
    """
    q = soliton_profile(p, grid)
    return _relative_residual(q, _hilbert_deriv_closed_form(p, grid), p.speed)


def l1_growth_fit(records) -> float:
    """Least-squares slope of log L1 against log <t>, <t> = sqrt(1+t^2).

    Accepts any sequence of objects with `t` and `L1` attributes. Needs at
    least 10 records spanning a decade in t, all with positive L1.
    """
    ts = np.array([r.t for r in records], dtype=float)
    l1s = np.array([r.L1 for r in records], dtype=float)
    if len(ts) < 10:
        raise ValueError(f"need at least 10 records for a growth fit, got {len(ts)}")
    if np.any(ts <= 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("record times must be positive and strictly increasing")
    if ts[-1] < 10.0 * ts[0]:
        raise ValueError(
            f"records must span at least one decade in t, got [{ts[0]:g}, {ts[-1]:g}]"
        )
    if np.any(l1s <= 0):
        raise ValueError("L1 values must be positive for a log-log fit")
    bracket = np.sqrt(1.0 + ts * ts)
    slope = np.polyfit(np.log(bracket), np.log(l1s), 1)[0]
    return float(slope)
