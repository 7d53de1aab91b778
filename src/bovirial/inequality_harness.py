"""Empirical verification of the four weighted inequalities behind the
decay argument, over a frozen corpus of test functions.

Four checks, each reporting lhs, a constant-stripped rhs unit, and their
ratio:

  KM1   int (H f_x) f phi'(x/lam)      vs  (1/lam) int f^2 phi'(x/lam)
  KM2  |int (H f_x) f_x phi(x/lam)|    vs  (1/lam) int f^2 phi'(x/lam)
  COMM ||D^{1/2}[D^{1/2}; phi_w] u||_2 vs  ||(phi_w')^||_1 ||u||_2
  KEY   int |u|^3 phi'(x/lam)          vs  (||u||_2 + ||D^{1/2}u||_2) int u^2 phi'

The inequalities assert existence of constants, never their values, so the
strongest desk-scale statement is regression: calibrate() takes the sup
ratio over corpus x lambda grid, tests freeze 10x that value, and any
future violation is a real behavior change. KM1 is one-sided (only
positive lhs is constrained), so its ratio is recorded signed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    Field,
    Grid,
    _band_limited,
    _positive,
    _same_grid,
    dealias as spectral_dealias,
    deriv,
    fourier_l1_deriv,
    frac_deriv,
    hilbert,
    l2_norm,
)
from .virial_diagnostics import phi, phi_prime, window_prime

__all__ = [
    "LemmaReport",
    "Corpus",
    "build_corpus",
    "commutator_half",
    "check_km1",
    "check_km2",
    "check_comm",
    "check_key",
    "run_check",
    "calibrate",
]

DEFAULT_SEED = 20260819
DEFAULT_LAMBDAS = (1.0, 5.0, 20.0, 100.0)

TAGS = ("KM1", "KM2", "COMM", "KEY")


@dataclass(frozen=True)
class LemmaReport:
    tag: str
    lam: float  # serialized under the name "lambda"
    lhs: float
    rhs_unit: float
    ratio: float
    input_id: str = ""


@dataclass(frozen=True)
class Corpus:
    entries: tuple[Field, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.labels):
            raise ValueError("corpus entries and labels must pair up")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("corpus labels must be unique")


def build_corpus(grid: Grid, seed: int = DEFAULT_SEED) -> Corpus:
    """32 deterministic test functions: 20 random band-limited fields
    (bandwidth <= n/8, mean-subtracted, unit L2 norm), 4 Gaussians, 4
    solitary-wave profiles, 2 dilates and 2 translates."""
    rng = np.random.default_rng(seed)
    x = grid.coords
    entries: list[np.ndarray] = []
    labels: list[str] = []

    kmax = grid.n // 8
    for i in range(20):
        f = _band_limited(rng, grid, kmax)
        f = f - f.mean()
        entries.append(f / np.sqrt(grid.spacing * np.sum(f * f)))
        labels.append(f"rand{i:02d}")

    for j, (amp, width, center) in enumerate(
        [(1.0, 2.0, 0.0), (0.5, 5.0, 20.0), (-0.8, 1.0, -30.0), (0.3, 10.0, 50.0)]
    ):
        entries.append(amp * np.exp(-(((x - center) / width) ** 2)))
        labels.append(f"gauss{j}")

    # three certified family members (A, B) = (-2B, B) plus the classical
    # normalization (4, 1); all are admissible H^1 inputs either way
    for label, (amp, scale, center) in [
        ("soliton_B1", (-2.0, 1.0, 0.0)),
        ("soliton_B05", (-1.0, 0.5, 10.0)),
        ("soliton_B2", (-4.0, 2.0, -15.0)),
        ("classical_c1", (4.0, 1.0, 0.0)),
    ]:
        z = scale * (x - center)
        entries.append(amp / (1.0 + z * z))
        labels.append(label)

    entries.append(np.interp(x / 2.0, x, entries[0], period=grid.length))
    labels.append("dilate_rand00")
    entries.append(np.interp(x / 2.0, x, entries[20], period=grid.length))
    labels.append("dilate_gauss0")
    entries.append(np.roll(entries[1], grid.n // 8))
    labels.append("shift_rand01")
    entries.append(np.roll(entries[24], grid.n // 8))
    labels.append("shift_soliton_B1")

    return Corpus(tuple(Field(grid, e) for e in entries), tuple(labels))


def commutator_half(phi_w: Field, u: Field) -> Field:
    """D^{1/2}( D^{1/2}(phi_w u) - phi_w D^{1/2}u ), both products truncated
    by the 2/3 rule before transforming."""
    g = _same_grid(phi_w, u)

    def product(a: np.ndarray, b: np.ndarray) -> Field:
        return spectral_dealias(Field(g, a * b))

    du = frac_deriv(u, 0.5)
    bracket = frac_deriv(product(phi_w.samples, u.samples), 0.5).samples \
        - product(phi_w.samples, du.samples).samples
    return frac_deriv(Field(g, bracket), 0.5)


def _weight_integrals(f: Field, lam: float) -> tuple[np.ndarray, float]:
    g = f.grid
    wp = phi_prime(g.coords / _positive(lam, "lam"))
    rhs_unit = float(g.spacing * np.sum(wp * f.samples ** 2)) / lam
    if rhs_unit == 0.0:
        raise ValueError("zero input field")
    return wp, rhs_unit


def check_km1(f: Field, lam: float, input_id: str = "") -> LemmaReport:
    """Signed ratio of int (H f_x) f phi'(x/lam) against (1/lam) int f^2 phi'.
    One-sided: the bound constrains positive lhs only."""
    g = f.grid
    wp, rhs_unit = _weight_integrals(f, lam)
    hfx = hilbert(deriv(f))
    lhs = float(g.spacing * np.sum(wp * hfx.samples * f.samples))
    return LemmaReport("KM1", float(lam), lhs, rhs_unit, lhs / rhs_unit, input_id)


def check_km2(f: Field, lam: float, input_id: str = "") -> LemmaReport:
    """|int (H f_x) f_x phi(x/lam)| against (1/lam) int f^2 phi'(x/lam)."""
    g = f.grid
    _, rhs_unit = _weight_integrals(f, lam)
    win = phi(g.coords / lam)
    fx = deriv(f)
    hfx = hilbert(fx)
    lhs = abs(float(g.spacing * np.sum(win * hfx.samples * fx.samples)))
    return LemmaReport("KM2", float(lam), lhs, rhs_unit, lhs / rhs_unit, input_id)


def check_comm(phi_w: Field, u: Field, lam: float = float("nan"),
               input_id: str = "") -> LemmaReport:
    """||D^{1/2}[D^{1/2}; phi_w]u||_2 against ||(phi_w')^||_1 ||u||_2.

    `lam` is only bookkeeping for the report row (the weight is passed
    sampled). A constant weight commutes exactly, leaving rhs_unit = 0 and
    lhs at rounding level; that degenerate case reports ratio 0.
    """
    if not np.any(phi_w.samples):
        raise ValueError("zero weight")
    lhs = l2_norm(commutator_half(phi_w, u))
    rhs_unit = fourier_l1_deriv(phi_w) * l2_norm(u)
    ratio = lhs / rhs_unit if rhs_unit > 0.0 else 0.0
    return LemmaReport("COMM", float(lam), lhs, rhs_unit, ratio, input_id)


def check_key(u: Field, lam: float, input_id: str = "") -> LemmaReport:
    """int |u|^3 phi'(x/lam) against (||u||_2 + ||D^{1/2}u||_2) int u^2 phi'.

    The norm factor mirrors the inequality's constant, which depends on the
    data's L2 and H^{1/2} sizes; with it the ratio is exactly
    scale-invariant."""
    g = u.grid
    wp, rhs_quad = _weight_integrals(u, lam)
    rhs_unit = (l2_norm(u) + l2_norm(frac_deriv(u, 0.5))) * rhs_quad * lam  # undo the 1/lam
    lhs = float(g.spacing * np.sum(wp * np.abs(u.samples) ** 3))
    return LemmaReport("KEY", float(lam), lhs, rhs_unit, lhs / rhs_unit, input_id)


def run_check(tag: str, f: Field, lam: float, input_id: str = "") -> LemmaReport:
    """Dispatch one check by tag; COMM gets the sampled phi'(x/lam) weight."""
    if tag == "KM1":
        return check_km1(f, lam, input_id)
    if tag == "KM2":
        return check_km2(f, lam, input_id)
    if tag == "COMM":
        return check_comm(window_prime(f.grid, lam), f, lam=lam, input_id=input_id)
    if tag == "KEY":
        return check_key(f, lam, input_id)
    raise ValueError(f"unknown check tag {tag!r}")


def calibrate(corpus: Corpus, tag: str, lams) -> float:
    """Supremum ratio over corpus x lams for one tag. Tests freeze 10x this
    value as the regression constant. Every entry goes through run_check,
    so its rules hold here as in check-lemmas: a zero field raises
    ValueError under KM1, KM2 and KEY."""
    lams = [float(l) for l in lams]
    if not lams:
        raise ValueError("need at least one lambda value")
    if not corpus.entries:
        raise ValueError("empty corpus")
    return float(max(run_check(tag, f, lam, input_id=label).ratio
                     for label, f in zip(corpus.labels, corpus.entries) for lam in lams))
