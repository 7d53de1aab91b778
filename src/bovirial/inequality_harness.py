"""Empirical verification of the four weighted inequalities behind the
decay argument, over a frozen corpus of test functions.

Four checks, each reporting lhs, a constant-stripped rhs unit, and their
ratio:

  KM1   int (H f_x) f phi'(x/lam)      vs  (1/lam) int f^2 phi'(x/lam)
  KM2  |int (H f_x) f_x phi(x/lam)|    vs  (1/lam) int f^2 phi'(x/lam)
  COMM ||D^{1/2}[D^{1/2}; phi_w] u||_2 vs  ||(phi_w')^||_1 ||u||_2
  KEY   int |u|^3 phi'(x/lam)          vs  (||u||_2 + ||D^{1/2}u||_2) int u^2 phi'

Every formula is written once, as a private kernel, and lemma_table runs
the kernels in three stages: once per entry (f_x, H f_x and D^{1/2}f from
one rfft), once per window scale (phi, phi' and ||(phi')^'||_1), and once
per pair (only COMM's commutator needs both). run_check is the same
kernels on one entry and one scale. _window refuses lam outside [L/n, L/2],
and a zero input field raises ValueError under every check.

The inequalities assert existence of constants, never their values, so the
strongest desk-scale statement is regression: calibrate() takes the sup
ratio of a table over corpus x lambda grid, tests freeze 10x that value,
and any future violation is a real behavior change. KM1 is one-sided
(only positive lhs is constrained), so its ratio is recorded signed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    Field,
    Grid,
    _band_limited,
    _inverse,
    _positive,
    fourier_l1_deriv,
    l2_norm,
)
from .virial_diagnostics import phi, window_prime

# unused here, but perfbench's tracer wraps them as this module's attributes
from .spectral_core import dealias as spectral_dealias, deriv, frac_deriv, hilbert  # noqa: F401
from .virial_diagnostics import phi_prime  # noqa: F401

__all__ = [
    "LemmaReport",
    "Corpus",
    "build_corpus",
    "run_check",
    "lemma_table",
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
        if len({(f.grid.n, f.grid.length) for f in self.entries}) > 1:
            raise ValueError("corpus entries must share one grid (n, L)")


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


@dataclass(frozen=True)
class _Entry:
    """The per-entry stage: f and its legs f_x, H f_x and D^{1/2}f, all three
    from one rfft of f."""

    f: Field
    fx: Field
    hfx: Field
    half: Field


def _entry(f: Field) -> _Entry:
    g = f.grid
    spectrum = np.fft.rfft(f.samples)
    return _Entry(f, *(_inverse(g, spectrum, sym)
                       for sym in (g._deriv_sym, g._hilbert_deriv_sym, g._half_sym)))


@dataclass(frozen=True)
class _Window:
    """The per-lambda stage: phi(x/lam), the weight phi'(x/lam) and COMM's
    ||(phi')^'||_1 (one rfft)."""

    lam: float
    phi: np.ndarray
    wp: Field
    wp_l1: float


def _window(grid: Grid, lam: float) -> _Window:
    if not grid.spacing <= _positive(lam, "lam") <= grid.length / 2.0:
        raise ValueError(f"window scale lam = {lam:g} is outside [L/n, L/2] = "
                         f"[{grid.spacing:g}, {grid.length / 2.0:g}] for this grid")
    wp = window_prime(grid, lam)
    return _Window(float(lam), phi(grid.coords / lam), wp, fourier_l1_deriv(wp))


def _quad(e: _Entry, w: _Window) -> float:
    """(1/lam) int f^2 phi'(x/lam): the right side KM1 and KM2 share and KEY
    scales. _window's rule keeps the weight positive on every sample, so it
    is zero only for a zero input field, on which no check can be taken."""
    quad = float(e.f.grid.spacing * np.sum(w.wp.samples * e.f.samples ** 2)) / w.lam
    if quad == 0.0:
        raise ValueError(f"zero input field (int f^2 phi'(x/lam) = 0 at lam = {w.lam:g})")
    return quad


def _commutator(phi_w: Field, u: Field, du: Field) -> Field:
    """D^{1/2}(D^{1/2}(phi_w u) - phi_w du) for du = D^{1/2}u, both products
    truncated by the 2/3 rule, as one composite: two rfft and one irfft."""
    g = u.grid
    a = np.fft.rfft(phi_w.samples * u.samples)
    b = np.fft.rfft(phi_w.samples * du.samples)
    half, keep = g._half_sym, g._dealias_sym
    return Field(g, np.fft.irfft(half * (half * keep * a - keep * b), g.n))


def _km1(e: _Entry, w: _Window, quad: float, input_id: str) -> LemmaReport:
    """Signed: the bound is one-sided and constrains positive lhs only."""
    lhs = float(e.f.grid.spacing * np.sum(w.wp.samples * e.hfx.samples * e.f.samples))
    return LemmaReport("KM1", w.lam, lhs, quad, lhs / quad, input_id)


def _km2(e: _Entry, w: _Window, quad: float, input_id: str) -> LemmaReport:
    lhs = abs(float(e.f.grid.spacing * np.sum(w.phi * e.hfx.samples * e.fx.samples)))
    return LemmaReport("KM2", w.lam, lhs, quad, lhs / quad, input_id)


def _comm(e: _Entry, w: _Window, quad: float, input_id: str) -> LemmaReport:
    lhs = l2_norm(_commutator(w.wp, e.f, e.half))
    rhs_unit = w.wp_l1 * l2_norm(e.f)
    return LemmaReport("COMM", w.lam, lhs, rhs_unit, lhs / rhs_unit, input_id)


def _key(e: _Entry, w: _Window, quad: float, input_id: str) -> LemmaReport:
    """The norm factor makes the ratio exactly scale-invariant."""
    rhs_unit = (l2_norm(e.f) + l2_norm(e.half)) * quad * w.lam  # undo the 1/lam
    a = np.abs(e.f.samples)
    lhs = float(e.f.grid.spacing * np.sum(w.wp.samples * (a * a * a)))
    return LemmaReport("KEY", w.lam, lhs, rhs_unit, lhs / rhs_unit, input_id)


_KERNELS = {"KM1": _km1, "KM2": _km2, "COMM": _comm, "KEY": _key}  # in TAGS order


def run_check(tag: str, f: Field, lam: float, input_id: str = "") -> LemmaReport:
    """One check by tag on one field at one window scale: lemma_table's row."""
    if tag not in _KERNELS:
        raise ValueError(f"unknown check tag {tag!r}")
    e, w = _entry(f), _window(f.grid, lam)
    return _KERNELS[tag](e, w, _quad(e, w), input_id)


def lemma_table(corpus: Corpus, lams) -> tuple[LemmaReport, ...]:
    """Every check on every corpus entry at every window scale, ordered by
    tag, then entry, then lambda: the rows check-lemmas writes, equal to
    run_check's. Each scale's window is built once, before the entry loop
    (1 rfft), and each entry's legs once (1 rfft, 3 irfft); a pair then
    costs only COMM's commutator (2 rfft, 1 irfft)."""
    windows = [_window(corpus.entries[0].grid, lam) for lam in lams] if corpus.entries else []
    rows: dict[str, list[LemmaReport]] = {tag: [] for tag in TAGS}
    for label, f in zip(corpus.labels, corpus.entries):
        e = _entry(f)
        for w in windows:
            quad = _quad(e, w)
            for tag, kernel in _KERNELS.items():
                rows[tag].append(kernel(e, w, quad, label))
    return tuple(rep for tag in TAGS for rep in rows[tag])


def calibrate(reports, tag: str) -> float:
    """Supremum ratio of one tag's rows in a table the caller already holds,
    such as lemma_table(corpus, lams). Tests freeze 10x this value as the
    regression constant."""
    ratios = [rep.ratio for rep in reports if rep.tag == tag]
    if not ratios:
        raise ValueError(f"no {tag} rows to calibrate")
    return float(max(ratios))
