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
one rfft and one irfft, with f's powers and norms), once per scale (phi,
phi' and ||(phi')^'||_1), once per pair (COMM's one rfft, summed by
Parseval). run_check is the same kernels on one entry and one scale. A lam
outside [L/n, L/2], a zero or subnormal (1/lam) int f^2 phi', or a row not
finite (a subnormal lhs or rhs_unit counts as not finite) raises ValueError.

The inequalities assert existence of constants, never their values, so the
strongest desk-scale statement is regression: calibrate() takes the sup
ratio of a table over corpus x lambda grid, tests freeze 10x that value,
and any future violation is a real behavior change. KM1 is one-sided
(only positive lhs is constrained), so its ratio is recorded signed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral_core import (
    Field,
    Grid,
    _band_limited,
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
_TINY = np.finfo(float).tiny  # the smallest normal float: below it, digits are lost


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
    """The per-entry stage: f, its legs f_x and H f_x (one rfft of f, and
    one irfft for the legs and D^{1/2}f), and what every scale reuses: f^2,
    |f|^3, ||f||, ||D^{1/2}f|| and the (2, n) pair [f, D^{1/2}f]."""

    f: Field
    fx: np.ndarray
    hfx: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    norm: float
    half_norm: float
    pair: np.ndarray


def _entry(f: Field) -> _Entry:
    g, s = f.grid, f.samples
    syms = np.stack((g._deriv_sym, g._hilbert_deriv_sym, g._half_sym))
    fx, hfx, half = np.fft.irfft(np.fft.rfft(s) * syms, g.n)
    a = np.abs(s)
    half_norm = float(np.sqrt(g.spacing * np.dot(half, half)))  # l2_norm's formula
    return _Entry(f, fx, hfx, s * s, a * a * a, l2_norm(f), half_norm, np.stack((s, half)))


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
    scales. No check is taken where it is zero (only on a zero field: the
    weight is positive on every sample) or subnormal (f^2 lost its digits)."""
    quad = float(e.f.grid.spacing * np.dot(w.wp.samples, e.f2)) / w.lam
    if quad < _TINY:
        kind = "zero" if quad == 0.0 else "subnormal"
        raise ValueError(f"{kind} input field (int f^2 phi'/lam = {quad!r} at lam = {w.lam:g})")
    return quad


def _km1(e: _Entry, w: _Window, quad: float) -> tuple[float, float]:
    """Signed: the bound is one-sided and constrains positive lhs only."""
    return float(e.f.grid.spacing * np.sum(w.wp.samples * e.hfx * e.f.samples)), quad


def _km2(e: _Entry, w: _Window, quad: float) -> tuple[float, float]:
    return abs(float(e.f.grid.spacing * np.sum(w.phi * e.hfx * e.fx))), quad


def _comm(e: _Entry, w: _Window, quad: float) -> tuple[float, float]:
    """The commutator c = D^{1/2}(D^{1/2}(phi' f) - phi' D^{1/2}f), both
    products truncated by the 2/3 rule, has the spectrum G = |xi| (phi' f)^ -
    |xi|^{1/2} (phi' D^{1/2}f)^ on 1 <= k <= n/3 (one rfft of the pair) and
    0 elsewhere: at k = 0, and at the Nyquist mode, which the rule cuts. So
    Parseval gives ||c||^2 = spacing (2/n) sum |G_k|^2 exactly."""
    g = e.f.grid
    kept = slice(1, g.n // 3 + 1)
    a, b = np.fft.rfft(w.wp.samples * e.pair)[:, kept]
    c = (g._xi_r[kept] * a - g._half_sym[kept] * b).view(np.float64)
    return float(np.sqrt(2.0 * g.spacing / g.n * np.dot(c, c))), w.wp_l1 * e.norm


def _key(e: _Entry, w: _Window, quad: float) -> tuple[float, float]:
    """The norm factor makes the ratio exactly scale-invariant."""
    lhs = float(e.f.grid.spacing * np.dot(w.wp.samples, e.f3))
    return lhs, (e.norm + e.half_norm) * quad * w.lam  # undo the 1/lam


_KERNELS = {"KM1": _km1, "KM2": _km2, "COMM": _comm, "KEY": _key}  # (lhs, rhs_unit), TAGS order


def _row(tag: str, e: _Entry, w: _Window, quad: float, input_id: str) -> LemmaReport:
    """One kernel's row: no bound is read from inf, nan or a subnormal lhs or rhs_unit."""
    lhs, rhs_unit = _KERNELS[tag](e, w, quad)
    ratio = lhs / rhs_unit if rhs_unit else math.nan
    if (not all(map(math.isfinite, (lhs, rhs_unit, ratio)))
            or any(0.0 < abs(v) < _TINY for v in (lhs, rhs_unit))):
        raise ValueError(f"{tag} on entry {input_id!r} at lam = {w.lam:g} is not finite "
                         f"(lhs = {lhs!r}, rhs_unit = {rhs_unit!r}, ratio = {ratio!r})")
    return LemmaReport(tag, w.lam, lhs, rhs_unit, ratio, input_id)


def run_check(tag: str, f: Field, lam: float, input_id: str = "") -> LemmaReport:
    """One check by tag on one field at one window scale: lemma_table's row."""
    if tag not in _KERNELS:
        raise ValueError(f"unknown check tag {tag!r}")
    e, w = _entry(f), _window(f.grid, lam)
    return _row(tag, e, w, _quad(e, w), input_id)


def lemma_table(corpus: Corpus, lams) -> tuple[LemmaReport, ...]:
    """Every check on every corpus entry at every window scale, ordered by
    tag, then entry, then lambda: the rows check-lemmas writes, equal to
    run_check's. Each scale's window is built once, before the entry loop
    (1 rfft), and each entry's stage once (1 rfft, and 1 irfft of three
    rows); a pair then costs only COMM's rfft of the (2, n) pair."""
    windows = [_window(corpus.entries[0].grid, lam) for lam in lams] if corpus.entries else []
    rows: dict[str, list[LemmaReport]] = {tag: [] for tag in TAGS}
    for label, f in zip(corpus.labels, corpus.entries):
        e = _entry(f)
        for w in windows:
            quad = _quad(e, w)
            for tag in TAGS:
                rows[tag].append(_row(tag, e, w, quad, label))
    return tuple(rep for tag in TAGS for rep in rows[tag])


def calibrate(reports, tag: str) -> float:
    """Supremum ratio of one tag's rows in a table the caller already holds,
    such as lemma_table(corpus, lams). Tests freeze 10x this value as the
    regression constant."""
    ratios = [rep.ratio for rep in reports if rep.tag == tag]
    if not ratios:
        raise ValueError(f"no {tag} rows to calibrate")
    return float(max(ratios))
