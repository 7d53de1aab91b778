"""Acceptance suite: one test per promised behavior, at the stated tolerance.

Each criterion runs at the production parameters it names. Two checks
in this file fail by design and are kept failing rather than loosened;
their assertion messages carry the measured values and the cause. The
bump image is compared with the line form x/(1+x^2), which the periodic
operator on the L=400 box cannot reach; the lambda-uniformity of KM1
contradicts a calibration test that pins the current KM1. Everything
else must stay green.
"""

import json
import math
import os

import numpy as np
import pytest

import bovirial as bv
from bovirial.experiment_cli import CSV_COLUMNS, main, parse_records
from bovirial.inequality_harness import (
    DEFAULT_LAMBDAS,
    TAGS,
    build_corpus,
    calibrate,
    lemma_table,
    run_check,
)
from bovirial.spectral_core import Field
from bovirial.virial_diagnostics import lambda_at, phi_prime

from conftest import (
    CORPUS_LAMBDAS,
    CORPUS_SEED,
    FROZEN_CONSTANTS,
    d2x_hilbert_phi,
    phi_pp,
    weighted_dispersive_flux,
)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def soliton_run():
    """Certified traveling wave on (4096, 400): t in [0, 10], dt = 1e-3,
    snapshots at steps 0, 5000, 10000. Shared by criteria 3 and 4."""
    g = bv.make_grid(4096, 400.0)
    p = bv.soliton(1.0, 5.0, g)
    u0 = bv.soliton_profile(p, g)
    cfg = bv.SolverConfig(dt=1e-3, t0=0.0, t_end=10.0, record_every=5000)
    return g, p, bv.run_trajectory(u0, cfg)


@pytest.fixture(scope="module")
def budget_run():
    """Gentle wide Gaussian from t = 30 recorded at spacing 0.005, so both
    h = 0.01 and h = 0.005 budgets difference stored records."""
    g = bv.make_grid(1024, 400.0)
    x = g.coords
    u0 = Field(g, 0.3 * np.exp(-((x / 10.0) ** 2)))
    cfg = bv.SolverConfig(dt=1e-3, t0=30.0, t_end=30.04, record_every=5)
    states = bv.run_trajectory(u0, cfg)
    return states, bv.WeightSchedule(a=0.25)


@pytest.fixture(scope="module")
def decay_run():
    """Criterion 7 production run: certified soliton, window growing as
    t/log t, t in [10, 200] on (8192, 800), recorded once per unit time."""
    g = bv.make_grid(8192, 800.0)
    p = bv.soliton(1.0, -10.0, g)
    u0 = bv.soliton_profile(p, g)
    cfg = bv.SolverConfig(dt=0.02, t0=10.0, t_end=200.0, record_every=50)
    states = bv.run_trajectory(u0, cfg)
    sched = bv.WeightSchedule(a=0.0, c_scale=1.0)
    return [bv.diag_record(s.u, s.t, sched) for s in states]


@pytest.fixture(scope="module")
def frozen_corpus():
    return build_corpus(bv.make_grid(1024, 400.0), seed=CORPUS_SEED)


# ------------------------------------------------------------ criterion 1

def test_criterion_1_operator_identities():
    g = bv.make_grid(1024, 400.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        co = np.zeros(g.n // 2 + 1, dtype=complex)
        kmax = g.n // 4
        co[1 : kmax + 1] = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
        f = Field(g, np.fft.irfft(co, g.n))
        scale = bv.l2_norm(f)

        hh = bv.hilbert(bv.hilbert(f))
        assert bv.l2_norm(Field(g, hh.samples + f.samples)) / scale <= 1e-10

        half_twice = bv.frac_deriv(bv.frac_deriv(f, 0.5), 0.5)
        full = bv.hilbert(bv.deriv(f))
        diff = bv.l2_norm(Field(g, half_twice.samples - full.samples))
        assert diff / bv.l2_norm(full) <= 1e-10

        spec = np.fft.rfft(f.samples)
        rhs = (g.spacing / g.n) * (
            abs(spec[0]) ** 2
            + 2.0 * float(np.sum(np.abs(spec[1:-1]) ** 2))
            + abs(spec[-1]) ** 2
        )
        assert abs(bv.inner(f, f) - rhs) / rhs <= 1e-10


# ------------------------------------------------------------ criterion 2

def _image_errors(n, length):
    g = bv.make_grid(n, length)
    x = g.coords
    core = np.abs(x) <= length / 4.0
    bump_image = bv.hilbert(Field(g, phi_prime(x))).samples
    slope_image = bv.hilbert(Field(g, phi_pp(x))).samples
    step_image = d2x_hilbert_phi(1.0, g).samples
    want_bump = x / (1.0 + x * x)
    want_curv = (1.0 - x * x) / (1.0 + x * x) ** 2
    return {
        "bump": float(np.max(np.abs(bump_image - want_bump)[core])),
        "slope": float(np.max(np.abs(slope_image - want_curv)[core])),
        "step": float(np.max(np.abs(step_image - want_curv)[core])),
    }


def test_criterion_2_transform_of_window_slope():
    err = _image_errors(4096, 400.0)["slope"]
    assert err <= 1e-3, f"sup error {err:.3e} on the central half"


def test_criterion_2_transform_of_window_bump():
    err = _image_errors(4096, 400.0)["bump"]
    assert err <= 1e-3, (
        f"sup error {err:.3e} exceeds 1e-3 on the central half of the "
        f"L=400 grid: the image x/(1+x^2) decays only like 1/x, so its "
        f"periodization carries an offset of about (4-pi)/L = 2.15e-3 "
        f"that no n refinement removes; L=800 measures ~1.07e-3 and "
        f"L=1600 passes (box-size limited, not resolution limited)"
    )


def test_criterion_2_dispersive_image_of_step_window():
    err = _image_errors(4096, 400.0)["step"]
    assert err <= 1e-3, (
        f"sup error {err:.3e} on the central half against the line image "
        f"(1-x^2)/(1+x^2)^2; measured 2.3e-5 at (4096, 400), set by the "
        f"-1/x^2 tail that the box cuts off"
    )


def test_criterion_2_errors_shrink_when_box_doubles():
    small = _image_errors(4096, 400.0)
    big = _image_errors(8192, 800.0)
    for key in ("bump", "slope", "step"):
        assert big[key] < small[key], key


# ------------------------------------------------------------ criterion 3

def test_criterion_3_certified_profile_residual(soliton_run):
    g, p, _ = soliton_run
    assert bv.profile_residual(p, g) <= 1e-6


def test_criterion_3_certified_profile_propagates(soliton_run):
    g, p, states = soliton_run
    final = states[-1].u
    translated = bv.SolitonParams(
        amplitude=p.amplitude, scale=p.scale,
        center=p.center + p.speed * 10.0, speed=p.speed,
    )
    want = bv.soliton_profile(translated, g)
    err = bv.l2_norm(Field(g, final.samples - want.samples)) / bv.l2_norm(want)
    assert err <= 1e-3

    # the amplitude-4c pairing is reported alongside, never asserted
    classical = bv.SolitonParams(amplitude=4.0, scale=1.0, center=5.0, speed=1.0)
    print(f"amplitude-4c residual (reported): "
          f"{bv.profile_residual(classical, g):.6e}")


# ------------------------------------------------------------ criterion 4

def test_criterion_4_conserved_quantities_over_5000_steps(soliton_run):
    _, _, states = soliton_run
    first = bv.invariants(states[0].u)
    mid = bv.invariants(states[1].u)  # step 5000
    assert abs(mid[0] - first[0]) <= 1e-10
    assert abs(mid[1] - first[1]) / abs(first[1]) <= 1e-8
    assert abs(mid[2] - first[2]) / abs(first[2]) <= 1e-6


# ------------------------------------------------------------ criterion 5

def _budget_pair(states, sched, i, j, k, h):
    mb = bv.mass_budget(states[i].u, states[j].u, states[k].u,
                        states[j].t, h, sched)
    eb = bv.energy_budget(states[i].u, states[j].u, states[k].u,
                          states[j].t, h, sched)
    return mb, eb


def test_criterion_5_budget_residuals_below_term_scale(budget_run):
    states, sched = budget_run
    mb, eb = _budget_pair(states, sched, 0, 2, 4, 0.01)
    mass_max = max(abs(v) for v in (mb.ddt_term, mb.a1, mb.a2, mb.a3, mb.a4))
    energy_max = max(abs(v) for v in (eb.ddt_term, eb.b1, eb.b2, eb.b3, eb.b4))
    assert abs(mb.residual) <= 1e-6 * mass_max
    assert abs(eb.residual) <= 1e-6 * energy_max


def test_criterion_5_residuals_are_second_order_in_stride(budget_run):
    states, sched = budget_run
    mb_h, eb_h = _budget_pair(states, sched, 0, 2, 4, 0.01)
    mb_h2, eb_h2 = _budget_pair(states, sched, 1, 2, 3, 0.005)
    assert 3.4 <= mb_h.residual / mb_h2.residual <= 4.6
    assert 3.4 <= eb_h.residual / eb_h2.residual <= 4.6


def test_criterion_5_internal_identities_at_every_record(budget_run):
    states, sched = budget_run
    for j in (1, 2, 3):
        mb, eb = _budget_pair(states, sched, j - 1, j, j + 1, 0.005)
        lam = lambda_at(sched, states[j].t)
        flux = weighted_dispersive_flux(states[j].u, lam)
        split = -(eb.d31 + eb.d32 / lam)
        assert abs(flux - split) <= 1e-8 * abs(flux)
        assert abs(eb.d32 - (eb.d321 + eb.d322)) <= 1e-8 * abs(eb.d32)


# ------------------------------------------------------------ criterion 6

def test_criterion_6_no_frozen_constant_violations(frozen_corpus):
    for tag in TAGS:
        for label, f in zip(frozen_corpus.labels, frozen_corpus.entries):
            for lam in CORPUS_LAMBDAS:
                rep = run_check(tag, f, lam, input_id=label)
                assert rep.ratio <= FROZEN_CONSTANTS[tag], (
                    f"{tag} ratio {rep.ratio:.4f} on {label} at lam={lam}"
                )


def test_criterion_6_km1_supremum_uniform_in_window_scale(frozen_corpus):
    lo = calibrate(lemma_table(frozen_corpus, [1.0]), "KM1")
    hi = calibrate(lemma_table(frozen_corpus, [100.0]), "KM1")
    assert hi <= 1.1 * lo, (
        f"KM1 sup ratio grows from {lo:.3f} at lam=1 to {hi:.2f} at "
        f"lam=100 (x{hi / lo:.1f}): on band-limited data the weighted "
        f"pairing tends to the fixed positive quantity "
        f"||D^(1/2)f||^2 while the unit right side carries an explicit "
        f"1/lam, so the measured ratio grows ~linearly in lam. This "
        f"contradicts tests/test_inequality_harness.py::TestCalibration::"
        f"test_km1_supremum_tracks_window_scale, which asserts hi > 50 lo "
        f"on the same corpus; which one states KM1 rightly waits on the "
        f"lemma's statement"
    )


def test_criterion_6_km2_supremum_uniform_in_window_scale(frozen_corpus):
    lo = calibrate(lemma_table(frozen_corpus, [1.0]), "KM2")
    hi = calibrate(lemma_table(frozen_corpus, [100.0]), "KM2")
    assert hi <= 1.1 * lo


def test_criterion_6_comm_and_key_ratios_scale_invariant(frozen_corpus):
    g = frozen_corpus.entries[0].grid
    for f in frozen_corpus.entries[:4]:
        scaled = Field(g, 3.0 * f.samples)
        a = run_check("COMM", f, 1.0).ratio
        b = run_check("COMM", scaled, 1.0).ratio
        assert abs(a - b) <= 1e-12 * abs(a)
        a = run_check("KEY", f, 5.0).ratio
        b = run_check("KEY", scaled, 5.0).ratio
        assert abs(a - b) <= 1e-12 * abs(a)


# ------------------------------------------------------------ criterion 7

def test_criterion_7_localized_energy_decays_on_soliton_run(decay_run):
    records = decay_run
    _, minima = bv.integrated_decay(records)
    floors = [f for _, f in minima]
    assert len(floors) >= 4
    assert all(b < a for a, b in zip(floors, floors[1:])), floors

    f10 = records[0].F
    f200 = records[-1].F
    predicted = (1.0 + math.log(10.0) ** 2) / (1.0 + math.log(200.0) ** 2)
    measured = f200 / f10
    assert predicted / 1.5 <= measured <= predicted * 1.5


# ------------------------------------------------------------ criterion 8

def test_criterion_8_integrated_decay_matches_antiderivative():
    class Rec:
        def __init__(self, t, F):
            self.t = t
            self.F = F

    ts = np.geomspace(10.0, 1e4, 5000)
    integral, _ = bv.integrated_decay([Rec(float(t), 1.0) for t in ts])
    want = math.log(math.log(1e4)) - math.log(math.log(10.0))
    assert abs(integral - want) / want <= 0.01


def test_criterion_8_dyadic_minima_monotone_on_soliton_run(decay_run):
    _, minima = bv.integrated_decay(decay_run)
    floors = [f for _, f in minima]
    assert floors == sorted(floors, reverse=True)
    assert len(set(floors)) == len(floors)


# ------------------------------------------------------------ criterion 9

CFG = """\
scenario = soliton
grid.n = 512
grid.length = 200.0
solver.dt = 0.01
solver.t0 = 2.0
solver.t_end = 4.0
solver.record_every = 50
soliton.c = 1.0
soliton.x0 = 0.0
output.prefix = accept
"""


def test_criterion_9_cli_determinism_and_round_trip(tmp_path):
    cfg = tmp_path / "accept.cfg"
    cfg.write_text(CFG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["run", "--config", str(cfg), "--out", out1]) == 0
    assert main(["run", "--config", str(cfg), "--out", out2]) == 0

    a = open(os.path.join(out1, "accept.csv"), "rb").read()
    b = open(os.path.join(out2, "accept.csv"), "rb").read()
    assert a == b

    diags, _ = parse_records(os.path.join(out1, "accept.csv"))
    g = bv.make_grid(512, 200.0)
    p = bv.soliton(1.0, 0.0, g)
    states = bv.run_trajectory(
        bv.soliton_profile(p, g),
        bv.SolverConfig(dt=0.01, t0=2.0, t_end=4.0, record_every=50),
    )
    sched = bv.WeightSchedule(a=0.0, c_scale=1.0)
    for d, s in zip(diags, states):
        want = bv.diag_record(s.u, s.t, sched)
        assert d.t == want.t and d.F == want.F and d.lam == want.lam
        assert d.I1 == want.I1 and d.I2 == want.I2 and d.E == want.E

    manifest = json.load(open(os.path.join(out1, "accept.manifest.json")))
    assert manifest["status"] == "completed"
    assert manifest["records"] == len(diags)


def test_criterion_9_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = soliton\n")  # missing everything else
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    boom = tmp_path / "boom.cfg"
    boom.write_text(
        "scenario = gaussian\ngrid.n = 256\ngrid.length = 100.0\n"
        "solver.dt = 0.05\nsolver.t0 = 2.0\nsolver.t_end = 402.0\n"
        "gaussian.amplitude = 1e120\ngaussian.width = 2.0\n"
        "output.prefix = boom\n"
    )
    assert main(["run", "--config", str(boom), "--out", str(tmp_path)]) == 3
