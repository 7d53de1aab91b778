"""Weight closed forms, windowed functionals, and budget closures."""

import math
import warnings
from collections import Counter
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bovirial as bv
from bovirial import experiment_cli
from bovirial.bo_solver import _Plan
from bovirial.inequality_harness import run_check
from bovirial.spectral_core import Field, _positive, dealias, deriv, frac_deriv, hilbert
from bovirial.virial_diagnostics import (
    EnergyBudget,
    MassBudget,
    _block,
    _closed,
    phi,
    phi_prime,
    window_prime,
)

from conftest import d2x_hilbert_phi, phi_pp, weighted_dispersive_flux


def window(grid, lam):
    """Sampled phi(x/lam), checked like the library's window_prime."""
    return Field(grid, phi(grid.coords / _positive(lam, "lam")))


def a3_by_parts(u, t, s):
    """a3 with the dispersive operator moved onto the sampled window.

    (H d^2/dx^2) is antisymmetric under the discrete pairing, so this
    equals mass_budget's a3 to rounding; it is the parts-integrated form
    evaluated without leaving the discretization.
    """
    g = u.grid
    win = window(g, bv.lambda_at(s, t))
    moved = deriv(deriv(hilbert(win)))
    return -bv.w_at(s, t) * bv.inner(u, moved)


def a3_closed_form(u, t, s):
    """a3 via the rational closed form of the window's dispersive image,
    sampled directly. Differs from the spectral routes by the window's
    periodization floor (~1e-3 at L=400); a continuum reference only."""
    g = u.grid
    lam = bv.lambda_at(s, t)
    z = g.coords / lam
    image = (1.0 - z * z) / (1.0 + z * z) ** 2 / lam ** 2
    return -bv.w_at(s, t) * float(g.spacing * np.sum(image * u.samples))


def reference_budgets(u_prev, u, u_next, t, dt, s):
    """Both budgets op by op: one round trip per operator, every window
    evaluated where it is used, and the commutator D^{1/2}[D^{1/2}; phi'] u
    built from frac_deriv with plain products and paired with u."""
    g = u.grid
    lam, w = bv.lambda_at(s, t), bv.w_at(s, t)
    z = g.coords / lam
    win, winp = phi(z), phi_prime(z)

    def wsum(weight, samples):
        return float(g.spacing * np.sum(weight * samples))

    def window_terms(density):
        def weighted(v, tau):
            return bv.w_at(s, tau) * wsum(phi(g.coords / bv.lambda_at(s, tau)),
                                          density(v.samples))
        ddt = (weighted(u_next, t + dt) - weighted(u_prev, t - dt)) / (2.0 * dt)
        rho = density(u.samples)
        return (ddt, bv.w_prime_at(s, t) * wsum(phi(z), rho),
                w * (bv.lambda_prime_at(s, t) / lam) * wsum(z * phi_prime(z), rho))

    ddt, a1, a2 = window_terms(lambda v: v)
    a3 = w * wsum(win, deriv(deriv(hilbert(u))).samples)
    a4 = w * wsum(win, deriv(dealias(Field(g, u.samples * u.samples))).samples)
    mass = MassBudget(float(t), ddt, a1, a2, a3, a4, ddt - a1 + a2 + a3 + a4)

    ddt, damping, dilation = window_terms(np.square)
    ddt, b1, b2 = 0.5 * ddt, -0.5 * damping, 0.5 * dilation
    ux = deriv(u)
    hux = hilbert(ux)
    d31 = wsum(win, hux.samples * ux.samples)
    d32 = wsum(winp, hux.samples * u.samples)
    dh = frac_deriv(u, 0.5)
    d321 = wsum(winp, dh.samples ** 2)
    bracket = frac_deriv(Field(g, winp * u.samples), 0.5).samples - winp * dh.samples
    d322 = bv.inner(u, frac_deriv(Field(g, bracket), 0.5))
    b3 = -w * (d31 + d32 / lam)
    b4 = -(2.0 / 3.0) * (w / lam) * wsum(winp, u.samples ** 3)
    energy = EnergyBudget(float(t), ddt, b1, b2, b3, b4, d31, d32, d321, d322,
                          ddt + b1 + b2 + b3 + b4)
    return mass, energy


def one_state_record(u, t, s):
    """(t, I1, I2, E, L1, lambda, F) as the one-state diag_record computed
    them before the block pass, for the bit-for-bit pin of _block."""
    g, v = u.grid, u.samples
    lam = bv.lambda_at(s, t)
    dh = np.fft.irfft(np.fft.rfft(v) * g._half_sym, g.n)
    wp = phi_prime(g.coords / lam)
    e = float(g.spacing * np.dot(dh, dh)) - float(g.spacing * np.sum(v * v * v)) / 3.0
    return (float(t), float(g.spacing * np.sum(v)), bv.inner(u, u), e,
            float(g.spacing * np.sum(np.abs(v))), lam,
            float(g.spacing * (np.sum(wp * v ** 2) + np.sum(wp * dh ** 2))))


def one_state_budgets(u_prev, u, u_next, t, dt, s):
    """budgets as the one-state code computed them before the block pass,
    for the bit-for-bit pin of _block."""
    g, v = u.grid, u.samples
    lam, w = bv.lambda_at(s, t), bv.w_at(s, t)
    z = g.coords / lam
    win, winp = phi(z), phi_prime(z)
    zwinp = z * winp
    w_next, win_next = bv.w_at(s, t + dt), phi(g.coords / bv.lambda_at(s, t + dt))
    w_prev, win_prev = bv.w_at(s, t - dt), phi(g.coords / bv.lambda_at(s, t - dt))
    w_prime, w_rate = bv.w_prime_at(s, t), w * (bv.lambda_prime_at(s, t) / lam)

    def wsum(weight, samples):
        return float(g.spacing * (weight * samples).sum())

    def window_terms(density):
        rho = density(v)
        ddt = (w_next * wsum(win_next, density(u_next.samples))
               - w_prev * wsum(win_prev, density(u_prev.samples))) / (2.0 * dt)
        return ddt, w_prime * wsum(win, rho), w_rate * wsum(zwinp, rho)

    spectrum = np.fft.rfft(v)
    ux, hux, disp, dh = (np.fft.irfft(spectrum * sym, g.n) for sym in (
        g._deriv_sym, g._hilbert_deriv_sym, g._dispersion_sym, g._half_sym))
    flux = np.fft.irfft(np.fft.rfft(v * v) * g._flux_sym, g.n)
    half_wu = np.fft.irfft(np.fft.rfft(winp * v) * g._half_sym, g.n)
    d322 = float(g.spacing * np.dot(dh, half_wu - winp * dh))
    ddt, a1, a2 = window_terms(lambda x: x)
    a3, a4 = w * wsum(win, disp), -w * wsum(win, flux)
    mass = MassBudget(float(t), ddt, a1, a2, a3, a4, ddt - a1 + a2 + a3 + a4)
    ddt, damping, dilation = window_terms(np.square)
    ddt, b1, b2 = 0.5 * ddt, -0.5 * damping, 0.5 * dilation
    d31, d32, d321 = wsum(win, hux * ux), wsum(winp, hux * v), wsum(winp, dh ** 2)
    b3 = -w * (d31 + d32 / lam)
    b4 = -(2.0 / 3.0) * (w / lam) * wsum(winp, v * v * v)
    energy = EnergyBudget(float(t), ddt, b1, b2, b3, b4, d31, d32, d321, d322,
                          ddt + b1 + b2 + b3 + b4)
    return mass, energy


class _Rec:
    def __init__(self, t, F):
        self.t = t
        self.F = F


times = st.floats(min_value=1.5, max_value=1e6)
exponents = st.floats(min_value=0.0, max_value=0.49)


class TestWeightFunctions:
    def test_phi_endpoints(self):
        assert phi(0.0) == pytest.approx(math.pi / 2.0)
        assert phi(1e12) == pytest.approx(math.pi, rel=1e-10)
        assert phi(-1e12) == pytest.approx(0.0, abs=1e-10)

    def test_phi_prime_closed_form(self):
        x = np.linspace(-40.0, 40.0, 401)
        assert np.allclose(phi_prime(x), 1.0 / (1.0 + x * x), rtol=1e-14)

    def test_phi_derivatives_consistent(self):
        # centered differences of phi and phi' match the closed forms
        x = np.linspace(-20.0, 20.0, 801)
        h = 1e-5
        d1 = (phi(x + h) - phi(x - h)) / (2.0 * h)
        d2 = (phi_prime(x + h) - phi_prime(x - h)) / (2.0 * h)
        assert np.max(np.abs(d1 - phi_prime(x))) < 1e-9
        assert np.max(np.abs(d2 - phi_pp(x))) < 1e-9

    def test_window_is_scaled_phi(self, grid_small):
        lam = 3.0
        w = window(grid_small, lam)
        assert np.allclose(w.samples, phi(grid_small.coords / lam), rtol=1e-14)
        wp = window_prime(grid_small, lam)
        assert np.allclose(wp.samples, phi_prime(grid_small.coords / lam),
                           rtol=1e-14)


class TestSchedule:
    def test_rejects_a_out_of_range(self):
        with pytest.raises(ValueError):
            bv.WeightSchedule(a=0.5)
        with pytest.raises(ValueError):
            bv.WeightSchedule(a=-0.1)

    def test_growth_exponent_complements_decay(self):
        s = bv.WeightSchedule(a=0.3)
        assert s.b == pytest.approx(0.7)

    def test_rejects_times_at_or_below_one(self):
        s = bv.WeightSchedule(a=0.0)
        for fn in (bv.lambda_at, bv.lambda_prime_at, bv.w_at, bv.w_prime_at):
            with pytest.raises(ValueError):
                fn(s, 1.0)
        with pytest.raises(ValueError):
            bv.eta_at(0.5)

    def test_lambda_closed_form(self):
        s = bv.WeightSchedule(a=0.25, c_scale=2.0)
        t = 100.0
        assert bv.lambda_at(s, t) == pytest.approx(
            2.0 * t ** 0.75 / math.log(t), rel=1e-14
        )

    def test_w_closed_form(self):
        s = bv.WeightSchedule(a=0.25)
        t = 50.0
        assert bv.w_at(s, t) == pytest.approx(
            t ** -0.25 / math.log(t) ** 2, rel=1e-14
        )

    def test_eta_closed_form(self):
        assert bv.eta_at(math.e) == pytest.approx(1.0 / math.e, rel=1e-14)

    @given(times, exponents)
    def test_lambda_prime_matches_difference_quotient(self, t, a):
        s = bv.WeightSchedule(a=a)
        h = 1e-6 * t
        fd = (bv.lambda_at(s, t + h) - bv.lambda_at(s, t - h)) / (2.0 * h)
        assert bv.lambda_prime_at(s, t) == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @given(times, exponents)
    def test_w_prime_matches_difference_quotient(self, t, a):
        s = bv.WeightSchedule(a=a)
        h = 1e-6 * t
        fd = (bv.w_at(s, t + h) - bv.w_at(s, t - h)) / (2.0 * h)
        assert bv.w_prime_at(s, t) == pytest.approx(fd, rel=1e-5, abs=1e-15)

    def test_window_grows_and_weight_decays(self):
        s = bv.WeightSchedule(a=0.25)
        for t in (5.0, 20.0, 100.0, 1000.0):
            assert bv.lambda_prime_at(s, t) > 0.0
            assert bv.w_prime_at(s, t) < 0.0


class TestWindowImage:
    def test_dispersive_image_of_window(self):
        # continuum image of H phi(./lam) under two derivatives is
        # (1/lam^2)(1-y^2)/(1+y^2)^2 at y = x/lam; the finite box
        # limits accuracy, improving with box size
        errs = {}
        for n, length in ((8192, 800.0), (4096, 400.0)):
            g = bv.make_grid(n, length)
            got = d2x_hilbert_phi(1.0, g).samples
            y = g.coords
            want = (1.0 - y * y) / (1.0 + y * y) ** 2
            core = np.abs(y) <= length / 4.0
            errs[length] = float(np.max(np.abs(got - want)[core]))
        # measured floors: 2.3e-5 at L=400, 5.8e-6 at L=800, set by the
        # -1/x^2 tail of the image that the box cuts off, so the decay is
        # quadratic in 1/L
        assert errs[800.0] < 5e-4
        assert errs[400.0] / errs[800.0] == pytest.approx(4.0, abs=1.0)

        # the seam jump 2 arctan(L/(2 lam)) depends on lam, so lam = 1
        # alone cannot show that the ramp carries the right one; measured
        # ~2.3e-5 at lam = 5 and 20 as well
        g = bv.make_grid(4096, 400.0)
        core = np.abs(g.coords) <= g.length / 4.0
        for lam in (5.0, 20.0):
            got = d2x_hilbert_phi(lam, g).samples
            z = g.coords / lam
            want = (1.0 - z * z) / (1.0 + z * z) ** 2 / lam ** 2
            err = float(np.max(np.abs(got - want)[core]))
            assert err < 1e-4, f"lam={lam}: sup error {err:.3e}"


class TestDiagRecord:
    def test_rejects_negative_localized_mass(self):
        with pytest.raises(ValueError):
            bv.DiagRecord(t=2.0, I1=0.0, I2=1.0, E=0.0, L1=1.0, F=-0.1, lam=1.0)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            bv.DiagRecord(t=2.0, I1=0.0, I2=1.0, E=0.0, L1=1.0, F=0.1, lam=0.0)

    def test_record_from_field(self, gaussian_small):
        s = bv.WeightSchedule(a=0.0)
        d = bv.diag_record(gaussian_small, 10.0, s)
        assert d.t == 10.0
        assert d.lam == pytest.approx(bv.lambda_at(s, 10.0), rel=1e-14)
        assert d.F > 0.0
        assert d.I2 == pytest.approx(bv.invariants(gaussian_small)[1], rel=1e-14)


class TestLocalEnergy:
    def test_wide_window_recovers_global_quadratic(self, gaussian_small):
        u = gaussian_small
        i2 = bv.invariants(u)[1]
        half = bv.l2_norm(bv.frac_deriv(u, 0.5)) ** 2
        wide = bv.local_energy(u, 1e4)
        assert wide == pytest.approx(i2 + half, rel=1e-5)

    def test_nonnegative_and_monotone_in_window(self, gaussian_small):
        vals = [bv.local_energy(gaussian_small, lam) for lam in (1.0, 5.0, 25.0)]
        assert all(v > 0.0 for v in vals)

    def test_rejects_nonpositive_scale(self, gaussian_small):
        with pytest.raises(ValueError):
            bv.local_energy(gaussian_small, 0.0)


# the entry points whose window scale `spectral_core._positive` guards, as (field, lam) -> ...;
# `window` is this module's own sampler, and d2x_hilbert_phi and weighted_dispersive_flux
# the reference helpers of conftest, held to the same rule as window_prime
WINDOW_SCALE_USERS = {
    "window": lambda u, lam: window(u.grid, lam),
    "window_prime": lambda u, lam: window_prime(u.grid, lam),
    "d2x_hilbert_phi": lambda u, lam: d2x_hilbert_phi(lam, u.grid),
    "local_energy": bv.local_energy,
    "check_km1": lambda u, lam: run_check("KM1", u, lam),  # the KM1 single check
    "weighted_dispersive_flux": weighted_dispersive_flux,
}


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", sorted(WINDOW_SCALE_USERS))
def test_window_scale_must_be_positive_and_finite(gaussian_small, name, lam):
    with pytest.raises(ValueError, match="lam must be positive"):
        WINDOW_SCALE_USERS[name](gaussian_small, lam)


class TestMassBudget:
    def test_residual_shrinks_quadratically(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        r_h = bv.mass_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s).residual
        r_2h = bv.mass_budget(st_[0].u, st_[2].u, st_[4].u, st_[2].t, 2 * h, s).residual
        assert abs(r_2h / r_h) == pytest.approx(4.0, abs=0.6)

    def test_terms_sum_to_time_derivative(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        mb = bv.mass_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s)
        assert mb.residual == mb.ddt_term - mb.a1 + mb.a2 + mb.a3 + mb.a4
        assert abs(mb.residual) < 1e-4 * max(abs(mb.a3), abs(mb.a4))

    def test_parts_integrated_route_matches(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        mb = bv.mass_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s)
        moved = a3_by_parts(st_[1].u, st_[1].t, s)
        assert moved == pytest.approx(mb.a3, rel=1e-8)

    def test_closed_form_route_within_periodization_floor(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        direct = a3_by_parts(st_[1].u, st_[1].t, s)
        sampled = a3_closed_form(st_[1].u, st_[1].t, s)
        assert sampled == pytest.approx(direct, rel=5e-3)
        assert sampled != pytest.approx(direct, rel=1e-6)

    def test_rejects_mismatched_grids(self, gaussian_small):
        g2 = bv.make_grid(512, 400.0)
        other = bv.Field(g2, np.zeros(g2.n))
        s = bv.WeightSchedule(a=0.0)
        with pytest.raises(ValueError):
            bv.mass_budget(gaussian_small, gaussian_small, other, 10.0, 0.01, s)

    def test_rejects_window_undefined_times(self, gaussian_small):
        s = bv.WeightSchedule(a=0.0)
        u = gaussian_small
        with pytest.raises(ValueError):
            bv.mass_budget(u, u, u, 1.005, 0.01, s)


class TestEnergyBudget:
    def test_residual_shrinks_quadratically(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        r_h = bv.energy_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s).residual
        r_2h = bv.energy_budget(st_[0].u, st_[2].u, st_[4].u, st_[2].t, 2 * h, s).residual
        assert abs(r_2h / r_h) == pytest.approx(4.0, abs=0.6)

    def test_half_derivative_split_is_exact(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        eb = bv.energy_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s)
        assert eb.d32 == pytest.approx(eb.d321 + eb.d322,
                                       abs=1e-12 * max(1.0, abs(eb.d32)))

    def test_dispersive_flux_sign(self, budget_states):
        # moving the weighted pairing through the dispersive operator
        # produces minus the split terms; this orientation is load-bearing
        # for the budget to close
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        eb = bv.energy_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s)
        lam = bv.lambda_at(s, st_[1].t)
        flux = weighted_dispersive_flux(st_[1].u, lam)
        assert flux == pytest.approx(-(eb.d31 + eb.d32 / lam), rel=1e-10)

    def test_stored_identity(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        h = st_[1].t - st_[0].t
        eb = bv.energy_budget(st_[0].u, st_[1].u, st_[2].u, st_[1].t, h, s)
        assert eb.residual == eb.ddt_term + eb.b1 + eb.b2 + eb.b3 + eb.b4

    def test_overflowing_state_gives_terms_that_are_not_finite(self, grid_small, tmp_path):
        # |u| = 1e200 is a finite Field, but u^2 overflows: budgets hands back
        # terms that are not finite instead of raising, and the CSV writer
        # cuts at the first such state, with no row and no numpy warning
        x = grid_small.coords
        u = Field(grid_small, 1e200 * np.exp(-((x / 5.0) ** 2)))
        args = (u, u, u, 10.0, 0.01, bv.WeightSchedule(a=0.25))
        with np.errstate(over="ignore", invalid="ignore"):
            mass, energy = bv.budgets(*args)
        assert not all(map(math.isfinite, astuple(mass)[1:] + astuple(energy)[1:]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            block = ([9.99, 10.0, 10.01], np.array([u.samples] * 3))
            cfg = SimpleNamespace(grid=grid_small, weight=args[-1])
            path = tmp_path / "cut.csv"
            assert experiment_cli._write_rows(str(path), [block], cfg) == (0, 9.99)
        assert path.read_text() == ",".join(experiment_cli.CSV_COLUMNS) + "\n"


class TestOneSpectralPass:
    """A record takes one spectral pass: diag_record shares D^{1/2}u between
    E and F, and budgets shares one rfft of u among u_x, H u_x, H u_xx and
    D^{1/2}u. The pass must reproduce the op-by-op budgets."""

    def test_diag_record_takes_two_transforms(self, gaussian_small, transforms):
        bv.diag_record(gaussian_small, 10.0, bv.WeightSchedule(a=0.25))
        assert transforms == {"rfft": 1, "irfft": 1}

    def test_budgets_take_nine_transforms(self, budget_states, transforms, transform_rows):
        # of u alone: its neighbors enter through their weighted integrals
        st_ = budget_states
        bv.budgets(st_[0].u, st_[1].u, st_[2].u, st_[1].t, st_[1].t - st_[0].t,
                   bv.WeightSchedule(a=0.25))
        assert transforms == transform_rows == {"rfft": 3, "irfft": 6}

    def test_pass_builds_no_field(self, budget_states, monkeypatch):
        # past their checked inputs both calls run on plain arrays
        made = Counter()
        post_init = Field.__post_init__

        def counted(field):
            made[current] += 1
            post_init(field)

        monkeypatch.setattr(Field, "__post_init__", counted)
        st_, s = budget_states, bv.WeightSchedule(a=0.25)
        current = "budgets"
        bv.budgets(st_[0].u, st_[1].u, st_[2].u, st_[1].t, st_[1].t - st_[0].t, s)
        current = "diag_record"
        bv.diag_record(st_[1].u, st_[1].t, s)
        current = "counter"
        Field(st_[1].u.grid, st_[1].u.samples)
        assert made == {"counter": 1}

    @pytest.mark.parametrize("mid", [1, 2, 3])
    def test_budgets_match_op_by_op_reference(self, budget_states, mid):
        st_ = budget_states
        self.check_against_reference(st_[mid - 1].u, st_[mid].u, st_[mid + 1].u,
                                     st_[mid].t, st_[mid].t - st_[mid - 1].t)

    def test_rough_fields_match_op_by_op_reference(self, grid_small):
        # white noise fills every mode, Nyquist and the top third included,
        # where the smooth trajectory states carry nothing to compare
        rng = np.random.default_rng(5)
        self.check_against_reference(
            *(Field(grid_small, rng.standard_normal(grid_small.n)) for _ in range(3)), 10.0, 0.01)

    def test_solver_symbols_match_op_by_op_on_white_noise(self, grid_small):
        # the grid's dispersion and flux symbols serve the budgets, bo_rhs and
        # the propagator; white noise also fills the top third and Nyquist
        u = Field(grid_small, np.random.default_rng(5).standard_normal(grid_small.n))
        want = (-deriv(hilbert(deriv(u))).samples
                - deriv(dealias(Field(grid_small, u.samples * u.samples))).samples)
        err = np.max(np.abs(bv.bo_rhs(u).samples - want))
        assert err <= 1e-12 * np.max(np.abs(want))
        e_half = _Plan(grid_small, 0.1, (grid_small.n // 2 + 1,)).e_half
        assert e_half[-1] == 1.0
        assert np.max(np.abs(np.abs(e_half) - 1.0)) <= 4 * np.finfo(float).eps

    @staticmethod
    def check_against_reference(u_prev, u, u_next, t, dt):
        args = (u_prev, u, u_next, t, dt, bv.WeightSchedule(a=0.25))
        got, want = bv.budgets(*args), reference_budgets(*args)
        for g, r, terms in zip(got, want, (("a1", "a2", "a3", "a4"), ("b1", "b2", "b3", "b4"))):
            scale = max(abs(getattr(r, name)) for name in terms)
            err = max(abs(a - b) for a, b in zip(astuple(g), astuple(r)))
            assert err <= 1e-12 * scale, f"{type(r).__name__}: {err:.3e} against {scale:.3e}"
        # the weighted sums keep their operation order, so these are bit-identical
        # (b4 is not: budgets cubes by multiplication, the reference by `** 3`)
        mass, energy = got
        assert (mass.ddt_term, mass.a1, mass.a2) == astuple(want[0])[1:4]
        assert (energy.ddt_term, energy.b1, energy.b2, energy.d321) == (
            want[1].ddt_term, want[1].b1, want[1].b2, want[1].d321)

    @pytest.mark.parametrize("data", ["trajectory", "white noise"])
    def test_blocks_match_one_state_code_bit_for_bit(self, gaussian_small, data):
        # the states in consecutive blocks of every size from 1 to the CSV
        # writer's cap at n = 1024 (32) + 2, each block passed with the state
        # before it as _write_rows passes it: every row's record values, and
        # every interior row's budgets closed from its terms between its own
        # behind and its next state's ahead; white noise fills the top third
        # and Nyquist
        g, s = gaussian_small.grid, bv.WeightSchedule(a=0.25)
        cap = experiment_cli._BLOCK_SAMPLES // g.n
        assert cap == 32
        if data == "trajectory":
            solver = bv.SolverConfig(dt=1e-3, t0=10.0, t_end=10.33, record_every=10)
            states = bv.run_trajectory(gaussian_small, solver)
        else:
            rng = np.random.default_rng(7)
            states = [bv.TrajectoryState(Field(g, rng.standard_normal(g.n)), 10.0 + 0.01 * i)
                      for i in range(cap + 2)]
        assert len(states) == cap + 2
        ts = [st.t for st in states]
        hs = [0.0] + [ts[i] - ts[i - 1] for i in range(1, cap + 2)]
        # rows whose t + h is not the next row's time in floating point: their
        # d/dt terms weight the next state at t + h, and are compared below
        assert sum(ts[i] + hs[i] != ts[i + 1] for i in range(1, cap + 1)) == 8
        records = [one_state_record(st.u, st.t, s) for st in states]
        budgets = [astuple(m) + astuple(e) for m, e in (
            one_state_budgets(states[i - 1].u, states[i].u, states[i + 1].u, ts[i], hs[i], s)
            for i in range(1, cap + 1))]
        samples = np.array([st.u.samples for st in states])
        for m in range(1, cap + 3):
            got, terms, pairs, before = [], [], [], None
            for a in range(0, cap + 2, m):
                b = min(a + m, cap + 2)
                record, block_terms, block_pairs = _block(samples[a:b], ts[a:b], hs[a:b], s, g,
                                                          before)
                got += zip(*(record[name] for name in experiment_cli._RECORD_CELLS))
                terms += block_terms
                pairs += block_pairs
                before = (ts[b - 1], hs[b - 1], samples[b - 1])
            assert got == records and pairs[0] is None
            closed = [_closed(pairs[i][0], terms[i], pairs[i + 1][1], hs[i])
                      for i in range(1, cap + 1)]
            assert [astuple(MassBudget(t, **mass)) + astuple(EnergyBudget(t, **energy))
                    for t, (mass, energy) in zip(ts[1:], closed)] == budgets

    def test_single_budgets_are_the_halves(self, budget_states):
        s = bv.WeightSchedule(a=0.25)
        st_ = budget_states
        args = (st_[0].u, st_[1].u, st_[2].u, st_[1].t, st_[1].t - st_[0].t, s)
        assert (bv.mass_budget(*args), bv.energy_budget(*args)) == bv.budgets(*args)


class TestIntegratedDecay:
    def test_constant_unit_decay_gives_log_ratio(self):
        # with F = 1 the integrand is 1/(t log t), whose primitive is
        # log log t; from 10 to 10^4 the integral is exactly log 4
        ts = np.geomspace(10.0, 1e4, 4000)
        integral, minima = bv.integrated_decay([_Rec(float(t), 1.0) for t in ts])
        assert integral == pytest.approx(math.log(4.0), rel=1e-5)
        assert len(minima) == 11
        assert minima[0] == (10.0, 1.0)
        assert all(f == 1.0 for _, f in minima)

    def test_minima_track_block_minimum(self):
        recs = [_Rec(10.0, 5.0), _Rec(12.0, 3.0), _Rec(15.9, 4.0),
                _Rec(16.0, 2.0), _Rec(30.0, 2.5)]
        _, minima = bv.integrated_decay(recs)
        assert minima == [(12.0, 3.0), (16.0, 2.0)]

    def test_rejects_early_start(self):
        with pytest.raises(ValueError):
            bv.integrated_decay([_Rec(5.0, 1.0), _Rec(20.0, 1.0)])

    def test_rejects_unordered_times(self):
        with pytest.raises(ValueError):
            bv.integrated_decay([_Rec(20.0, 1.0), _Rec(15.0, 1.0)])
