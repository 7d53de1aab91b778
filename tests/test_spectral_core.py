"""Operator identities and quadrature checks for the spectral layer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bovirial as bv
from bovirial.spectral_core import Field, make_grid
from bovirial.virial_diagnostics import phi_prime, window_prime

from conftest import phi_pp


def band_limited(grid, coeffs):
    """Real field from a short list of (k, re, im) low-mode coefficients."""
    co = np.zeros(grid.n // 2 + 1, dtype=complex)
    for k, re, im in coeffs:
        co[k] += re + 1j * im
    return Field(grid, np.fft.irfft(co, grid.n))


def zeros(grid):
    return Field(grid, np.zeros(grid.n))


def reflect(f):
    """Spatial reflection x -> -x on the periodic grid (index 0 fixed)."""
    g = f.grid
    return Field(g, f.samples[(g.n - np.arange(g.n)) % g.n])


coeff_lists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
    min_size=1,
    max_size=6,
)


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(1000, 100.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_grid(8, 100.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            make_grid(64, 0.0)

    def test_coords_span_centered_box(self):
        g = make_grid(64, 32.0)
        assert g.coords[0] == -16.0
        assert g.spacing == pytest.approx(0.5)
        assert g.coords[-1] == pytest.approx(16.0 - 0.5)

    def test_wavenumber_spacing(self):
        g = make_grid(64, 32.0)
        assert g._xi_r[1] == pytest.approx(2.0 * math.pi / 32.0)

    def test_arrays_frozen(self):
        g = make_grid(64, 32.0)
        with pytest.raises(ValueError):
            g.coords[0] = 0.0


class TestField:
    def test_rejects_nan(self, grid_small):
        bad = np.zeros(grid_small.n)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            Field(grid_small, bad)

    def test_rejects_wrong_shape(self, grid_small):
        with pytest.raises(ValueError):
            Field(grid_small, np.zeros(grid_small.n + 1))

    def test_overflowing_operator_result_rejected(self):
        # results computed inside the package skip the cast and the copy,
        # but not the finiteness check: the rfft of 1e307 sin overflows
        g = make_grid(256, 100.0)
        f = Field(g, 1e307 * np.sin(2.0 * np.pi * g.coords / g.length))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="field samples must be finite"):
                bv.deriv(f)

    def test_inner_rejects_grid_mismatch(self):
        f = zeros(make_grid(64, 32.0))
        g = zeros(make_grid(64, 64.0))
        with pytest.raises(ValueError):
            bv.inner(f, g)


class TestHilbert:
    def test_sin_maps_to_minus_cos(self, grid_medium):
        x = grid_medium.coords
        k = 2.0 * math.pi / grid_medium.length
        f = Field(grid_medium, np.sin(k * x))
        err = np.max(np.abs(bv.hilbert(f).samples + np.cos(k * x)))
        assert err < 1e-12

    def test_annihilates_constants(self, grid_small):
        f = Field(grid_small, np.full(grid_small.n, 2.5))
        assert bv.l2_norm(bv.hilbert(f)) == 0.0

    def test_squares_to_minus_identity_on_mean_free(self, grid_small):
        f = band_limited(grid_small, [(3, 1.0, 0.5), (17, -0.2, 0.9)])
        hh = bv.hilbert(bv.hilbert(f))
        assert np.max(np.abs(hh.samples + f.samples)) < 1e-12

    def test_lorentzian_image_accuracy_improves_with_box(self):
        # continuum image of the bump 1/(1+x^2) is x/(1+x^2); the periodic
        # box contributes an O(1/L) offset, so the wide box must be accurate
        # and halving L must roughly double the error
        errs = {}
        for n, length in ((16384, 1600.0), (8192, 800.0), (4096, 400.0)):
            g = make_grid(n, length)
            x = g.coords
            got = bv.hilbert(Field(g, phi_prime(x))).samples
            want = x / (1.0 + x * x)
            core = np.abs(x) <= length / 4.0
            errs[length] = float(np.max(np.abs(got - want)[core]))
        assert errs[1600.0] < 1e-3
        assert errs[800.0] / errs[1600.0] == pytest.approx(2.0, rel=0.05)
        assert errs[400.0] / errs[800.0] == pytest.approx(2.0, rel=0.05)

    def test_lorentzian_image_matches_periodized_bump(self):
        # hilbert is the periodic multiplier, so it maps the bump to the
        # image of its periodization. By Poisson summation that has Fourier
        # coefficients (pi/L) exp(-2 pi |k|/L); times -i sgn k they sum to
        # (pi/L) sin(2 pi x/L) / (cosh(2 pi/L) - cos(2 pi x/L)). What is
        # left is that the samples are of the bump itself, which misses
        # the neighbouring copies' O(1/L^2) tails (measured 5.1e-6 at
        # L=400, 1.3e-6 at L=800), so a fault in the operator shows here
        # where the line form cannot tell it apart from the box size
        errs = {}
        for n, length in ((8192, 800.0), (4096, 400.0)):
            g = make_grid(n, length)
            x = g.coords
            got = bv.hilbert(Field(g, phi_prime(x))).samples
            theta = 2.0 * np.pi * x / length
            want = (np.pi / length) * np.sin(theta) / (
                np.cosh(2.0 * np.pi / length) - np.cos(theta)
            )
            core = np.abs(x) <= length / 4.0
            errs[length] = float(np.max(np.abs(got - want)[core]))
        assert errs[400.0] < 2e-5
        assert errs[400.0] / errs[800.0] == pytest.approx(4.0, rel=0.05)

    def test_second_weight_matches_periodized_image(self):
        # the same Poisson sum for phi'' = d/dx phi': hilbert commutes with
        # d/dx, so the image is the x-derivative of the bump's,
        # (pi/L) a (cos(ax) cosh a - 1) / (cosh a - cos ax)^2 with a = 2 pi/L.
        # The neighbouring copies' tails of phi'' fall like 1/L^3, so the
        # error falls 8x per box doubling (measured 5.4e-8 at L=400, 6.8e-9
        # at L=800)
        errs = {}
        for n, length in ((8192, 800.0), (4096, 400.0)):
            g = make_grid(n, length)
            x = g.coords
            got = bv.hilbert(Field(g, phi_pp(x))).samples
            a = 2.0 * np.pi / length
            want = (np.pi / length) * a * (np.cos(a * x) * np.cosh(a) - 1.0) / (
                np.cosh(a) - np.cos(a * x)
            ) ** 2
            core = np.abs(x) <= length / 4.0
            errs[length] = float(np.max(np.abs(got - want)[core]))
        assert errs[400.0] < 2e-7
        assert errs[400.0] / errs[800.0] == pytest.approx(8.0, rel=0.05)

    def test_second_weight_image(self, grid_medium):
        # d/dx of the bump has continuum Hilbert image (1-x^2)/(1+x^2)^2
        x = grid_medium.coords
        got = bv.hilbert(Field(grid_medium, phi_pp(x))).samples
        want = (1.0 - x * x) / (1.0 + x * x) ** 2
        core = np.abs(x) <= grid_medium.length / 4.0
        assert np.max(np.abs(got - want)[core]) < 1e-3

    @given(coeff_lists)
    def test_antisymmetric_bilinear_form(self, coeffs):
        g = make_grid(256, 100.0)
        f = band_limited(g, coeffs)
        h = band_limited(g, [(5, 0.3, -1.1)])
        lhs = bv.inner(bv.hilbert(f), h)
        rhs = -bv.inner(f, bv.hilbert(h))
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1.0 + abs(lhs)))

    @given(coeff_lists)
    def test_isometry_on_mean_free_band(self, coeffs):
        g = make_grid(256, 100.0)
        f = band_limited(g, coeffs)
        assert bv.l2_norm(bv.hilbert(f)) == pytest.approx(
            bv.l2_norm(f), rel=1e-12, abs=1e-12
        )


class TestDeriv:
    def test_sin_derivative(self, grid_small):
        x = grid_small.coords
        k = 6.0 * math.pi / grid_small.length
        f = Field(grid_small, np.sin(k * x))
        err = np.max(np.abs(bv.deriv(f).samples - k * np.cos(k * x)))
        assert err < 1e-10

    def test_kills_nyquist(self):
        g = make_grid(64, 32.0)
        co = np.zeros(g.n // 2 + 1, dtype=complex)
        co[-1] = 1.0
        f = Field(g, np.fft.irfft(co, g.n))
        assert bv.l2_norm(bv.deriv(f)) == 0.0

    def test_half_derivative_composes_to_full(self, grid_small):
        f = band_limited(grid_small, [(4, 1.0, 0.0), (9, 0.0, -2.0)])
        once = bv.frac_deriv(bv.frac_deriv(f, 0.5), 0.5)
        full = bv.frac_deriv(f, 1.0)
        assert np.max(np.abs(once.samples - full.samples)) < 1e-11

    def test_full_frac_matches_hilbert_deriv(self, grid_small):
        # |xi| = sgn(xi) * xi, so D^1 must equal H applied to d/dx
        f = band_limited(grid_small, [(2, 0.7, 0.1), (31, -0.4, 0.0)])
        a = bv.frac_deriv(f, 1.0)
        b = bv.hilbert(bv.deriv(f))
        assert np.max(np.abs(a.samples - b.samples)) < 1e-11

    def test_frac_zero_is_identity(self, grid_small):
        f = band_limited(grid_small, [(7, 1.0, 1.0)])
        assert np.array_equal(bv.frac_deriv(f, 0.0).samples, f.samples)

    def test_frac_rejects_out_of_range_order(self, grid_small):
        f = zeros(grid_small)
        with pytest.raises(ValueError):
            bv.frac_deriv(f, 2.5)
        with pytest.raises(ValueError):
            bv.frac_deriv(f, -0.5)


class TestDealias:
    def test_removes_upper_third(self):
        g = make_grid(128, 64.0)
        keep = band_limited(g, [(10, 1.0, 0.0)])
        kill = band_limited(g, [(60, 1.0, 0.0)])
        mixed = Field(g, keep.samples + kill.samples)
        out = bv.dealias(mixed)
        assert np.max(np.abs(out.samples - keep.samples)) < 1e-13

    def test_idempotent(self, grid_small):
        f = band_limited(grid_small, [(400, 1.0, 2.0), (5, 1.0, 0.0)])
        once = bv.dealias(f)
        twice = bv.dealias(once)
        assert np.max(np.abs(once.samples - twice.samples)) < 1e-13


class TestQuadrature:
    def test_gaussian_mass(self, grid_medium):
        x = grid_medium.coords
        f = Field(grid_medium, np.exp(-(x * x)))
        total = grid_medium.spacing * float(np.sum(f.samples))
        assert total == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_l2_norm_of_gaussian(self, grid_medium):
        x = grid_medium.coords
        f = Field(grid_medium, np.exp(-(x * x)))
        assert bv.l2_norm(f) == pytest.approx(
            (math.pi / 2.0) ** 0.25, rel=1e-12
        )


class TestFourierL1:
    def test_bump_window_mass_is_two_pi(self, grid_medium):
        got = bv.fourier_l1_deriv(window_prime(grid_medium, 1.0))
        assert got == pytest.approx(2.0 * math.pi, rel=1e-4)

    def test_decays_with_window_scale(self, grid_medium):
        v1 = bv.fourier_l1_deriv(window_prime(grid_medium, 1.0))
        v100 = bv.fourier_l1_deriv(window_prime(grid_medium, 100.0))
        assert v1 / v100 >= 7.0

    def test_constant_gives_zero(self, grid_small):
        f = Field(grid_small, np.full(grid_small.n, 3.7))
        assert bv.fourier_l1_deriv(f) == 0.0


class TestReflect:
    def test_involution(self, grid_small):
        f = band_limited(grid_small, [(3, 1.0, -2.0), (8, 0.5, 0.5)])
        back = reflect(reflect(f))
        assert np.array_equal(back.samples, f.samples)

    def test_moves_offset_gaussian(self, grid_small):
        x = grid_small.coords
        f = Field(grid_small, np.exp(-((x - 30.0) ** 2)))
        r = reflect(f)
        want = np.exp(-((x + 30.0) ** 2))
        assert np.max(np.abs(r.samples - want)) < 1e-12

    def test_anticommutes_with_hilbert(self, grid_small):
        f = band_limited(grid_small, [(2, 1.0, 0.3), (11, -0.6, 0.0)])
        a = reflect(bv.hilbert(f))
        b = bv.hilbert(reflect(f))
        assert np.max(np.abs(a.samples + b.samples)) < 1e-12
