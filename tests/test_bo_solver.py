"""Solver behavior: stepping, conservation, traveling waves, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bovirial as bv
from bovirial.bo_solver import BlowupError, SolitonParams, _iter_stack, _Plan, _relative_residual
from bovirial.spectral_core import Field


def gaussian(grid, amplitude=1.0, width=1.0, center=0.0):
    x = grid.coords
    return Field(grid, amplitude * np.exp(-(((x - center) / width) ** 2)))


def reflect(f):
    """Spatial reflection x -> -x on the periodic grid (index 0 fixed)."""
    g = f.grid
    return Field(g, f.samples[(g.n - np.arange(g.n)) % g.n])


def profile_residual_spectral(p, grid):
    """profile_residual with H Q' computed by the discrete multiplier."""
    q = bv.soliton_profile(p, grid)
    return _relative_residual(q, bv.hilbert(bv.deriv(q)).samples, p.speed)


class TestConfig:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            bv.SolverConfig(dt=0.0, t0=2.0, t_end=3.0)

    def test_rejects_backward_span(self):
        with pytest.raises(ValueError):
            bv.SolverConfig(dt=0.1, t0=3.0, t_end=2.0)

    def test_rejects_fractional_record_stride(self):
        with pytest.raises(ValueError):
            bv.SolverConfig(dt=0.1, t0=2.0, t_end=3.0, record_every=0)

    def test_stability_guard(self, grid_small):
        # bound is dt <= L / (pi n)
        limit = grid_small.length / (math.pi * grid_small.n)
        ok = bv.SolverConfig(dt=0.9 * limit, t0=2.0, t_end=2.0 + 9.0 * limit)
        bad = bv.SolverConfig(dt=1.1 * limit, t0=2.0, t_end=2.0 + 11.0 * limit)
        bv.check_stability(ok, grid_small)
        with pytest.raises(ValueError):
            bv.check_stability(bad, grid_small)


class TestTrajectory:
    def test_record_times_are_exact_multiples(self, grid_small):
        u0 = gaussian(grid_small, 0.3, 5.0)
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.02, record_every=5)
        states = bv.run_trajectory(u0, cfg)
        assert [s.t for s in states] == [cfg.t0 + k * cfg.dt for k in (0, 5, 10, 15, 20)]

    def test_rejects_dt_that_does_not_tile_span(self, grid_small):
        with pytest.raises(ValueError):
            bv.SolverConfig(dt=3e-3, t0=2.0, t_end=2.01)

    def test_first_state_is_u0_bit_for_bit(self, grid_small):
        u0 = gaussian(grid_small, 0.3, 5.0)
        first = bv.run_trajectory(u0, bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.01))[0]
        assert first.t == 2.0 and first.u.samples.tobytes() == u0.samples.tobytes()

    def test_unstable_dt_raises_before_the_first_state(self, grid_small):
        # u0 is yielded before any step is taken, so the check cannot wait for one
        limit = grid_small.length / (math.pi * grid_small.n)
        bad = bv.SolverConfig(dt=1.1 * limit, t0=2.0, t_end=2.0 + 11.0 * limit)
        with pytest.raises(ValueError, match="stability bound"):
            next(bv.iter_trajectory(gaussian(grid_small, 0.3, 5.0), bad))

    def test_one_step_quotient_converges_to_rhs(self, gaussian_small):
        # the integrator and bo_rhs build the same flux, so the forward
        # difference quotient of one step tends to bo_rhs(u0) at first order
        u0 = gaussian_small
        want = bv.bo_rhs(u0).samples

        def sup_error(dt):
            cfg = bv.SolverConfig(dt=dt, t0=2.0, t_end=2.0 + dt)
            u1 = bv.run_trajectory(u0, cfg)[-1].u.samples
            return np.max(np.abs((u1 - u0.samples) / dt - want))

        e1, e2, e3 = (sup_error(dt) for dt in (1e-3, 5e-4, 2.5e-4))
        assert e1 < 1e-4
        assert e1 / e2 == pytest.approx(2.0, rel=0.05)
        assert e2 / e3 == pytest.approx(2.0, rel=0.05)

    def test_final_state_always_recorded(self, grid_small):
        u0 = gaussian(grid_small, 0.3, 5.0)
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.007, record_every=5)
        states = bv.run_trajectory(u0, cfg)
        assert [s.t for s in states] == [cfg.t0 + k * cfg.dt for k in (0, 5, 7)]

    def test_mass_and_l2_conserved(self, budget_states):
        first, last = budget_states[0], budget_states[-1]
        i1a = bv.invariants(first.u)
        i1b = bv.invariants(last.u)
        assert abs(i1b[0] - i1a[0]) < 1e-12
        assert abs(i1b[1] - i1a[1]) / i1a[1] < 1e-12

    def test_cubic_energy_combination_conserved(self, budget_states):
        a = bv.conserved_energy(budget_states[0].u)
        b = bv.conserved_energy(budget_states[-1].u)
        assert abs(b - a) < 1e-11 * max(1.0, abs(a))

    def test_printed_energy_drifts_on_generic_data(self, gaussian_small):
        # the E reported by invariants() mixes the quadratic and cubic
        # terms with weights the flow does not preserve; its drift on a
        # generic field dwarfs the drift of the conserved combination
        cfg = bv.SolverConfig(dt=1e-3, t0=10.0, t_end=11.0, record_every=1000)
        states = bv.run_trajectory(gaussian_small, cfg)
        e_first = bv.invariants(states[0].u)[2]
        e_last = bv.invariants(states[-1].u)[2]
        cons_first = bv.conserved_energy(states[0].u)
        cons_last = bv.conserved_energy(states[-1].u)
        assert abs(e_last - e_first) > 1e-4
        assert abs(cons_last - cons_first) < 1e-10

    def test_linear_flow_is_isometric(self, grid_small):
        # the solver's exact linear propagator, applied alone step by step
        u0 = gaussian(grid_small, 0.5, 3.0)
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.5, record_every=500)
        e_full = _Plan(grid_small, cfg.dt, (grid_small.n // 2 + 1,)).e_full
        vh = np.fft.rfft(u0.samples)
        for _ in range(cfg.n_steps):
            vh = e_full * vh
        a = bv.l2_norm(u0)
        b = bv.l2_norm(Field(grid_small, np.fft.irfft(vh, grid_small.n)))
        assert b == pytest.approx(a, rel=1e-13)

    def test_reverse_by_reflection_returns_start(self, grid_small):
        # reflecting in x conjugates the flow to its time reverse, so
        # forward-reflect-forward-reflect must reproduce the initial data
        u0 = gaussian(grid_small, 0.4, 4.0, center=10.0)
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.1)
        fwd = bv.run_trajectory(u0, cfg)[-1].u
        back = bv.run_trajectory(reflect(fwd), cfg)[-1].u
        restored = reflect(back)
        assert np.max(np.abs(restored.samples - u0.samples)) < 1e-8

    def test_fourth_order_in_time(self):
        g = bv.make_grid(512, 100.0)
        u0 = gaussian(g, 2.0, 1.0)

        def final(dt):
            cfg = bv.SolverConfig(dt=dt, t0=2.0, t_end=3.0,
                                  record_every=10 ** 9)
            return bv.run_trajectory(u0, cfg)[-1].u.samples

        ref = final(1.0 / 6400.0)
        e1 = np.max(np.abs(final(1.0 / 100.0) - ref))
        e2 = np.max(np.abs(final(1.0 / 200.0) - ref))
        assert e1 / e2 == pytest.approx(16.0, rel=0.3)

    def test_scale_covariance_is_exact(self):
        # BO maps u(x, t) to 2u(2x, 4t). Halving L at fixed n samples u0(2x)
        # at the same indices, and every power of two scales exactly, so the
        # scaled run must reproduce twice the original bit for bit. A wrong
        # power of xi, L or dt in the symbols, the propagator or the flux
        # breaks it; a wrong constant factor does not.
        g, g_half = bv.make_grid(1024, 400.0), bv.make_grid(1024, 200.0)
        u0 = gaussian(g, 1.0, 3.0, center=10.0)
        run = bv.run_trajectory(u0, bv.SolverConfig(dt=0.01, t0=2.0, t_end=4.0,
                                                    record_every=50))
        scaled = bv.run_trajectory(Field(g_half, 2.0 * u0.samples),
                                   bv.SolverConfig(dt=0.0025, t0=0.5, t_end=1.0,
                                                   record_every=50))
        assert len(run) == len(scaled) == 5
        for a, b in zip(run, scaled):
            assert 4.0 * b.t == a.t
            assert np.array_equal(b.u.samples, 2.0 * a.u.samples)
            i1, i2, _, _ = bv.invariants(a.u)
            j1, j2, _, _ = bv.invariants(b.u)
            assert (j1, j2) == (i1, 2.0 * i2)

    def test_blowup_raises_with_context(self, grid_small):
        u0 = gaussian(grid_small, 1e120, 2.0)
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=3.0, record_every=10)
        with pytest.raises(BlowupError) as err:
            bv.run_trajectory(u0, cfg)
        assert err.value.t > 2.0
        assert err.value.step >= 1


class TestStack:
    def test_stacked_advance_matches_rows_bit_for_bit(self, grid_small):
        rows = [np.fft.rfft(gaussian(grid_small, a, w, c).samples)
                for a, w, c in ((0.5, 4.0, 0.0), (-1.0, 2.0, 30.0), (2.0, 8.0, -50.0))]
        stack = np.array(rows)
        plan, lone = _Plan(grid_small, 0.01, stack.shape), _Plan(grid_small, 0.01, rows[0].shape)
        for _ in range(200):
            stack = plan.advance(stack)
            rows = [lone.advance(vh) for vh in rows]
        assert stack.shape == (3, grid_small.n // 2 + 1)
        assert all(np.array_equal(stack[i], rows[i]) for i in range(3))

    def test_stack_records_match_lone_runs(self, grid_small):
        # the middle member's spectrum stops being finite and it rides the
        # stack on; each record after t0 is (t, the stack's half spectra),
        # and the other two rows stay bit for bit their lone runs' states,
        # after the blowup too: a non-finite row leaks into no other
        fields = [gaussian(grid_small, 0.5, 4.0), gaussian(grid_small, 1e120, 2.0),
                  gaussian(grid_small, -0.3, 6.0, 20.0)]
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.1, record_every=10)
        records = list(_iter_stack(fields, cfg))
        assert len(records) == 10
        assert all(vh.shape == (3, grid_small.n // 2 + 1) for _, vh in records)
        for i in (0, 2):
            alone = bv.run_trajectory(fields[i], cfg)
            assert [t for t, _ in records] == [st.t for st in alone[1:]]
            assert all(np.array_equal(np.fft.irfft(vh[i], grid_small.n), st.u.samples)
                       for (_, vh), st in zip(records, alone[1:]))
        with pytest.raises(BlowupError) as alone:
            bv.run_trajectory(fields[1], cfg)
        # the first non-finite record is the lone run's blowup, and later
        # records exist in which the other rows were checked above
        finite = [bool(np.isfinite(vh[1]).all()) for _, vh in records]
        cut = finite.index(False)
        assert cut < len(records) - 1
        t, _ = records[cut]
        assert (t, cfg.record_every * (cut + 1)) == (alone.value.t, alone.value.step)

    def test_wide_stack_matches_lone_runs_bit_for_bit(self):
        # a lone spectrum at n = 32768 has 16,385 modes, 256 KiB, the size from
        # which numpy reuses a temporary in place and so may swap a product's
        # operands; a stack's rows must still keep their lone runs' bits
        g = bv.make_grid(32768, 400.0)
        fields = [gaussian(g, 0.3, 10.0), gaussian(g, 0.25, 10.0, 5.0)]
        cfg = bv.SolverConfig(dt=1e-3, t0=30.0, t_end=30.004, record_every=2)
        stacked = list(_iter_stack(fields, cfg))
        assert len(stacked) == 2
        for i, field in enumerate(fields):
            alone = list(_iter_stack([field], cfg))
            assert [t for t, _ in alone] == [t for t, _ in stacked]
            assert all(np.array_equal(vh[i], lone[0])
                       for (_, vh), (_, lone) in zip(stacked, alone))

    def test_stack_on_two_grids_rejected(self, grid_small, grid_medium):
        cfg = bv.SolverConfig(dt=1e-3, t0=2.0, t_end=2.1)
        with pytest.raises(ValueError, match="different grids"):
            next(_iter_stack([gaussian(grid_small), gaussian(grid_medium)], cfg))


class TestInvariants:
    def test_zero_field(self, grid_small):
        i1, i2, e, l1 = bv.invariants(Field(grid_small, np.zeros(grid_small.n)))
        assert (i1, i2, e, l1) == (0.0, 0.0, 0.0, 0.0)

    def test_l1_of_gaussian(self, grid_medium):
        u = gaussian(grid_medium, 2.0, 1.0)
        l1 = bv.invariants(u)[3]
        assert l1 == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=4.0))
    def test_scaling_degrees(self, theta):
        g = bv.make_grid(256, 100.0)
        u = gaussian(g, 1.0, 2.0)
        ua = Field(g, theta * u.samples)
        i1, i2, _, l1 = bv.invariants(u)
        j1, j2, _, m1 = bv.invariants(ua)
        assert j1 == pytest.approx(theta * i1, rel=1e-12)
        assert j2 == pytest.approx(theta * theta * i2, rel=1e-12)
        assert m1 == pytest.approx(theta * l1, rel=1e-12)


class TestSolitonFamily:
    def test_classical_field_peak_and_width(self):
        # amplitude-4c convention: c = 2 centered at 5 peaks at 8 and has
        # half-maximum width 1
        g = bv.make_grid(4096, 400.0)
        classical = SolitonParams(amplitude=8.0, scale=2.0, center=5.0, speed=2.0)
        f = bv.soliton_profile(classical, g)
        x = g.coords
        i = int(np.argmax(f.samples))
        # the peak value 8 sits between samples; the sampled max matches
        # the closed form at the nearest grid point exactly
        assert f.samples[i] == pytest.approx(
            8.0 / (1.0 + 4.0 * (x[i] - 5.0) ** 2), rel=1e-12
        )
        assert f.samples[i] == pytest.approx(8.0, rel=2e-2)
        assert x[i] == pytest.approx(5.0, abs=g.spacing)
        above = x[f.samples >= 4.0]
        assert above[-1] - above[0] == pytest.approx(1.0, abs=2 * g.spacing)

    def test_certified_params_returned_validated(self, grid_medium):
        p = bv.soliton(1.5, 0.0, grid_medium)
        assert p.amplitude == -3.0
        assert p.scale == 1.5
        assert p.speed == -1.5

    def test_rejects_too_wide_profile(self):
        g = bv.make_grid(256, 100.0)
        with pytest.raises(ValueError, match=r"^profile too wide for the grid: width 1/c = 10 "
                                             r"exceeds length/20 = 5$"):
            bv.soliton(0.1, 0.0, g)  # width 10 > L/20

    def test_rejects_profile_narrower_than_a_grid_cell(self):
        g = bv.make_grid(256, 128.0)
        assert bv.soliton(2.0, 0.0, g).scale == 2.0  # width 1/c = L/n = 0.5
        with pytest.raises(ValueError, match=r"^profile too narrow for the grid: width 1/c = 0\.4 "
                                             r"is below length/n = 0\.5$"):
            bv.soliton(2.5, 0.0, g)

    def test_certified_residual_at_machine_level(self, grid_medium):
        for b in (0.5, 1.0, 2.0, 4.0):
            p = SolitonParams(amplitude=-2.0 * b, scale=b, center=0.0, speed=-b)
            assert bv.profile_residual(p, grid_medium) < 1e-12

    def test_classical_residual_is_order_one(self, grid_medium):
        p = SolitonParams(amplitude=4.0, scale=1.0, center=0.0, speed=1.0)
        r = bv.profile_residual(p, grid_medium)
        assert r == pytest.approx(math.sqrt(8.5), rel=1e-4)

    def test_zero_profile_residual_is_zero(self, grid_medium):
        p = SolitonParams(amplitude=0.0, scale=1.0, center=0.0, speed=1.0)
        assert bv.profile_residual(p, grid_medium) == 0.0

    def test_spectral_route_agrees_to_periodization_floor(self, grid_medium):
        p = SolitonParams(amplitude=-2.0, scale=1.0, center=0.0, speed=-1.0)
        r = profile_residual_spectral(p, grid_medium)
        assert r < 1e-2

    def test_rhs_matches_translation_of_certified_profile(self):
        # u(x, t) = Q(x - st) gives du/dt = -s Q', so the right side
        # -d/dx(H Q' + Q^2) must cancel speed * Q' up to tail effects; the
        # undealiased form from the primitives meets the tighter bound, the
        # library's 2/3-rule truncation adds its own small share
        g = bv.make_grid(8192, 800.0)
        p = bv.soliton(1.0, 0.0, g)
        q = bv.soliton_profile(p, g)
        shift = p.speed * bv.deriv(q).samples
        rhs = (-bv.deriv(bv.hilbert(bv.deriv(q))).samples
               - bv.deriv(Field(g, q.samples ** 2)).samples)
        assert bv.l2_norm(Field(g, rhs + shift)) < 1e-6
        assert bv.l2_norm(Field(g, bv.bo_rhs(q).samples + shift)) < 2e-6

    def test_certified_wave_translates_under_flow(self):
        g = bv.make_grid(1024, 200.0)
        p = bv.soliton(1.0, -5.0, g)
        u0 = bv.soliton_profile(p, g)
        cfg = bv.SolverConfig(dt=5e-3, t0=2.0, t_end=4.0, record_every=400)
        states = bv.run_trajectory(u0, cfg)
        x_start = g.coords[int(np.argmin(states[0].u.samples))]
        x_end = g.coords[int(np.argmin(states[-1].u.samples))]
        # speed -c: the trough moves left by c * elapsed
        assert x_end - x_start == pytest.approx(-2.0, abs=2 * g.spacing)

    def test_shape_preserved_under_flow(self):
        g = bv.make_grid(1024, 200.0)
        p = bv.soliton(1.0, 0.0, g)
        u0 = bv.soliton_profile(p, g)
        cfg = bv.SolverConfig(dt=5e-3, t0=2.0, t_end=4.0, record_every=400)
        final = bv.run_trajectory(u0, cfg)[-1].u
        shifted = SolitonParams(amplitude=p.amplitude, scale=p.scale,
                                center=p.center + p.speed * 2.0,
                                speed=p.speed)
        want = bv.soliton_profile(shifted, g)
        assert np.max(np.abs(final.samples - want.samples)) < 1e-4


class TestGrowthFit:
    def test_flat_on_traveling_wave(self):
        g = bv.make_grid(1024, 200.0)
        p = bv.soliton(1.0, 0.0, g)
        u0 = bv.soliton_profile(p, g)
        cfg = bv.SolverConfig(dt=5e-3, t0=2.0, t_end=25.0, record_every=200)
        states = bv.run_trajectory(u0, cfg)
        recs = [bv.diag_record(s.u, s.t, bv.WeightSchedule(a=0.0)) for s in states]
        slope = bv.l1_growth_fit(recs)
        assert abs(slope) < 0.05

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_recovers_exponent_of_exact_power(self, p):
        # L1 = <t>^p exactly on 20 records spread geometrically over t in
        # [2, 200]: the fit is the slope against log <t>, not log t or a
        # shifted bracket, so it returns p up to rounding
        recs = [bv.DiagRecord(t=float(t), I1=1.0, I2=1.0, E=1.0, L1=(1.0 + t * t) ** (p / 2),
                              F=1.0, lam=1.0) for t in np.geomspace(2.0, 200.0, 20)]
        assert abs(bv.l1_growth_fit(recs) - p) <= 1e-12

    def test_requires_enough_records(self):
        recs = [bv.DiagRecord(t=2.0 + k, I1=1.0, I2=1.0, E=1.0, L1=1.0,
                              F=1.0, lam=1.0) for k in range(5)]
        with pytest.raises(ValueError):
            bv.l1_growth_fit(recs)

    def test_requires_decade_of_time(self):
        recs = [bv.DiagRecord(t=2.0 + 0.1 * k, I1=1.0, I2=1.0, E=1.0,
                              L1=1.0, F=1.0, lam=1.0) for k in range(12)]
        with pytest.raises(ValueError):
            bv.l1_growth_fit(recs)
