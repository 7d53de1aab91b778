"""Corpus determinism, commutator algebra, and inequality calibration."""

import numpy as np
import pytest

import bovirial as bv
from bovirial.inequality_harness import (
    DEFAULT_LAMBDAS,
    TAGS,
    Corpus,
    build_corpus,
    calibrate,
    check_comm,
    check_key,
    check_km1,
    check_km2,
    commutator_half,
    run_check,
)
from bovirial.spectral_core import Field
from bovirial.virial_diagnostics import window_prime

from conftest import CORPUS_SEED, FROZEN_CONSTANTS


class TestCorpus:
    def test_size_and_unique_labels(self, corpus):
        assert len(corpus.entries) == 32
        assert len(set(corpus.labels)) == 32

    def test_deterministic_rebuild(self, grid_small, corpus):
        again = build_corpus(grid_small, seed=CORPUS_SEED)
        for a, b in zip(corpus.entries, again.entries):
            assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_random_entries(self, grid_small, corpus):
        other = build_corpus(grid_small, seed=CORPUS_SEED + 1)
        first = dict(zip(corpus.labels, corpus.entries))
        second = dict(zip(other.labels, other.entries))
        assert not np.array_equal(first["rand00"].samples,
                                  second["rand00"].samples)
        # deterministic entries do not depend on the seed
        assert np.array_equal(first["gauss0"].samples,
                              second["gauss0"].samples)

    def test_random_entries_normalized(self, corpus):
        for label, f in zip(corpus.labels, corpus.entries):
            if label.startswith("rand"):
                assert bv.l2_norm(f) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_mismatched_labels(self, grid_small):
        f = bv.zeros(grid_small)
        with pytest.raises(ValueError):
            Corpus(entries=(f,), labels=("a", "b"))

    def test_rejects_duplicate_labels(self, grid_small):
        f = bv.zeros(grid_small)
        with pytest.raises(ValueError):
            Corpus(entries=(f, f), labels=("a", "a"))


class TestCommutator:
    def test_zero_field_gives_zero(self, grid_small):
        w = window_prime(grid_small, 1.0)
        out = commutator_half(w, bv.zeros(grid_small))
        assert bv.l2_norm(out) == 0.0

    def test_constant_weight_commutes(self, grid_small):
        w = Field(grid_small, np.full(grid_small.n, 2.0))
        x = grid_small.coords
        u = Field(grid_small, np.exp(-(x * x) / 16.0))
        out = commutator_half(w, u)
        assert bv.l2_norm(out) < 1e-12

    def test_bilinear_in_field(self, grid_small, corpus):
        w = window_prime(grid_small, 2.0)
        u = corpus.entries[0]
        v = corpus.entries[1]
        uv = Field(grid_small, u.samples + v.samples)
        lhs = commutator_half(w, uv, dealias=False)
        rhs = commutator_half(w, u, dealias=False).samples + \
            commutator_half(w, v, dealias=False).samples
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs.samples - rhs)) < 1e-10 * scale

    def test_homogeneous_degree_one(self, grid_small, corpus):
        w = window_prime(grid_small, 1.0)
        u = corpus.entries[2]
        u3 = Field(grid_small, 3.0 * u.samples)
        a = commutator_half(w, u3)
        b = commutator_half(w, u)
        assert np.max(np.abs(a.samples - 3.0 * b.samples)) < 1e-12


class TestChecks:
    def test_zero_input_rejected(self, grid_small):
        z = bv.zeros(grid_small)
        for fn in (check_km1, check_km2, check_key):
            with pytest.raises(ValueError):
                fn(z, 1.0)
        with pytest.raises(ValueError):
            check_comm(bv.zeros(grid_small), z)

    def test_km1_lhs_keeps_the_signed_quadrature(self, grid_small, corpus):
        # the one-sided bound only constrains positive values, so the
        # recorded lhs must be the raw signed integral, never a magnitude
        from bovirial.virial_diagnostics import phi_prime

        g = grid_small
        for f in corpus.entries[:6]:
            hdx = bv.hilbert(bv.deriv(f))
            raw = g.spacing * float(
                np.sum(hdx.samples * f.samples * phi_prime(g.coords / 5.0))
            )
            rep = check_km1(f, 5.0)
            assert rep.lhs == pytest.approx(raw, rel=1e-12)
            assert rep.ratio == pytest.approx(rep.lhs / rep.rhs_unit, rel=1e-12)

    def test_km2_lhs_is_magnitude_of_indefinite_form(self, grid_small, corpus):
        # the raw integral changes sign across the corpus; the recorded
        # lhs folds it to a magnitude
        from bovirial.virial_diagnostics import phi

        g = grid_small
        raws = []
        for f in corpus.entries:
            df = bv.deriv(f)
            hdf = bv.hilbert(df)
            raw = g.spacing * float(
                np.sum(hdf.samples * df.samples * phi(g.coords / 5.0))
            )
            raws.append(raw)
            assert check_km2(f, 5.0).lhs == pytest.approx(abs(raw), rel=1e-12)
        assert min(raws) < 0.0 < max(raws)

    def test_comm_degenerate_weight_reports_zero(self, grid_small, corpus):
        w = bv.zeros(grid_small)
        u = corpus.entries[0]
        with pytest.raises(ValueError):
            check_comm(w, u)

    def test_key_scale_invariance_exact(self, corpus):
        u = corpus.entries[4]
        scaled = Field(u.grid, 7.0 * u.samples)
        r1 = check_key(u, 5.0).ratio
        r2 = check_key(scaled, 5.0).ratio
        assert abs(r1 - r2) <= 1e-12 * abs(r1)

    def test_comm_scale_invariance_exact(self, grid_small, corpus):
        w = window_prime(grid_small, 1.0)
        u = corpus.entries[5]
        scaled = Field(u.grid, 3.0 * u.samples)
        r1 = check_comm(w, u).ratio
        r2 = check_comm(w, scaled).ratio
        assert abs(r1 - r2) <= 1e-12 * abs(r1)

    def test_dispatch_matches_direct_calls(self, corpus):
        f = corpus.entries[6]
        direct = check_km2(f, 20.0)
        via = run_check("KM2", f, 20.0, input_id="x")
        assert via.lhs == direct.lhs
        assert via.rhs_unit == direct.rhs_unit
        assert via.input_id == "x"

    def test_dispatch_rejects_unknown_tag(self, corpus):
        with pytest.raises(ValueError):
            run_check("NOPE", corpus.entries[0], 1.0)


class TestCalibration:
    def test_rejects_empty_scales(self, corpus):
        with pytest.raises(ValueError):
            calibrate(corpus, "KM2", [])

    def test_deterministic(self, corpus):
        a = calibrate(corpus, "KEY", DEFAULT_LAMBDAS)
        b = calibrate(corpus, "KEY", DEFAULT_LAMBDAS)
        assert a == b

    def test_all_zero_corpus_degenerates_to_zero(self, grid_small):
        z = Corpus(entries=(bv.zeros(grid_small),), labels=("z",))
        with pytest.warns(UserWarning):
            assert calibrate(z, "KM1", [1.0]) == 0.0

    @pytest.mark.parametrize("tag", TAGS)
    def test_frozen_constants_hold(self, corpus, tag):
        sup = calibrate(corpus, tag, DEFAULT_LAMBDAS)
        assert sup <= FROZEN_CONSTANTS[tag]

    @pytest.mark.parametrize("tag", ["KM2", "COMM", "KEY"])
    def test_scale_subset_stability(self, corpus, tag):
        # the supremum is insensitive to enlarging the sweep for the
        # checks whose ratios do not trend with the window scale
        small = calibrate(corpus, tag, [1.0, 10.0])
        large = calibrate(corpus, tag, [1.0, 10.0, 100.0])
        assert large <= small * 1.05

    def test_km1_supremum_tracks_window_scale(self, corpus):
        # measured fact on the frozen corpus: the KM1 ratio grows roughly
        # linearly in the window scale (the weighted pairing tends to
        # ||D^(1/2) f||^2 while the unit right side shrinks like 1/lam),
        # so the sweep supremum is set by the largest lambda
        lo = calibrate(corpus, "KM1", [1.0])
        hi = calibrate(corpus, "KM1", [100.0])
        assert hi > 50.0 * lo

    def test_every_ratio_below_frozen_constant(self, corpus):
        for tag in TAGS:
            for label, f in zip(corpus.labels, corpus.entries):
                for lam in DEFAULT_LAMBDAS:
                    rep = run_check(tag, f, lam, input_id=label)
                    assert rep.ratio <= FROZEN_CONSTANTS[tag], (
                        f"{tag} on {label} at lam={lam}"
                    )
