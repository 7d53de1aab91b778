"""Corpus determinism, commutator algebra, and inequality calibration."""

import numpy as np
import pytest

import bovirial as bv
from bovirial.inequality_harness import (
    DEFAULT_LAMBDAS,
    TAGS,
    Corpus,
    build_corpus,
    _commutator,
    calibrate,
    lemma_table,
    run_check,
)
from bovirial.spectral_core import Field, frac_deriv
from bovirial.virial_diagnostics import window_prime

from conftest import CORPUS_SEED, FROZEN_CONSTANTS


def zeros(grid):
    return Field(grid, np.zeros(grid.n))


def commutator_half(phi_w, u):
    """D^{1/2}(D^{1/2}(phi_w u) - phi_w D^{1/2}u) for any sampled weight."""
    return _commutator(phi_w, u, frac_deriv(u, 0.5))


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
        f = zeros(grid_small)
        with pytest.raises(ValueError):
            Corpus(entries=(f,), labels=("a", "b"))

    def test_rejects_duplicate_labels(self, grid_small):
        f = zeros(grid_small)
        with pytest.raises(ValueError):
            Corpus(entries=(f, f), labels=("a", "a"))

    def test_rejects_entries_of_two_grids(self, grid_small):
        # one (n, L) per corpus, so every window fits every entry; a second
        # Grid object of the same (n, L) is the same grid
        same = bv.make_grid(grid_small.n, grid_small.length)
        Corpus(entries=(zeros(grid_small), zeros(same)), labels=("a", "b"))
        for other in (bv.make_grid(512, 400.0), bv.make_grid(1024, 200.0)):
            with pytest.raises(ValueError, match="share one grid"):
                Corpus(entries=(zeros(grid_small), zeros(other)), labels=("a", "b"))


class TestCommutator:
    def test_zero_field_gives_zero(self, grid_small):
        w = window_prime(grid_small, 1.0)
        out = commutator_half(w, zeros(grid_small))
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
        lhs = commutator_half(w, uv)
        rhs = commutator_half(w, u).samples + commutator_half(w, v).samples
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
        z = zeros(grid_small)
        for tag in TAGS:
            with pytest.raises(ValueError):
                run_check(tag, z, 1.0)

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
            rep = run_check("KM1", f, 5.0)
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
            assert run_check("KM2", f, 5.0).lhs == pytest.approx(abs(raw), rel=1e-12)
        assert min(raws) < 0.0 < max(raws)

    def test_comm_rejects_a_weight_flat_on_the_grid(self, corpus):
        # at lam = 1e300 the weight phi'(x/lam) is 1 on every grid point, so
        # ||(phi')^'||_1 = 0 and COMM had no ratio; the scale is above L/2
        with pytest.raises(ValueError, match=r"lam = 1e\+300 is outside \[L/n, L/2\] = "
                                             r"\[0\.390625, 200\]"):
            run_check("COMM", corpus.entries[0], 1e300)

    @pytest.mark.parametrize("lam", [1e-300, 0.39, 200.5, 1e300])
    def test_scale_outside_the_grid_rejected_by_every_check(self, corpus, lam):
        # (1024, 400) resolves window scales from L/n = 0.390625 to L/2 = 200
        for tag in TAGS:
            with pytest.raises(ValueError, match=r"is outside \[L/n, L/2\]"):
                run_check(tag, corpus.entries[0], lam)
        with pytest.raises(ValueError, match=r"is outside \[L/n, L/2\]"):
            lemma_table(corpus, [1.0, lam])

    def test_scales_at_the_bounds_accepted(self, grid_small, corpus):
        sub = Corpus(corpus.entries[:4] + corpus.entries[20:24],
                     corpus.labels[:4] + corpus.labels[20:24])
        for rep in lemma_table(sub, [grid_small.spacing, grid_small.length / 2.0]):
            assert rep.rhs_unit > 0.0 and np.isfinite(rep.ratio), rep

    def test_key_scale_invariance_exact(self, corpus):
        u = corpus.entries[4]
        scaled = Field(u.grid, 7.0 * u.samples)
        r1 = run_check("KEY", u, 5.0).ratio
        r2 = run_check("KEY", scaled, 5.0).ratio
        assert abs(r1 - r2) <= 1e-12 * abs(r1)

    def test_comm_scale_invariance_exact(self, corpus):
        u = corpus.entries[5]
        scaled = Field(u.grid, 3.0 * u.samples)
        r1 = run_check("COMM", u, 1.0).ratio
        r2 = run_check("COMM", scaled, 1.0).ratio
        assert abs(r1 - r2) <= 1e-12 * abs(r1)

    def test_dispatch_matches_direct_calls(self, corpus):
        f = corpus.entries[6]
        rows = lemma_table(Corpus((f,), ("x",)), [20.0])
        via = run_check("KM2", f, 20.0, input_id="x")
        assert via == next(r for r in rows if r.tag == "KM2")
        assert via.input_id == "x"

    def test_dispatch_rejects_unknown_tag(self, corpus):
        with pytest.raises(ValueError):
            run_check("NOPE", corpus.entries[0], 1.0)


class TestCalibration:
    def test_rejects_empty_scales(self, corpus):
        with pytest.raises(ValueError):
            calibrate(lemma_table(corpus, []), "KM2")

    def test_deterministic(self, corpus):
        a = calibrate(lemma_table(corpus, DEFAULT_LAMBDAS), "KEY")
        b = calibrate(lemma_table(corpus, DEFAULT_LAMBDAS), "KEY")
        assert a == b

    def test_all_zero_corpus_rejected(self, grid_small):
        # the same rule as check-lemmas: run_check refuses a zero input field
        z = Corpus(entries=(zeros(grid_small),), labels=("z",))
        with pytest.raises(ValueError, match="zero input field"):
            calibrate(lemma_table(z, [1.0]), "KM1")

    @pytest.mark.parametrize("tag", TAGS)
    def test_frozen_constants_hold(self, corpus, tag):
        sup = calibrate(lemma_table(corpus, DEFAULT_LAMBDAS), tag)
        assert sup <= FROZEN_CONSTANTS[tag]

    @pytest.mark.parametrize("tag", ["KM2", "COMM", "KEY"])
    def test_scale_subset_stability(self, corpus, tag):
        # the supremum is insensitive to enlarging the sweep for the
        # checks whose ratios do not trend with the window scale
        small = calibrate(lemma_table(corpus, [1.0, 10.0]), tag)
        large = calibrate(lemma_table(corpus, [1.0, 10.0, 100.0]), tag)
        assert large <= small * 1.05

    def test_km1_supremum_tracks_window_scale(self, corpus):
        # measured fact on the frozen corpus: the KM1 ratio grows roughly
        # linearly in the window scale (the weighted pairing tends to
        # ||D^(1/2) f||^2 while the unit right side shrinks like 1/lam),
        # so the sweep supremum is set by the largest lambda
        lo = calibrate(lemma_table(corpus, [1.0]), "KM1")
        hi = calibrate(lemma_table(corpus, [100.0]), "KM1")
        assert hi > 50.0 * lo

    def test_every_ratio_below_frozen_constant(self, corpus):
        for tag in TAGS:
            for label, f in zip(corpus.labels, corpus.entries):
                for lam in DEFAULT_LAMBDAS:
                    rep = run_check(tag, f, lam, input_id=label)
                    assert rep.ratio <= FROZEN_CONSTANTS[tag], (
                        f"{tag} on {label} at lam={lam}"
                    )


def reference_check(tag, f, lam):
    """(lhs, rhs_unit) of one check with every operator its own round trip:
    the op-by-op formulas the one-pass table must reproduce."""
    from bovirial.virial_diagnostics import phi, phi_prime

    g = f.grid
    wp = phi_prime(g.coords / lam)
    quad = g.spacing * float(np.sum(wp * f.samples ** 2)) / lam
    if tag == "KM1":
        return g.spacing * float(np.sum(wp * bv.hilbert(bv.deriv(f)).samples * f.samples)), quad
    if tag == "KM2":
        fx = bv.deriv(f)
        hfx = bv.hilbert(fx).samples
        return abs(g.spacing * float(np.sum(phi(g.coords / lam) * hfx * fx.samples))), quad
    if tag == "COMM":
        def product(a, b):
            return bv.dealias(Field(g, a * b))

        du = bv.frac_deriv(f, 0.5)
        bracket = (bv.frac_deriv(product(wp, f.samples), 0.5).samples
                   - product(wp, du.samples).samples)
        lhs = bv.l2_norm(bv.frac_deriv(Field(g, bracket), 0.5))
        mag = g.spacing * np.abs(np.fft.rfft(bv.deriv(Field(g, wp)).samples))
        l1 = (mag[0] + 2.0 * float(np.sum(mag[1:-1])) + mag[-1]) * 2.0 * np.pi / g.length
        return lhs, l1 * bv.l2_norm(f)
    half = bv.l2_norm(bv.frac_deriv(f, 0.5))
    return (g.spacing * float(np.sum(wp * np.abs(f.samples) ** 3)),
            (bv.l2_norm(f) + half) * quad * lam)


class TestOneSpectralPass:
    """lemma_table builds each entry's legs once (one rfft, then f_x, H f_x
    and D^{1/2}f), each window scale's phi, phi' and ||(phi')^'||_1 once,
    and per pair only COMM's commutator. It must reproduce the op-by-op
    checks, row for row and in the order tag, entry, lambda."""

    @pytest.mark.parametrize("entries, lams", [(1, 1), (3, 1), (1, 4), (3, 4)])
    def test_transforms_per_entry_per_scale_per_pair(self, corpus, transforms, entries, lams):
        sub = Corpus(corpus.entries[:entries], corpus.labels[:entries])
        lemma_table(sub, DEFAULT_LAMBDAS[:lams])
        pairs = entries * lams
        assert transforms == {"rfft": entries + lams + 2 * pairs, "irfft": 3 * entries + pairs}

    def test_window_l1_takes_one_transform(self, grid_small, transforms):
        bv.fourier_l1_deriv(window_prime(grid_small, 5.0))
        assert transforms == {"rfft": 1}

    def test_rows_come_in_tag_entry_lambda_order(self, corpus):
        lams = DEFAULT_LAMBDAS
        assert [(r.tag, r.input_id, r.lam) for r in lemma_table(corpus, lams)] == [
            (tag, label, lam) for tag in TAGS for label in corpus.labels for lam in lams]

    def test_rows_match_single_checks_and_op_by_op_reference(self, grid_small, corpus):
        # white noise fills every mode, Nyquist and the top third included,
        # where the smooth corpus entries carry almost nothing to compare
        noise = Field(grid_small, np.random.default_rng(5).standard_normal(grid_small.n))
        table = Corpus(corpus.entries + (noise,), corpus.labels + ("noise",))
        entries = dict(zip(table.labels, table.entries))
        for rep in lemma_table(table, DEFAULT_LAMBDAS):
            f = entries[rep.input_id]
            # run_check is the table's kernels on one entry and one scale
            assert rep == run_check(rep.tag, f, rep.lam, input_id=rep.input_id)
            lhs, rhs_unit = reference_check(rep.tag, f, rep.lam)
            assert abs(rep.lhs - lhs) <= 1e-12 * rep.rhs_unit, (rep, lhs)
            assert abs(rep.rhs_unit - rhs_unit) <= 1e-12 * rep.rhs_unit, (rep, rhs_unit)

    @pytest.mark.parametrize("tag", TAGS)
    def test_zero_entry_raises_under_every_tag(self, grid_small, tag):
        z = Corpus(entries=(zeros(grid_small),), labels=("z",))
        with pytest.raises(ValueError, match="zero input field"):
            run_check(tag, z.entries[0], 1.0)
        with pytest.raises(ValueError, match="zero input field"):
            lemma_table(z, [1.0])

    def test_calibrate_is_the_table_supremum(self, corpus):
        rows = lemma_table(corpus, DEFAULT_LAMBDAS)
        for tag in TAGS:
            assert calibrate(rows, tag) == max(r.ratio for r in rows if r.tag == tag)
