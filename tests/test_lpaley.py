import numpy as np
import pytest

from lpw.grid import GridFunction, GridSpec, level_index_range, lp_norm
from lpw.lpaley import (
    CoefficientSet,
    LevelError,
    analyze,
    band,
    band_decompose,
    bump_profile,
    calderon_residual,
    from_spectrum,
    lattice_values,
    make_lp_pair,
    partition_sum,
    spectrum,
    synthesize,
    synthesis_profile,
)
from lpw.verify import make_corpus


class TestProfiles:
    def test_bump_support(self):
        rho = np.array([0.0, 0.49, 0.5, 2.0, 2.01, 10.0])
        vals = bump_profile(rho)
        assert np.all(vals[[0, 1, 5]] == 0.0)
        assert vals[2] == 0.0 and vals[3] == 0.0
        assert bump_profile(np.array([0.49999]))[0] == 0.0

    def test_bump_plateau(self):
        rho = np.linspace(0.6, 5.0 / 3.0, 100)
        np.testing.assert_allclose(bump_profile(rho), 1.0, atol=1e-15)

    def test_synthesis_lower_bound_on_plateau(self):
        rho = np.linspace(0.6, 5.0 / 3.0, 1000)
        vals = synthesis_profile(rho)
        assert vals.min() > 0.33  # at most three unit-bounded squares in the sum

    def test_partition_telescopes(self):
        # sum_k bump(r/2^k) * synth(r/2^k) = 1 for any r > 0 once all
        # contributing dilates are included
        r = np.exp(np.linspace(np.log(0.01), np.log(100), 500))
        total = np.zeros_like(r)
        for k in range(-12, 12):
            total += bump_profile(r / 2.0**k) * synthesis_profile(r / 2.0**k)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)


class TestMakePair:
    def test_partition_on_resolved_annulus(self, spec1k, pair1k):
        ps = partition_sum(pair1k)
        rho = spec1k.freq_radius()
        lo, hi = pair1k.annulus()
        mask = (rho >= lo) & (rho <= hi)
        assert mask.sum() > 100
        np.testing.assert_allclose(ps[mask], 1.0, atol=1e-12)

    def test_unresolvable_window_rejected(self, spec1k):
        with pytest.raises(LevelError, match="admissible"):
            make_lp_pair(spec1k, -3, 12)
        with pytest.raises(LevelError):
            make_lp_pair(spec1k, -9, 5)

    def test_plateau_minimum_reported(self, pair1k):
        assert pair1k.plateau_min_phi == pytest.approx(1.0, abs=1e-14)
        assert pair1k.plateau_min_psi > 0.33

    def test_first_active_level(self, spec1k, pair1k):
        # bands below the lowest torus frequency are exact zeros
        assert pair1k.first_active == -2
        assert not np.any(pair1k.phi_mult[-3])

    def test_plateau_min_stable_under_refinement(self, spec1k):
        spec2 = GridSpec(1, spec1k.R, spec1k.N * 2)
        p1 = make_lp_pair(spec1k, -3, 6)
        p2 = make_lp_pair(spec2, -3, 6)
        assert p1.plateau_min_psi == pytest.approx(p2.plateau_min_psi, rel=1e-6)


class TestBand:
    def test_disjoint_spectrum_zero_band(self, spec1k, pair1k):
        # a pure wave at |xi| ~ 2^5 has zero content in the k = 0 band
        j = int(round(2.0**5 / spec1k.fundamental))
        F = np.zeros(spec1k.N, dtype=complex)
        F[j] = 1.0
        F[-j] = 1.0
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        out = band(f, pair1k, 0)
        assert np.abs(out.values).max() <= 1e-12 * np.abs(f.values).max()

    def test_pure_wave_passthrough(self, spec1k, pair1k):
        # a wave with |xi|/2^k on the plateau passes through at the bump max, 1
        j = int(round(2.0**3 / spec1k.fundamental))
        F = np.zeros(spec1k.N, dtype=complex)
        F[j] = 1.0
        F[-j] = 1.0
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        out = band(f, pair1k, 3)
        np.testing.assert_allclose(out.values, f.values, atol=1e-12)

    def test_linearity(self, spec1k, pair1k, corpus1k):
        f, g = corpus1k[0].f, corpus1k[1].f
        added = band(f + g, pair1k, 2)
        np.testing.assert_allclose(
            added.values,
            band(f, pair1k, 2).values + band(g, pair1k, 2).values,
            atol=1e-12,
        )

    def test_out_of_range_level(self, corpus1k, pair1k):
        with pytest.raises(LevelError):
            band(corpus1k[0].f, pair1k, pair1k.k_max + 1)

    def test_band_spectrum_support_exact(self, spec1k, pair1k, corpus1k):
        # the multiplier has exact zeros outside the annulus, so the band
        # spectrum as constructed vanishes there exactly; a sample-side FFT
        # roundtrip only adds rounding noise
        f = corpus1k[0].f
        rho = spec1k.freq_radius()
        F = np.fft.fft(f.values)
        for k in (0, 3, 5):
            B = pair1k.phi_mult[k] * F
            outside = (rho < 2.0 ** (k - 1)) | (rho > 2.0 ** (k + 1))
            assert np.all(B[outside] == 0.0)
            roundtrip = spectrum(band(f, pair1k, k))
            assert np.abs(roundtrip[outside]).max() <= 1e-13 * np.abs(F).max()

    def test_plancherel_frame_bounds(self, spec1k, pair1k, corpus1k):
        rho = spec1k.freq_radius()
        lo, hi = pair1k.annulus()
        mask = (rho >= lo) & (rho <= hi)
        sq = sum(pair1k.phi_mult[k] ** 2 for k in pair1k.levels())
        c1, c2 = sq[mask].min(), sq[mask].max()
        assert c1 >= 1.0 - 1e-12 and c2 <= 2.0 + 1e-12
        for mem in corpus1k[:6]:
            total = sum(lp_norm(band(mem.f, pair1k, k), 2.0) ** 2 for k in pair1k.levels())
            l2 = lp_norm(mem.f, 2.0) ** 2
            assert c1 * l2 * (1 - 1e-9) <= total <= c2 * l2 * (1 + 1e-9)


class TestLatticeValues:
    def test_offset_shift_exact_for_waves(self, spec1k):
        # lattice evaluation is trigonometric interpolation, exact off-sample
        j = 37
        F = np.zeros(spec1k.N, dtype=complex)
        F[j] = 1.0 + 0.5j
        F[-j] = np.conj(F[j])
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        lat = lattice_values(f, np.ones(spec1k.shape))
        y = -spec1k.R + np.arange(spec1k.N) * spec1k.h
        xi = np.pi * j / spec1k.R
        want = (F[j] * np.exp(1j * xi * y)).real * 2 / (2 * spec1k.R)
        np.testing.assert_allclose(lat, want, atol=1e-13)


class TestTransform:
    @pytest.mark.parametrize("offset", [True, False])
    def test_dft_phase_one_read_only_array_per_spec(self, offset):
        spec = GridSpec(1, 8.0, 64, offset)
        ph = spec.dft_phase()
        assert spec.dft_phase() is ph
        assert not ph.flags.writeable
        j = np.fft.fftfreq(spec.N, 1.0 / spec.N)
        gamma = 0.5 if offset else 0.0
        assert (ph == np.exp(1j * np.pi * j) * np.exp(-2j * np.pi * j * gamma / spec.N)).all()
        f = GridFunction(spec, np.random.default_rng(1).standard_normal(spec.N))
        assert np.allclose(from_spectrum(spec, spectrum(f)), f.values, rtol=0, atol=1e-12)
        assert spec.dft_phase() is ph and (ph == spec.dft_phase()).all()

    def test_analyze_zero(self, spec1k, pair1k):
        zero = GridFunction(spec1k, np.zeros(spec1k.N))
        coeffs = analyze(zero, pair1k)
        assert not any(lam.any() for lam in coeffs.arrays)

    def test_coefficient_bound(self, spec1k, pair1k, corpus1k):
        f = corpus1k[2].f
        coeffs = analyze(f, pair1k)
        for k in pair1k.levels():
            conv = np.abs(lattice_values(f, pair1k.phi_mult[k]))
            bound = 2.0 ** (-k / 2.0) * conv.max()
            assert np.all(np.abs(coeffs[k]) <= bound * (1 + 1e-12))

    def test_synthesize_empty(self, spec1k, pair1k):
        out = synthesize(CoefficientSet.from_entries(1, spec1k.R, {}), pair1k)
        assert np.all(out.values == 0)

    def test_single_coefficient_is_translated_profile(self, spec1k, pair1k):
        k0, m0 = 2, 3
        out = synthesize(CoefficientSet.from_entries(1, spec1k.R, {(k0, (m0,)): 1.0}), pair1k)
        # direct construction: 2^(k n/2) psi(2^k x - m) from the spectral side
        base = synthesize(CoefficientSet.from_entries(1, spec1k.R, {(k0, (0,)): 1.0}), pair1k)
        shift = int(2.0 ** (-k0) / spec1k.h) * m0
        np.testing.assert_allclose(out.values, np.roll(base.values, shift), atol=1e-12)

    def test_single_coefficient_l2(self, spec1k, pair1k):
        # translation leaves || psi_{k,m} |L_2|| exactly invariant; dilation
        # invariance across k holds once the band is finely resolved
        def norm(k, m):
            return lp_norm(synthesize(CoefficientSet.from_entries(1, spec1k.R, {(k, (m,)): 1.0}), pair1k), 2.0)

        assert norm(3, 5) == pytest.approx(norm(3, 0), rel=1e-12)
        assert norm(3, -7) == pytest.approx(norm(3, 0), rel=1e-12)
        assert norm(5, 0) == pytest.approx(norm(3, 0), rel=1e-2)

    def test_synthesize_linear(self, spec1k, pair1k):
        a = CoefficientSet.from_entries(1, spec1k.R, {(1, (0,)): 1.0})
        b = CoefficientSet.from_entries(1, spec1k.R, {(3, (2,)): 0.5 - 1.0j})
        both = CoefficientSet.from_entries(1, spec1k.R, {(1, (0,)): 1.0, (3, (2,)): 0.5 - 1.0j})
        np.testing.assert_allclose(
            synthesize(both, pair1k).values,
            synthesize(a, pair1k).values + synthesize(b, pair1k).values,
            atol=1e-12,
        )

    def test_analyze_linear(self, spec1k, pair1k, corpus1k):
        f, g = corpus1k[3].f, corpus1k[4].f
        cf = analyze(f, pair1k).arrays
        cg = analyze(g, pair1k).arrays
        cfg = analyze(f + g, pair1k).arrays
        for a, b, ab in zip(cf, cg, cfg):
            np.testing.assert_allclose(ab, a + b, rtol=0, atol=1e-12)


class TestCalderon:
    def test_corpus_residual(self, pair1k, corpus1k):
        for mem in corpus1k:
            assert calderon_residual(mem.f, pair1k) <= 1e-6

    def test_zero_function(self, spec1k, pair1k):
        assert calderon_residual(GridFunction(spec1k, np.zeros(spec1k.N)), pair1k) == 0.0

    def test_single_band_member(self, spec1k, pair1k):
        j = int(round(2.0**4 / spec1k.fundamental))
        F = np.zeros(spec1k.N, dtype=complex)
        for dj in range(-3, 4):
            F[j + dj] = 1.0 / (1 + abs(dj))
            F[-(j + dj)] = np.conj(F[j + dj])
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        assert calderon_residual(f, pair1k) <= 1e-6

    def test_inadmissible_named_frequencies(self, spec1k, pair1k):
        F = np.zeros(spec1k.N, dtype=complex)
        j = 200  # |xi| = 78.5 exceeds the resolved top 2^(k_max - 1) = 32
        F[j] = 1.0
        F[-j] = 1.0
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        with pytest.raises(LevelError, match="78.5"):
            calderon_residual(f, pair1k)

def comb_synthesize(entries, pair):
    """Reference synthesis: one comb cell per (k, m) entry, level by level."""
    spec = pair.gspec
    j = np.fft.fftfreq(spec.N, 1.0 / spec.N)
    comb_phase = np.exp(1j * np.pi * j)
    total = np.zeros(spec.shape, dtype=complex)
    for k in sorted({k for (k, _), _ in entries}):
        comb = np.zeros(spec.shape, dtype=complex)
        for (kk, m), v in entries:
            if kk == k:
                comb[tuple((round(2.0 ** -k / spec.h) * mi + spec.N // 2) % spec.N for mi in m)] += v
        F = np.fft.fftn(comb)
        for ax in range(spec.n):
            F = F * comb_phase.reshape([-1 if a == ax else 1 for a in range(spec.n)])
        total += 2.0 ** (-k * spec.n / 2.0) * from_spectrum(spec, F * pair.psi_mult[k], real=False)
    return total


class TestDenseCoefficients:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_analyze_equals_lattice_samples(self, dim, spec1k, pair1k, corpus1k, spec2d, pair2d):
        if dim == 1:
            f, pair = corpus1k[5].f, pair1k
        else:
            f, pair = make_corpus(spec2d, pair2d, size=1, seed=5)[0].f, pair2d
        spec = f.spec
        coeffs = analyze(f, pair)
        assert (coeffs.n, coeffs.R, coeffs.levels()) == (spec.n, spec.R, pair.levels())
        for k in pair.levels():
            vals = lattice_values(f, pair.phi_mult[k])
            lo, hi = level_index_range(spec.R, k)
            want = np.zeros((hi - lo,) * spec.n, dtype=complex)
            for m in np.ndindex(*want.shape):
                pos = tuple(i + lo for i in m)
                if all(x in pair.positions(k) for x in pos):
                    idx = tuple((round(2.0 ** -k / spec.h) * x + spec.N // 2) % spec.N for x in pos)
                    want[m] = 2.0 ** (-k * spec.n / 2.0) * complex(vals[idx])
            assert np.array_equal(coeffs[k], want)

    def test_synthesize_equals_comb_loop(self, spec1k, rng):
        pair = make_lp_pair(spec1k, -4, 6)
        entries = {(-4, (-1,)): 0.5 + 1.0j, (-4, (0,)): 2.0}
        for k in pair.levels():
            lo, hi = level_index_range(spec1k.R, k)
            for _ in range(3):
                entries[(k, (int(rng.integers(lo, hi)),))] = complex(rng.normal(), rng.normal())
        entries = list(entries.items())
        got = synthesize(CoefficientSet.from_entries(1, spec1k.R, entries), pair)
        assert np.array_equal(got.values, comb_synthesize(entries, pair))
        real = [(km, v.real) for km, v in entries]
        got = synthesize(CoefficientSet.from_entries(1, spec1k.R, real), pair)
        assert np.array_equal(got.values, comb_synthesize(real, pair).real)

    def test_synthesize_equals_comb_loop_2d(self, spec2d, pair2d, rng):
        entries = {}
        for k in pair2d.levels():
            lo, hi = level_index_range(spec2d.R, k)
            for _ in range(3):
                m = tuple(int(x) for x in rng.integers(lo, hi, size=2))
                entries[(k, m)] = complex(rng.normal(), rng.normal())
        entries = list(entries.items())
        got = synthesize(CoefficientSet.from_entries(2, spec2d.R, entries), pair2d)
        assert np.array_equal(got.values, comb_synthesize(entries, pair2d))

    def test_coarsest_level(self, spec1k, corpus1k):
        # at k = -log2(2R) the cubes are [-R, 0) and [0, R), m in [-1, 1),
        # while the lattice 2^-k m = 2R m meets [-R, R) only at m = 0
        pair = make_lp_pair(spec1k, -4, 6)
        k = -4
        assert level_index_range(spec1k.R, k) == (-1, 1)
        assert list(pair.positions(k)) == [0]
        f = corpus1k[0].f
        lam = analyze(f, pair)[k]
        vals = lattice_values(f, pair.phi_mult[k])
        assert lam.shape == (2,)
        assert lam[0] == 0
        assert lam[1] == 2.0 ** (-k / 2.0) * complex(vals[spec1k.N // 2])
        left = CoefficientSet.from_entries(1, spec1k.R, {(k, -1): 1.0})
        assert left.levels() == range(k, k + 1) and np.array_equal(left[k], [1.0, 0.0])  # m = -1 is index 0
        assert np.array_equal(
            synthesize(left, pair).values,
            comb_synthesize([((k, (-1,)), 1.0)], pair).real,
        )

    def test_rejects_positions_outside_level(self):
        with pytest.raises(ValueError, match="level-2 position"):
            CoefficientSet.from_entries(1, 8.0, {(2, (32,)): 1.0})
        with pytest.raises(ValueError, match="level-2 position"):
            CoefficientSet.from_entries(2, 8.0, {(2, (3,)): 1.0})


@pytest.fixture(scope="module")
def spec2d():
    return GridSpec(2, 2.0, 64)


@pytest.fixture(scope="module")
def pair2d(spec2d):
    return make_lp_pair(spec2d, -1, 4)


class TestTwoDimensional:
    def test_partition_2d(self, spec2d, pair2d):
        ps = partition_sum(pair2d)
        rho = spec2d.freq_radius()
        lo, hi = pair2d.annulus()
        mask = (rho >= lo) & (rho <= hi)
        np.testing.assert_allclose(ps[mask], 1.0, atol=1e-12)

    def test_calderon_2d(self, spec2d, pair2d):
        corpus = make_corpus(spec2d, pair2d, size=4, seed=3)
        for mem in corpus:
            assert calderon_residual(mem.f, pair2d) <= 1e-6


class TestBandDecompose:
    @pytest.mark.parametrize("kind", ["real_1d", "complex_1d", "real_2d"])
    def test_equals_band_at_every_level(self, kind, spec1k, pair1k, corpus1k, spec2d, pair2d):
        # one shared forward transform must give the very bits band() gives
        if kind == "real_1d":
            f, pair = corpus1k[0].f, pair1k
        elif kind == "complex_1d":
            f, pair = GridFunction(spec1k, (1.0 - 0.5j) * corpus1k[1].f.values), pair1k
        else:
            f, pair = make_corpus(spec2d, pair2d, size=1, seed=3)[0].f, pair2d
        decomp = band_decompose(f, pair)
        assert decomp.bands.levels() == pair.levels()
        for k in pair.levels():
            want = band(f, pair, k).values
            assert decomp.bands[k].dtype == want.dtype
            assert np.array_equal(decomp.bands[k], want)

    def test_one_forward_transform(self, pair1k, corpus1k, fft_calls):
        band_decompose(corpus1k[0].f, pair1k)
        assert fft_calls == {"fftn": 1, "ifftn": len(pair1k.levels())}
