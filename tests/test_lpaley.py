import numpy as np
import pytest

from lpw.grid import CubeFamily, GridError, GridFunction, GridSpec, level_index_range, lp_norm
from lpw.lpaley import (
    CoefficientSet,
    LevelError,
    analyze,
    band_decompose,
    bump_profile,
    calderon_residual,
    from_spectrum,
    make_lp_pair,
    partition_sum,
    synthesize,
    synthesis_profile,
)
from lpw.suites import RunContext, suite_partition
from lpw.verify import make_corpus


def lattice_formula(f, mult, lattice=True):
    """(m(D) f) at the plain lattice y_i = -R + i h, or at f's samples, by one
    transform of f per multiplier: the per-level formula analyze used before
    it read band_decompose, kept here as the reference it must match bit for bit."""
    F = np.fft.fftn(np.asarray(f.values, dtype=complex)) * mult
    j = np.fft.fftfreq(f.spec.N, 1.0 / f.spec.N)
    shift = np.exp(-1j * np.pi * j / f.spec.N)  # exp(-i xi h/2)
    for ax in range(f.spec.n) if lattice else ():
        F = F * shift.reshape([-1 if a == ax else 1 for a in range(f.spec.n)])
    out = np.fft.ifftn(F)
    return out.real if np.isrealobj(f.values) else out


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

    def test_plateau_minimum_reported(self, spec1k):
        summary = suite_partition(RunContext(spec1k, -3, 6, CubeFamily(-3, 6)))["summary"]
        assert summary["plateau_min_phi"] == pytest.approx(1.0, abs=1e-14)
        assert summary["plateau_min_psi"] > 0.33

    def test_first_active_level(self, spec1k, pair1k):
        # bands below the lowest torus frequency are exact zeros
        assert pair1k.first_active == -2
        assert not np.any(pair1k.phi_mult[-3])

    def test_plateau_min_stable_under_refinement(self, spec1k):
        spec2 = GridSpec(1, spec1k.R, spec1k.N * 2)
        s1, s2 = (suite_partition(RunContext(s, -3, 6, CubeFamily(-3, 6)))["summary"] for s in (spec1k, spec2))
        assert s1["plateau_min_psi"] == pytest.approx(s2["plateau_min_psi"], rel=1e-6)


class TestPairBuild:
    """make_lp_pair against the per-level formula it replaced, bit for bit.

    The pair computes the denominator D once per grid and each bump only on
    its annulus.  That equals the per-level formula exactly because scaling
    rho by a power of two is exact, so D(rho / 2^k) sums the same terms as
    D(rho) in the same order, and because each bump is exactly 0 off its
    annulus.
    """

    @pytest.mark.parametrize(
        "n,R,N,k_min,k_max",
        [(1, 8.0, 4096, -3, 8), (2, 2.0, 256, -1, 5), (2, 2.0, 512, -1, 6)],
        ids=["1d-4096", "2d-256", "2d-512"],
    )
    def test_equals_per_level_formula(self, n, R, N, k_min, k_max):
        spec = GridSpec(n, R, N)
        pair = make_lp_pair(spec, k_min, k_max)
        rho = spec.freq_radius()
        for k in pair.levels():
            assert np.array_equal(pair.phi_mult[k], bump_profile(rho / 2.0**k)), k
            assert np.array_equal(pair.psi(k), synthesis_profile(rho / 2.0**k)), k

    def test_bump_evaluated_near_its_annulus_only(self, monkeypatch):
        import lpw.lpaley as lpaley

        cells = []
        bump = lpaley.bump_profile
        monkeypatch.setattr(lpaley, "bump_profile", lambda rho: cells.append(np.size(rho)) or bump(rho))
        spec = GridSpec(2, 2.0, 256)
        make_lp_pair(spec, -1, 5)
        # five full-grid evaluations per level, 35 N^2, in the per-level formula
        assert 0 < sum(cells) <= 4 * spec.N**2


class TestBand:
    def test_disjoint_spectrum_zero_band(self, spec1k, pair1k):
        # a pure wave at |xi| ~ 2^5 has zero content in the k = 0 band
        j = int(round(2.0**5 / spec1k.fundamental))
        F = np.zeros(spec1k.N, dtype=complex)
        F[j] = 1.0
        F[-j] = 1.0
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        out = band_decompose(f, pair1k)[0]
        assert np.abs(out).max() <= 1e-12 * np.abs(f.values).max()

    def test_pure_wave_passthrough(self, spec1k, pair1k):
        # a wave with |xi|/2^k on the plateau passes through at the bump max, 1
        j = int(round(2.0**3 / spec1k.fundamental))
        F = np.zeros(spec1k.N, dtype=complex)
        F[j] = 1.0
        F[-j] = 1.0
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        out = band_decompose(f, pair1k)[3]
        np.testing.assert_allclose(out, f.values, atol=1e-12)

    def test_linearity(self, spec1k, pair1k, corpus1k):
        f, g = corpus1k[0].f, corpus1k[1].f
        added = band_decompose(GridFunction(spec1k, f.values + g.values), pair1k)
        np.testing.assert_allclose(
            added.values,
            band_decompose(f, pair1k).values + band_decompose(g, pair1k).values,
            atol=1e-12,
        )

    def test_out_of_range_level(self, corpus1k, pair1k):
        bands = band_decompose(corpus1k[0].f, pair1k)
        for k in (pair1k.k_min - 1, pair1k.k_max + 1):
            with pytest.raises(GridError):
                bands[k]

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
            roundtrip = np.fft.fft(band_decompose(f, pair1k)[k])
            assert np.abs(roundtrip[outside]).max() <= 1e-13 * np.abs(F).max()

    def test_plancherel_frame_bounds(self, spec1k, pair1k, corpus1k):
        rho = spec1k.freq_radius()
        lo, hi = pair1k.annulus()
        mask = (rho >= lo) & (rho <= hi)
        sq = sum(pair1k.phi_mult[k] ** 2 for k in pair1k.levels())
        c1, c2 = sq[mask].min(), sq[mask].max()
        assert c1 >= 1.0 - 1e-12 and c2 <= 2.0 + 1e-12
        for mem in corpus1k[:6]:
            bands = band_decompose(mem.f, pair1k)
            total = sum(lp_norm(np.abs(bands[k]), spec1k.cell_measure, 2.0) ** 2 for k in pair1k.levels())
            l2 = lp_norm(np.abs(mem.f.values), spec1k.cell_measure, 2.0) ** 2
            assert c1 * l2 * (1 - 1e-9) <= total <= c2 * l2 * (1 + 1e-9)


class TestLatticeValues:
    """The bands at the plain lattice, band_decompose(f, pair, lattice=True),
    which analyze subsamples."""

    def test_offset_shift_exact_for_waves(self, spec1k, pair1k):
        # lattice evaluation is trigonometric interpolation, exact off-sample;
        # the wave's |xi| = 7.85 lies on the plateau of band 3, where it is 1
        j = 20
        F = np.zeros(spec1k.N, dtype=complex)
        F[j] = 1.0 + 0.5j
        F[-j] = np.conj(F[j])
        f = GridFunction(spec1k, from_spectrum(spec1k, F))
        lat = band_decompose(f, pair1k, lattice=True)[3]
        y = -spec1k.R + np.arange(spec1k.N) * spec1k.h
        xi = np.pi * j / spec1k.R
        want = (F[j] * np.exp(1j * xi * y)).real * 2 / (2 * spec1k.R)
        np.testing.assert_allclose(lat, want, atol=1e-13)
        # at f's own, half-cell shifted samples the band is the wave itself
        np.testing.assert_allclose(band_decompose(f, pair1k)[3], f.values, atol=1e-13)

    @pytest.mark.parametrize("lattice", [True, False])
    @pytest.mark.parametrize("kind", ["real_1d", "complex_1d", "real_2d", "complex_2d"])
    def test_shared_spectrum_equals_per_level_call(self, lattice, kind, rng):
        # band_decompose takes every level from one shared transform; each
        # must be the very bits of the per-level formula, and analyze's the
        # lattice rows subsampled
        spec = GridSpec(2, 2.0, 32) if kind.endswith("2d") else GridSpec(1, 8.0, 512)
        values = rng.normal(size=spec.shape) * (1.0 - 0.5j if kind.startswith("complex") else 1.0)
        f = GridFunction(spec, values)
        pair = make_lp_pair(spec, -1, 3)
        bands, coeffs = band_decompose(f, pair, lattice=lattice), analyze(f, pair)
        for k in pair.levels():
            vals = lattice_formula(f, pair.phi_mult[k], lattice)
            assert bands[k].dtype == vals.dtype and np.array_equal(bands[k], vals), k
            if not lattice:
                continue
            ms = pair.positions(k)
            idx = (spec.cells(k) * ms + spec.N // 2) % spec.N
            lo, hi = level_index_range(spec.R, k)
            want = np.zeros((hi - lo,) * spec.n, dtype=complex)
            want[np.ix_(*[ms - lo] * spec.n)] = vals[np.ix_(*[idx] * spec.n)] * 2.0 ** (-k * spec.n / 2.0)
            assert coeffs[k].dtype == want.dtype and np.array_equal(coeffs[k], want), k

    @pytest.mark.parametrize("n", [1, 2])
    def test_analyze_takes_one_forward_transform(self, n, pair1k, corpus1k, fft_calls):
        if n == 1:
            f, pair = corpus1k[0].f, pair1k
        else:
            spec = GridSpec(2, 2.0, 64)
            pair = make_lp_pair(spec, -1, 4)
            f = make_corpus(spec, pair, size=1, seed=5)[0].f
        before = dict(fft_calls)
        analyze(f, pair)
        assert fft_calls["fftn"] - before["fftn"] == 1
        assert fft_calls["ifftn"] - before["ifftn"] == len(pair.levels())


class TestTransform:
    @pytest.mark.parametrize("real", [True, False])
    def test_dft_phase_one_read_only_array_per_spec(self, real):
        spec = GridSpec(1, 8.0, 64)
        ph = spec.dft_phase()
        assert spec.dft_phase() is ph
        assert not ph.flags.writeable
        j = np.fft.fftfreq(spec.N, 1.0 / spec.N)
        gamma = 0.5  # x_i = -R + (i + gamma) h
        assert (ph == np.exp(1j * np.pi * j) * np.exp(-2j * np.pi * j * gamma / spec.N)).all()
        f = GridFunction(spec, np.random.default_rng(1).standard_normal(spec.N) * (1.0 if real else 1.0 - 0.5j))
        F = spec.cell_measure * np.fft.fft(f.values) * ph  # the continuum coefficients F(xi_j)
        assert np.allclose(from_spectrum(spec, F, real=real), f.values, rtol=0, atol=1e-12)
        assert spec.dft_phase() is ph and (ph == spec.dft_phase()).all()

    def test_analyze_zero(self, spec1k, pair1k):
        zero = GridFunction(spec1k, np.zeros(spec1k.N))
        coeffs = analyze(zero, pair1k)
        assert not any(lam.any() for lam in coeffs.arrays)

    def test_coefficient_bound(self, spec1k, pair1k, corpus1k):
        f = corpus1k[2].f
        coeffs = analyze(f, pair1k)
        lattice = band_decompose(f, pair1k, lattice=True)
        for k in pair1k.levels():
            conv = np.abs(lattice[k])
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
            f = synthesize(CoefficientSet.from_entries(1, spec1k.R, {(k, (m,)): 1.0}), pair1k)
            return lp_norm(np.abs(f.values), spec1k.cell_measure, 2.0)

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
        cfg = analyze(GridFunction(spec1k, f.values + g.values), pair1k).arrays
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
        total += 2.0 ** (-k * spec.n / 2.0) * from_spectrum(spec, F * pair.psi(k), real=False)
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
            vals = lattice_formula(f, pair.phi_mult[k])
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
        vals = lattice_formula(f, pair.phi_mult[k])
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
        # one shared forward transform must give the very bits of a per-level
        # transform, real when f is
        if kind == "real_1d":
            f, pair = corpus1k[0].f, pair1k
        elif kind == "complex_1d":
            f, pair = GridFunction(spec1k, (1.0 - 0.5j) * corpus1k[1].f.values), pair1k
        else:
            f, pair = make_corpus(spec2d, pair2d, size=1, seed=3)[0].f, pair2d
        bands = band_decompose(f, pair)
        assert bands.levels() == pair.levels()
        for k in pair.levels():
            want = np.fft.ifftn(pair.phi_mult[k] * np.fft.fftn(f.values))
            want = want if kind == "complex_1d" else want.real
            assert bands[k].dtype == want.dtype
            assert np.array_equal(bands[k], want)

    def test_one_forward_transform(self, pair1k, corpus1k, fft_calls):
        band_decompose(corpus1k[0].f, pair1k)
        assert fft_calls == {"fftn": 1, "ifftn": len(pair1k.levels())}
