from functools import cached_property

import numpy as np
import pytest

from lpw import spaces
from lpw.grid import (
    CubeFamily,
    DyadicCube,
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    _lp,
    _lp_lq_nonneg,
    _lp_nonneg,
    cube_cells,
    cube_samples,
    level_index_range,
    lp_lq_norm,
    lp_norm,
)
from lpw.lpaley import CoefficientSet, apply_multiplier, band, band_decompose, make_lp_pair
from lpw.spaces import (
    NormRequest,
    _cube_lp_all,
    _paint,
    _seq_levels,
    _starred_cube_lp,
    besov_norm,
    bmo_norm,
    build_dictionary,
    cube_lp,
    hardy_grand_norm,
    seq_b_norm,
    seq_f_infty_norm,
    seq_f_norm,
    seq_f_norms,
    space_norm,
    stack_norm,
    tl_infty_norm,
    tl_norm,
    weighted_bands,
)
from lpw.verify import classical_band_magnitudes, classical_besov_norm, classical_tl_norm
from lpw.weights import Const, Dyadic, Pow, WeightSequence


def request(pair, weight, p, q, k_min=None, k_max=None, family=None):
    ws = WeightSequence(
        weight,
        pair.k_min if k_min is None else k_min,
        pair.k_max if k_max is None else k_max,
        p if np.isfinite(p) else 2.0,
    )
    space = "F" if np.isfinite(p) else "F_inf"
    return NormRequest(space=space, p=p, q=q, weights=ws, pair=pair, family=family)


def single_band_member(spec, pair, k0):
    from lpw.lpaley import from_spectrum

    j = int(round(2.0**k0 / spec.fundamental))
    F = np.zeros(spec.shape, dtype=complex)
    F[j] = 1.0 - 0.5j
    F[-j] = np.conj(F[j])
    return GridFunction(spec, from_spectrum(spec, F))


def dense_seq_f_norm(coeffs, spec, req):
    """The f-norm as one dense sum over the whole grid per level, set by
    set: the reference that seq_f_norms must equal bit for bit."""
    n, p, q = spec.n, req.p, req.q
    plain_acc = np.zeros(spec.shape)
    star_acc = np.zeros(spec.shape)
    qq = 1.0 if np.isinf(q) else q
    for k in _seq_levels(coeffs, spec):
        t, mags, S = req.weights.on_grid(spec, k), np.abs(coeffs[k]), spec.N // len(coeffs[k])
        tkm = _starred_cube_lp(t, k, S, p, mags > 0)
        if np.isinf(q):
            lvl_plain = _paint(spec, mags) * 2.0 ** (k * n / 2.0) * t.values
            lvl_star = _paint(spec, mags * tkm * 2.0 ** (k * n * (0.5 + 1.0 / p)))
            plain_acc = np.maximum(plain_acc, lvl_plain)
            star_acc = np.maximum(star_acc, lvl_star)
        else:
            plain_acc += _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
            star_acc += _paint(spec, (mags * tkm) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / p)))
    plain = lp_norm(GridFunction(spec, plain_acc ** (1.0 / qq)), p)
    star = lp_norm(GridFunction(spec, star_acc ** (1.0 / qq)), p)
    return plain, star


def random_sets(spec, k_lo, k_hi, count, rng):
    """Sets of 8-32 random complex coefficients on levels k_lo..k_hi."""
    sets = []
    for _ in range(count):
        entries = []
        for _ in range(int(rng.integers(8, 33))):
            k = int(rng.integers(k_lo, k_hi + 1))
            lo, hi = level_index_range(spec.R, k)
            m = tuple(int(x) for x in rng.integers(lo, hi, spec.n))
            entries.append(((k, m), complex(rng.normal(), rng.normal())))
        sets.append(CoefficientSet.from_entries(spec.n, spec.R, entries))
    return sets


class TestFunctionNorms:
    def test_zero_function(self, spec1k, pair1k):
        req = request(pair1k, Const(1.0), 2.0, 2.0)
        zero = GridFunction(spec1k, np.zeros(spec1k.N))
        assert besov_norm(zero, req) == 0.0
        assert tl_norm(zero, req) == 0.0

    def test_singleton_level_window_collapses(self, spec1k, pair1k, corpus1k):
        # with one stored level every q gives the same single weighted band norm
        f = corpus1k[0].f
        ws = WeightSequence(Pow(0.3), 3, 3, 2.0)
        t3 = ws.on_grid(spec1k, 3)
        from lpw.grid import weighted_lp_norm

        want = weighted_lp_norm(band(f, pair1k, 3), t3, 2.0)
        for q in (1.0, 2.0, np.inf):
            req = request(pair1k, Pow(0.3), 2.0, q, k_min=3, k_max=3)
            assert besov_norm(f, req) == pytest.approx(want, rel=1e-12)
            assert tl_norm(f, req) == pytest.approx(want, rel=1e-12)

    def test_homogeneity(self, pair1k, corpus1k):
        req = request(pair1k, Pow(0.3), 2.0, 2.0)
        f = corpus1k[0].f
        g = GridFunction(f.spec, 3.5 * f.values)
        assert besov_norm(g, req) == pytest.approx(3.5 * besov_norm(f, req), rel=1e-12)
        assert tl_norm(g, req) == pytest.approx(3.5 * tl_norm(f, req), rel=1e-12)

    def test_q_monotone(self, pair1k, corpus1k):
        f = corpus1k[1].f
        vals_b = [besov_norm(f, request(pair1k, Const(1.0), 2.0, q)) for q in (1.0, 2.0, 4.0, np.inf)]
        vals_f = [tl_norm(f, request(pair1k, Const(1.0), 2.0, q)) for q in (1.0, 2.0, 4.0, np.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(vals_b, vals_b[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(vals_f, vals_f[1:]))

    def test_quasi_triangle(self, pair1k, corpus1k):
        # norm(f+g) <= C (norm(f) + norm(g)) with C = max(1, 2^(1/p-1), 2^(1/q-1))
        for p, q in ((2.0, 2.0), (0.8, 1.5), (2.0, 0.7)):
            C = max(1.0, 2.0 ** (1.0 / p - 1.0), 2.0 ** (1.0 / q - 1.0))
            req = request(pair1k, Pow(0.3), p, q)
            for f, g in ((corpus1k[0].f, corpus1k[1].f), (corpus1k[2].f, corpus1k[3].f)):
                for norm in (besov_norm, tl_norm):
                    assert norm(f + g, req) <= C * (norm(f, req) + norm(g, req)) * (1 + 1e-12)

    def test_classical_reduction(self, pair1k, corpus1k):
        # dyadic weights reproduce the fixed-smoothness norms exactly
        for s in (-1.0, 0.0, 0.5, 2.0):
            req = request(pair1k, Dyadic(s), 2.0, 2.0)
            for mem in corpus1k[:4]:
                oracle = classical_band_magnitudes(mem.f, pair1k)
                want_b = classical_besov_norm(oracle, s, 2.0, 2.0)
                want_f = classical_tl_norm(oracle, s, 2.0, 2.0)
                assert besov_norm(mem.f, req) == pytest.approx(want_b, rel=1e-12)
                assert tl_norm(mem.f, req) == pytest.approx(want_f, rel=1e-12)

    def test_l2_frame_bounds(self, spec1k, pair1k, corpus1k):
        rho = spec1k.freq_radius()
        lo, hi = pair1k.annulus()
        mask = (rho >= lo) & (rho <= hi)
        sq = sum(pair1k.phi_mult[k] ** 2 for k in pair1k.levels())
        c1, c2 = np.sqrt(sq[mask].min()), np.sqrt(sq[mask].max())
        req = request(pair1k, Const(1.0), 2.0, 2.0)
        for mem in corpus1k[:6]:
            val = tl_norm(mem.f, req)
            l2 = lp_norm(mem.f, 2.0)
            assert c1 * l2 * (1 - 1e-9) <= val <= c2 * l2 * (1 + 1e-9)

    def test_p_inf_rejected(self, pair1k, corpus1k):
        with pytest.raises(ValueError):
            tl_norm(corpus1k[0].f, request(pair1k, Const(1.0), np.inf, 2.0))


class TestCarlesonNorm:
    def test_zero(self, spec1k, pair1k):
        req = request(pair1k, Const(1.0), np.inf, 2.0)
        assert tl_infty_norm(GridFunction(spec1k, np.zeros(spec1k.N)), req) == 0.0

    def test_single_band_oracle(self, spec1k, pair1k):
        # one active level k0: the sup scans cubes with l(P) >= 2^-k0 of the
        # cube q-mean of the band
        k0 = 3
        f = single_band_member(spec1k, pair1k, k0)
        fam = CubeFamily(-4, 6, translates=False)
        req = request(pair1k, Const(1.0), np.inf, 2.0, family=fam)
        got = tl_infty_norm(f, req)
        bk = np.abs(band(f, pair1k, k0).values) ** 2
        best = 0.0
        from lpw.grid import enumerate_cubes

        for Q in enumerate_cubes(spec1k, -4, k0):
            vals = cube_samples(GridFunction(spec1k, bk), Q)
            best = max(best, float(vals.mean()))
        assert got == pytest.approx(np.sqrt(best), rel=1e-12)

    def test_weight_doubling(self, spec1k, pair1k, corpus1k):
        f = corpus1k[2].f
        a = tl_infty_norm(f, request(pair1k, Pow(0.3), np.inf, 2.0))
        b = tl_infty_norm(f, request(pair1k, Const(2.0) * Pow(0.3), np.inf, 2.0))
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_q_inf_rejected(self, pair1k, corpus1k):
        with pytest.raises(ValueError):
            tl_infty_norm(corpus1k[0].f, request(pair1k, Const(1.0), np.inf, np.inf))

    def test_default_family_is_the_pair_window(self, pair1k, corpus1k):
        req = request(pair1k, Pow(0.3), np.inf, 2.0)
        explicit = NormRequest("F_inf", np.inf, 2.0, req.weights, pair1k, family=CubeFamily(pair1k.k_min, pair1k.k_max))
        assert req.family == CubeFamily(pair1k.k_min, pair1k.k_max)
        assert req == explicit
        assert tl_infty_norm(corpus1k[0].f, req) == tl_infty_norm(corpus1k[0].f, explicit)


class TestDecompositionInput:
    def test_weighted_bands_match_per_band_loop(self, spec1k, pair1k, corpus1k):
        req = request(pair1k, Pow(0.3), 2.0, 2.0, k_min=-1, k_max=5)
        for mem in corpus1k[:4]:
            got = weighted_bands(band_decompose(mem.f, pair1k), req)
            assert got.levels() == req.levels()
            for k in req.levels():
                t = req.weights.on_grid(spec1k, k).values
                want = t * np.abs(band(mem.f, pair1k, k).values)
                assert np.array_equal(got[k], want)

    def test_norms_equal_on_function_and_decomposition(self, pair1k, corpus1k):
        fam = CubeFamily(-4, 6)
        cases = [
            (besov_norm, request(pair1k, Pow(0.3), 2.0, 2.0)),
            (besov_norm, request(pair1k, Pow(-0.2), 2.0, np.inf)),
            (tl_norm, request(pair1k, Pow(0.3), 2.0, 2.0)),
            (tl_norm, request(pair1k, Dyadic(0.5), 1.5, np.inf)),
            (tl_infty_norm, request(pair1k, Pow(0.3), np.inf, 2.0, family=fam)),
        ]
        for mem in corpus1k[:4]:
            decomp = band_decompose(mem.f, pair1k)
            for norm, req in cases:
                assert norm(decomp, req) == norm(mem.f, req), norm.__name__

    def test_norms_on_decomposition_make_no_transform(self, pair1k, corpus1k, fft_calls):
        decomp = band_decompose(corpus1k[0].f, pair1k)
        before = dict(fft_calls)
        besov_norm(decomp, request(pair1k, Pow(0.3), 2.0, 2.0))
        tl_norm(decomp, request(pair1k, Pow(0.3), 2.0, 2.0))
        tl_infty_norm(decomp, request(pair1k, Pow(0.3), np.inf, 2.0))
        assert fft_calls == before

    def test_mismatched_decomposition_rejected(self, spec1k, pair1k, corpus1k):
        f = corpus1k[0].f
        fine = GridSpec(1, spec1k.R, 2 * spec1k.N)
        req_fine = request(make_lp_pair(fine, pair1k.k_min, pair1k.k_max), Const(1.0), 2.0, 2.0)
        with pytest.raises(ValueError, match="N=1024.*N=2048"):
            tl_norm(band_decompose(f, pair1k), req_fine)
        narrow = make_lp_pair(spec1k, pair1k.k_min + 1, pair1k.k_max)
        req = request(pair1k, Const(1.0), 2.0, 2.0, k_min=narrow.k_min)
        for norm in (besov_norm, tl_norm):
            with pytest.raises(ValueError, match="levels"):
                norm(band_decompose(f, narrow), req)
        with pytest.raises(ValueError, match="levels"):
            tl_infty_norm(band_decompose(f, narrow), request(pair1k, Const(1.0), np.inf, 2.0))


# the (space, p, q) cases of suite_newnorm
NEWNORM_CASES = [("F", 2.0, 2.0), ("B", 2.0, 2.0), ("F", 2.0, np.inf), ("B", 2.0, np.inf), ("F_inf", np.inf, 2.0)]


class TestStackNorm:
    """stack_norm takes B, F and F_inf from one weighted stack, bit for bit
    what space_norm computes after weighing the bands itself."""

    def test_shared_stack_equals_space_norm(self, pair1k, corpus1k):
        fam = CubeFamily(-4, 6)
        for w in (Pow(0.3), Pow(-0.2)):
            ws = WeightSequence(w, pair1k.k_min, pair1k.k_max, 2.0)
            for seq in (ws, ws.frozen(-3), ws.frozen(0), ws.frozen(3)):
                for mem in corpus1k[:4]:
                    decomp = band_decompose(mem.f, pair1k)
                    mags = VectorSequence(decomp.bands.spec, decomp.bands.k_min, np.abs(decomp.bands.values))
                    wb = seq.weigh(mags, nonneg=True)
                    for tag, p, q in NEWNORM_CASES:
                        req = NormRequest(tag, p, q, seq, pair1k, family=fam)
                        assert stack_norm(wb, req) == space_norm(decomp, req), (w, seq.spec, tag, q)

    def test_dyadic_stack_equals_named_norms(self, pair1k, corpus1k):
        for s in (-1.0, 0.5, 2.0):
            ws = WeightSequence(Dyadic(s), pair1k.k_min, pair1k.k_max, 2.0)
            for mem in corpus1k[:3]:
                wb = weighted_bands(mem.f, NormRequest("F", 2.0, 2.0, ws, pair1k))
                for q in (2.0, np.inf):
                    assert stack_norm(wb, NormRequest("B", 2.0, q, ws, pair1k)) == besov_norm(mem.f, NormRequest("F", 2.0, q, ws, pair1k))
                    assert stack_norm(wb, NormRequest("F", 2.0, q, ws, pair1k)) == tl_norm(mem.f, NormRequest("F", 2.0, q, ws, pair1k))

    def test_other_spaces_rejected(self, pair1k, corpus1k):
        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max, 2.0)
        wb = weighted_bands(corpus1k[0].f, NormRequest("F", 2.0, 2.0, ws, pair1k))
        for space in ("b", "Lp", "BMO"):
            with pytest.raises(ValueError, match="band norms"):
                stack_norm(wb, NormRequest(space, 2.0, 2.0, ws, pair1k))

    def test_nonneg_kernels_equal_public_norms(self, rng):
        spec = GridSpec(2, 2.0, 32)
        a = np.abs(rng.standard_normal((5, *spec.shape)))
        a[1] = 0.0
        for p in (0.7, 2.0, np.inf):
            assert _lp_nonneg(a[0], spec.cell_measure, p) == _lp(a[0], spec.cell_measure, p)
            for q in (0.8, 2.0, np.inf):
                want = lp_lq_norm(VectorSequence(spec, 0, a), p, q)
                assert _lp_lq_nonneg(a, spec.cell_measure, p, q) == want
        signed = a - 0.5
        # the public norms keep taking absolute values of signed data
        assert lp_lq_norm(VectorSequence(spec, 0, signed), 2.0, 2.0) == _lp_lq_nonneg(np.abs(signed), spec.cell_measure, 2.0, 2.0)
        assert _lp(signed[0], 1.0, 3.0) == _lp_nonneg(np.abs(signed[0]), 1.0, 3.0)


class TestSequenceNorms:
    def test_single_coefficient_b_value(self, spec1k, pair1k):
        # n=1, p=q=1, unit weight: the norm is 2^(k/2) |Q_{k,m}| = 2^(-k/2)
        k0 = 2
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(k0, (1,)): 1.0})
        req = request(pair1k, Const(1.0), 1.0, 1.0)
        plain, star = seq_b_norm(coeffs, spec1k, req)
        assert plain == pytest.approx(2.0 ** (-k0 / 2.0), rel=1e-12)
        assert star == pytest.approx(plain, rel=1e-12)

    def test_single_coefficient_f_exponent_algebra(self, spec1k, pair1k):
        # p=q=2: the cube factors cancel, value 2^(k(1/2 - 1/2)) = 1
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(2, (0,)): 1.0})
        plain, star = seq_f_norm(coeffs, spec1k, request(pair1k, Const(1.0), 2.0, 2.0))
        assert plain == pytest.approx(1.0, rel=1e-12)
        assert star == pytest.approx(1.0, rel=1e-12)

    def test_single_coefficient_f_p1(self, spec1k, pair1k):
        k0 = 3
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(k0, (2,)): 1.0})
        plain, star = seq_f_norm(coeffs, spec1k, request(pair1k, Const(1.0), 1.0, 1.0))
        assert plain == pytest.approx(2.0 ** (-k0 / 2.0), rel=1e-12)
        assert star == pytest.approx(plain, rel=1e-12)

    def test_plain_equals_starred_single_coefficient(self, spec1k, pair1k, rng):
        for _ in range(8):
            k0 = int(rng.integers(-2, 7))
            lo = -int(8 * 2.0**k0)
            m0 = int(rng.integers(lo, -lo))
            lam = complex(rng.normal(), rng.normal())
            coeffs = CoefficientSet.from_entries(1, spec1k.R, {(k0, (m0,)): lam})
            for fn, p, q in ((seq_b_norm, 2.0, 3.0), (seq_f_norm, 2.0, 3.0), (seq_f_infty_norm, np.inf, 2.0)):
                req = request(pair1k, Pow(0.3), p if np.isfinite(p) else np.inf, q)
                plain, star = fn(coeffs, spec1k, req)
                assert plain == pytest.approx(star, rel=1e-12), fn.__name__

    def test_random_sets_ratio_bounded(self, spec1k, pair1k, rng):
        req = request(pair1k, Pow(0.3), 2.0, 2.0)
        for _ in range(10):
            count = int(rng.integers(5, 20))
            data = {}
            for _ in range(count):
                k = int(rng.integers(-2, 7))
                C = int(8 * 2.0**k)
                m = int(rng.integers(-C, C))
                data[(k, (m,))] = complex(rng.normal(), rng.normal())
            coeffs = CoefficientSet.from_entries(1, spec1k.R, data)
            plain, star = seq_f_norm(coeffs, spec1k, req)
            assert plain > 0 and star > 0
            ratio = plain / star
            assert 1 / 20 < ratio < 20
            bp, bs = seq_b_norm(coeffs, spec1k, req)
            assert bp == pytest.approx(bs, rel=1e-9)  # disjoint cubes: exact identity

    def test_empty_carleson(self, spec1k, pair1k):
        req = request(pair1k, Const(1.0), np.inf, 2.0)
        assert seq_f_infty_norm(CoefficientSet.from_entries(1, spec1k.R, {}), spec1k, req) == (0.0, 0.0)

    def test_homogeneity(self, spec1k, pair1k, rng):
        data = {(2, (1,)): 1.0 + 0.3j, (4, (-3,)): 0.5}
        coeffs = CoefficientSet.from_entries(1, spec1k.R, data)
        req = request(pair1k, Pow(0.3), 2.0, 2.0)
        p1, s1 = seq_f_norm(coeffs, spec1k, req)
        p2, s2 = seq_f_norm(coeffs.scaled(4.0), spec1k, req)
        assert p2 == pytest.approx(4 * p1, rel=1e-12)
        assert s2 == pytest.approx(4 * s1, rel=1e-12)


class TestDenseSequenceNorms:
    @pytest.mark.parametrize("n", [1, 2])
    def test_cube_blocks_match_per_cube_loops(self, n, rng):
        spec = GridSpec(n, 2.0, 64)
        t = GridFunction(spec, np.abs(rng.normal(size=spec.shape)) + 0.1)
        for k in range(-2, 5):  # -log2(2R) .. log2(1/h)
            lo, hi = level_index_range(spec.R, k)
            S = spec.N // (hi - lo)
            cubes = [DyadicCube(k, tuple(i + lo for i in m)) for m in np.ndindex(*(hi - lo,) * n)]
            where = rng.random((hi - lo,) * n) < 0.7
            for p in (1.5, 2.0, 3.0, np.inf):
                got = _cube_lp_all(t, S, p, where)
                for Q in cubes:
                    i = tuple(x - lo for x in Q.m)
                    assert got[i] == (cube_lp(t, Q, p) if where[i] else 0.0)
            vals = rng.random((hi - lo,) * n)
            want = np.zeros(spec.shape)
            for Q in cubes:
                want[tuple(slice(a, b) for a, b in cube_cells(spec, Q))] += vals[tuple(x - lo for x in Q.m)]
            assert np.array_equal(_paint(spec, vals), want)

    def test_coarsest_level_cubes_are_half_domains(self, spec1k):
        # k = -log2(2R): cubes [-R, 0) and [0, R); with p = q = 1 and unit
        # weight the b- and f-norms are 2^(k/2) |lambda| R = 2, and the
        # Carleson norm takes the mean over the whole domain, 2^(k/2) / 2
        pair = make_lp_pair(spec1k, -4, 6)
        req = request(pair, Const(1.0), 1.0, 1.0)
        for m in (-1, 0):
            coeffs = CoefficientSet.from_entries(1, spec1k.R, {(-4, m): 1.0})
            assert seq_b_norm(coeffs, spec1k, req) == (2.0, 2.0)
            assert seq_f_norm(coeffs, spec1k, req) == (2.0, 2.0)
            assert seq_f_infty_norm(coeffs, spec1k, req) == (0.125, 0.125)

    def test_level_finer_than_grid_refused(self, spec1k, pair1k):
        # h = 1/64, so level 7 cubes would be half a cell wide
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(7, 0): 1.0})
        for fn, p in ((seq_b_norm, 2.0), (seq_f_norm, 2.0), (seq_f_infty_norm, np.inf)):
            with pytest.raises(ValueError, match="level 7 .*h=0.015625"):
                fn(coeffs, spec1k, request(pair1k, Const(1.0), p, 2.0))
        good = CoefficientSet.from_entries(1, spec1k.R, {(2, 0): 1.0})
        with pytest.raises(ValueError, match="level 7 .*h=0.015625"):
            seq_f_norms([good, coeffs], spec1k, request(pair1k, Const(1.0), 2.0, 2.0))

    def test_other_domain_refused(self, spec1k, pair1k):
        coeffs = CoefficientSet.from_entries(1, 4.0, {(2, 0): 1.0})
        good = CoefficientSet.from_entries(1, spec1k.R, {(2, 0): 1.0})
        req = request(pair1k, Const(1.0), 2.0, 2.0)
        with pytest.raises(ValueError, match="do not fit"):
            seq_f_norm(coeffs, spec1k, req)
        with pytest.raises(ValueError, match="do not fit"):
            seq_f_norms([good, coeffs], spec1k, req)


# the two (p, q) pairs of suite_seqnorm, and q = inf
BATCH_PQ = ((2.0, 1.0), (1.5, 3.0), (2.0, np.inf))


class TestBatchedSequenceNorms:
    """seq_f_norms over a batch equals the dense per-set loop exactly."""

    def check(self, sets, spec, pair, weight=Pow(0.3)):
        for p, q in BATCH_PQ:
            ws = WeightSequence(weight, pair.k_min, pair.k_max, p)
            req = NormRequest("f", p, q, ws, pair)
            assert seq_f_norms(sets, spec, req) == [dense_seq_f_norm(c, spec, req) for c in sets], (p, q)

    def test_random_batch_1d(self, spec1k, pair1k, rng):
        self.check(random_sets(spec1k, pair1k.k_min, pair1k.k_max, 24, rng), spec1k, pair1k)
        self.check(random_sets(spec1k, pair1k.k_min, pair1k.k_max, 6, rng), spec1k, pair1k, Dyadic(0.5))

    def test_random_batch_2d_spans_groups(self, rng):
        spec = GridSpec(2, 2.0, 64)
        pair = make_lp_pair(spec, -2, 4)
        sets = random_sets(spec, pair.k_min, pair.k_max, 40, rng)
        assert len(sets) > spaces._GROUP_CELLS // spec.N**2  # more than one group
        self.check(sets, spec, pair)

    def test_batch_spans_groups_1d(self, spec1k, pair1k, rng, monkeypatch):
        monkeypatch.setattr(spaces, "_GROUP_CELLS", 3 * spec1k.N)
        self.check(random_sets(spec1k, pair1k.k_min, pair1k.k_max, 10, rng), spec1k, pair1k)

    def test_lone_coefficients_on_clipped_coarsest_level(self, spec1k):
        # k = -log2(2R) = -4: two cubes, each half the domain
        pair = make_lp_pair(spec1k, -4, 6)
        sets = [CoefficientSet.from_entries(1, spec1k.R, {(-4, m): 1.0 - 0.5j}) for m in (-1, 0)]
        sets.append(CoefficientSet.from_entries(1, spec1k.R, {(-4, -1): 2.0, (-4, 0): 0.5j}))
        self.check(sets, spec1k, pair)
        spec = GridSpec(2, 2.0, 64)
        pair = make_lp_pair(spec, -2, 4)
        self.check([CoefficientSet.from_entries(2, spec.R, {(-2, (-1, 0)): 1.5})], spec, pair)

    def test_empty_and_zero_sets(self, spec1k, pair1k, rng):
        empty = CoefficientSet.from_entries(1, spec1k.R, {})
        zero = CoefficientSet.from_entries(1, spec1k.R, {(2, 0): 0.0})
        sets = [empty, *random_sets(spec1k, 0, 3, 2, rng), zero]
        self.check(sets, spec1k, pair1k)
        req = request(pair1k, Const(1.0), 2.0, 2.0)
        assert seq_f_norms([empty, zero], spec1k, req) == [(0.0, 0.0), (0.0, 0.0)]
        assert seq_f_norms([], spec1k, req) == []

    def test_disjoint_level_ranges(self, spec1k, pair1k, rng):
        coarse = random_sets(spec1k, -3, 0, 3, rng)
        fine = random_sets(spec1k, 3, 6, 3, rng)
        self.check([coarse[0], fine[0], coarse[1], fine[1], fine[2], coarse[2]], spec1k, pair1k)

    def test_level_work_shared_by_the_batch(self, spec1k, pair1k, rng, monkeypatch):
        """t_k, t_k^q and t_{k,m} once per level for any batch size; each
        set's nonzero coefficients gathered once for any number of requests."""
        calls = {"on_grid": 0, "starred": 0, "support": 0}
        on_grid, starred = WeightSequence.on_grid, spaces._starred_cube_lp
        support = CoefficientSet.__dict__["support"].func

        def counted_on_grid(self, gspec, k):
            calls["on_grid"] += 1
            return on_grid(self, gspec, k)

        def counted_starred(*args):
            calls["starred"] += 1
            return starred(*args)

        def counted_support(self):
            calls["support"] += 1
            return support(self)

        prop = cached_property(counted_support)
        prop.__set_name__(CoefficientSet, "support")
        monkeypatch.setattr(WeightSequence, "on_grid", counted_on_grid)
        monkeypatch.setattr(spaces, "_starred_cube_lp", counted_starred)
        monkeypatch.setattr(CoefficientSet, "support", prop)
        for B in (1, 7, 30):
            # fresh sets, each with three coefficients on every level 0..4
            sets = [
                CoefficientSet.from_entries(1, spec1k.R, {
                    (k, (int(rng.integers(*level_index_range(spec1k.R, k))),)): complex(rng.normal(), 1.0)
                    for k in range(5) for _ in range(3)
                })
                for _ in range(B)
            ]
            for key in calls:
                calls[key] = 0
            for p, q in BATCH_PQ:
                seq_f_norms(sets, spec1k, request(pair1k, Pow(0.3), p, q))
            assert calls["on_grid"] == calls["starred"] == 5 * len(BATCH_PQ), B
            assert calls["support"] == B


class TestGrandMaximal:
    def test_dictionary_normalized(self, spec1k):
        d = build_dictionary(spec1k)
        assert len(d.profiles) == 8  # two widths, orders 0..n+2
        for prof, pn in zip(d.profiles, d.seminorms):
            assert prof.scale == pytest.approx(1.0 / pn, rel=1e-12)

    def test_zero(self, spec1k, pair1k):
        d = build_dictionary(spec1k)
        ts = WeightSequence(Const(1.0), -3, 6, 2.0)
        assert hardy_grand_norm(GridFunction(spec1k, np.zeros(spec1k.N)), ts, 2.0, d) == 0.0

    def test_dictionary_monotone(self, spec1k, pair1k, corpus1k):
        from lpw.spaces import TestFunctionDictionary

        d = build_dictionary(spec1k)
        small = TestFunctionDictionary(d.profiles[:4], d.N_order, d.seminorms[:4])
        ts = WeightSequence(Const(1.0), -3, 6, 2.0)
        f = corpus1k[0].f
        assert hardy_grand_norm(f, ts, 2.0, d) >= hardy_grand_norm(f, ts, 2.0, small) - 1e-15

    def test_matches_per_profile_transform(self, spec1k, corpus1k):
        # the batched per-level transform reproduces the per-profile loop
        # exactly, on a 1D and a 2D grid
        from lpw.verify import make_corpus

        spec2 = GridSpec(2, 2.0, 64)
        corpus2 = make_corpus(spec2, make_lp_pair(spec2, -1, 4), size=2, seed=5)
        for spec, corpus, levels in ((spec1k, corpus1k[:3], (-3, 6)), (spec2, corpus2, (-1, 4))):
            d = build_dictionary(spec)
            ts = WeightSequence(Pow(0.3), *levels, 2.0)
            for mem in corpus:
                best = np.zeros(spec.shape)
                for k in ts.levels():
                    t = ts.on_grid(spec, k).values
                    for prof in d.profiles:
                        conv = apply_multiplier(mem.f, prof.multiplier(spec, k))
                        np.maximum(best, t * np.abs(conv.values), out=best)
                want = lp_norm(GridFunction(spec, best), 2.0)
                assert hardy_grand_norm(mem.f, ts, 2.0, d) == want

    def test_multipliers_built_once_per_level(self, spec1k, corpus1k, monkeypatch):
        from lpw.spaces import GrandProfile

        built = []
        orig = GrandProfile.multiplier

        def counted(self, spec, k):
            built.append(k)
            return orig(self, spec, k)

        monkeypatch.setattr(GrandProfile, "multiplier", counted)
        d = build_dictionary(spec1k)
        ts = WeightSequence(Pow(0.3), -3, 6, 2.0)
        first = [hardy_grand_norm(mem.f, ts, 2.0, d) for mem in corpus1k[:4]]
        assert len(built) == len(d.profiles) * len(ts.levels())
        assert sorted(set(built)) == list(ts.levels())
        # a second pass reuses every stack and gives the same values
        assert [hardy_grand_norm(mem.f, ts, 2.0, d) for mem in corpus1k[:4]] == first
        assert len(built) == len(d.profiles) * len(ts.levels())

    def test_nonfinite_seminorm_raises(self, monkeypatch):
        # max(best, nan) is best, so a NaN sample left unchecked would give
        # a finite but wrong normalisation
        import lpw.lpaley

        orig = lpw.lpaley.from_spectrum

        def poisoned(spec, F, real=True):
            out = orig(spec, F, real)
            out[0] = np.nan
            return out

        monkeypatch.setattr(lpw.lpaley, "from_spectrum", poisoned)
        with pytest.raises(GridError, match="not finite"):
            build_dictionary(GridSpec(1, 8.0, 256))

    def test_comparable_to_tl2(self, spec1k, pair1k, corpus1k):
        d = build_dictionary(spec1k)
        ts = WeightSequence(Const(1.0), -3, 6, 2.0)
        req = request(pair1k, Const(1.0), 2.0, 2.0)
        ratios = [
            hardy_grand_norm(mem.f, ts, 2.0, d) / tl_norm(mem.f, req) for mem in corpus1k[:6]
        ]
        assert max(ratios) / min(ratios) < 50
        assert all(0.001 < r < 1000 for r in ratios)


@pytest.fixture(scope="module")
def setup2d():
    from lpw.lpaley import make_lp_pair

    spec = GridSpec(2, 2.0, 64)
    pair = make_lp_pair(spec, -1, 4)
    return spec, pair


class TestTwoDimensional:
    def test_single_coefficient_identities_2d(self, setup2d):
        # the 2^(k n ...) factors must carry n = 2
        spec, pair = setup2d
        ws = WeightSequence(Pow(0.3), pair.k_min, pair.k_max, 2.0)
        for k0, m0 in ((0, (0, -1)), (2, (3, 1)), (3, (-4, 2))):
            coeffs = CoefficientSet.from_entries(2, spec.R, {(k0, m0): 1.0 - 0.25j})
            for fn, space, p, q in (
                (seq_b_norm, "b", 2.0, 3.0),
                (seq_f_norm, "f", 2.0, 3.0),
                (seq_f_norm, "f", 2.0, np.inf),
                (seq_f_infty_norm, "f_inf", np.inf, 2.0),
            ):
                req = NormRequest(space, p, q, ws, pair)
                plain, star = fn(coeffs, spec, req)
                assert plain == pytest.approx(star, rel=1e-12), (fn.__name__, k0, m0)

    def test_unit_weight_f_value_2d(self, setup2d):
        # n=2, p=q=2, t=1: the norm is 2^(k n (1/2 - 1/p)) |lambda| = |lambda|
        spec, pair = setup2d
        ws = WeightSequence(Const(1.0), pair.k_min, pair.k_max, 2.0)
        coeffs = CoefficientSet.from_entries(2, spec.R, {(2, (1, 1)): 3.0})
        plain, star = seq_f_norm(coeffs, spec, NormRequest("f", 2.0, 2.0, ws, pair))
        assert plain == pytest.approx(3.0, rel=1e-12)
        assert star == pytest.approx(3.0, rel=1e-12)

    def test_carleson_and_bmo_2d(self, setup2d, rng):
        from lpw.verify import make_corpus

        spec, pair = setup2d
        f = make_corpus(spec, pair, size=1, seed=21)[0].f
        ws = WeightSequence(Pow(0.3), pair.k_min, pair.k_max, 2.0)
        fam = CubeFamily(-1, 4, translates=True)
        req = NormRequest("F_inf", np.inf, 2.0, ws, pair, family=fam)
        val = tl_infty_norm(f, req)
        dbl = tl_infty_norm(f, NormRequest(
            "F_inf", np.inf, 2.0,
            WeightSequence(Const(2.0) * Pow(0.3), pair.k_min, pair.k_max, 2.0),
            pair, family=fam))
        assert val > 0
        assert dbl == pytest.approx(2 * val, rel=1e-12)
        g = GridFunction(spec, f.values + 7.0)
        assert bmo_norm(g, fam) == pytest.approx(bmo_norm(f, fam), rel=1e-9, abs=1e-12)


class TestBMO:
    def test_constants_vanish(self):
        spec = GridSpec(1, 2.0, 128)
        assert bmo_norm(GridFunction(spec, np.full(128, 4.2))) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self, rng):
        spec = GridSpec(1, 2.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        g = GridFunction(spec, f.values + 11.0)
        assert bmo_norm(g) == pytest.approx(bmo_norm(f), rel=1e-10, abs=1e-12)

    def test_indicator_half(self):
        # the balanced cube [0, 2) (or the translate [-1, 1)) attains 1/2
        spec = GridSpec(1, 2.0, 256)
        ax = spec.axis()
        f = GridFunction(spec, ((ax >= 0) & (ax < 1)).astype(float))
        assert bmo_norm(f) == pytest.approx(0.5, abs=1e-12)
