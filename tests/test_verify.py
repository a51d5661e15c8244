from collections import Counter

import numpy as np
import pytest

from lpw.grid import CubeFamily, GridFunction, GridSpec, lp_norm, weighted_lp_norm
from lpw.lpaley import make_lp_pair
from lpw.spaces import NormRequest, tl_norm
from lpw.verify import (
    classical_band_magnitudes,
    classical_besov_norm,
    classical_tl_norm,
    coincidence_check,
    delta_coefficient_check,
    holder_floors,
    make_corpus,
    ratio_report,
)
from lpw.weights import Const, FamilyNodes, Pow, Prod, ShiftPow, WeightSequence, parse_weight


@pytest.fixture(scope="module")
def nodes():
    return FamilyNodes(8.0, 1, CubeFamily(-4, 8))


WEIGHT_MATRIX = [
    "const:1",
    "pow:0.3",
    "pow:-0.2",
    "shiftpow:0.4,1",
    "shiftpow:-0.3,2",
    "dyadic:0.5",
    "prod:[dyadic:1,pow:0.3]",
    "prod:[dyadic:-0.5,shiftpow:0.25,1]",
    "dyadic:2",
]


class TestCorpus:
    def test_reproducible(self, spec1k, pair1k):
        a = make_corpus(spec1k, pair1k, size=6, seed=42)
        b = make_corpus(spec1k, pair1k, size=6, seed=42)
        for ma, mb in zip(a, b):
            assert ma.name == mb.name
            np.testing.assert_array_equal(ma.f.values, mb.f.values)

    def test_distinct_seeds_differ(self, spec1k, pair1k):
        a = make_corpus(spec1k, pair1k, size=4, seed=1)
        b = make_corpus(spec1k, pair1k, size=4, seed=2)
        assert not np.allclose(a[0].f.values, b[0].f.values)

    def test_resolution_independent_sampling(self, spec1k, pair1k):
        # the same seed at 2N samples the same trigonometric polynomial, so
        # the continuum spectra agree index by index
        from lpw.lpaley import spectrum

        spec2 = GridSpec(1, spec1k.R, spec1k.N * 2)
        pair2 = make_lp_pair(spec2, pair1k.k_min, pair1k.k_max)
        a = make_corpus(spec1k, pair1k, size=4, seed=11)
        b = make_corpus(spec2, pair2, size=4, seed=11)
        half = spec1k.N // 2
        for ma, mb in zip(a, b):
            Fa, Fb = spectrum(ma.f), spectrum(mb.f)
            np.testing.assert_allclose(Fa[:half], Fb[:half], atol=1e-9)
            np.testing.assert_allclose(Fa[-half:], Fb[-half:], atol=1e-9)

    @pytest.mark.parametrize("n,N,levels", [(1, 1024, (-3, 6)), (2, 32, (-1, 3))], ids=["1d", "2d"])
    def test_prefix_ends_with_the_indexed_member(self, n, N, levels):
        # members are drawn in order from one generator, so a corpus of
        # size i + 1 ends with member i of any larger corpus
        spec = GridSpec(n, 8.0 if n == 1 else 2.0, N)
        pair = make_lp_pair(spec, *levels)
        full = make_corpus(spec, pair, size=9, seed=5)
        for i, mem in enumerate(full):
            last = make_corpus(spec, pair, size=i + 1, seed=5)[-1]
            assert (last.name, last.kind) == (mem.name, mem.kind)
            assert np.array_equal(last.f.values, mem.f.values)

    def test_member_keys_must_index_the_grid(self):
        # a 1D frequency key on a 2D grid, or a pair on a 1D grid, is refused
        # rather than painted onto the wrong axis
        from lpw.verify import _member_from_coeffs

        with pytest.raises(ValueError, match="2D"):
            _member_from_coeffs(GridSpec(2, 2.0, 32), {3: 1.0}, "m", "multiband")
        with pytest.raises(ValueError, match="1D"):
            _member_from_coeffs(GridSpec(1, 2.0, 32), {(3, 1): 1.0}, "m", "multiband")

    def test_narrow_level_window(self):
        # levels -3..0 on R = 8 leave no level strictly between first_active
        # and k_max - 1 for the single-band draws; the corpus is still built
        from lpw.lpaley import calderon_residual

        spec = GridSpec(1, 8.0, 256)
        pair = make_lp_pair(spec, -3, 0)
        corpus = make_corpus(spec, pair, size=8, seed=3)
        assert [mem.kind for mem in corpus[:4]] == ["multiband", "single", "spike", "gauss"]
        for mem in corpus:
            assert lp_norm(mem.f, 2.0) == pytest.approx(1.0)
            assert calderon_residual(mem.f, pair) <= 1e-6


class TestEquivalence:
    def test_self_equivalence_exact(self, corpus1k):
        names = [m.name for m in corpus1k]
        rep = ratio_report(names, [lp_norm(m.f, 2.0) for m in corpus1k], [lp_norm(m.f, 2.0) for m in corpus1k])
        assert rep.min_ratio == 1.0 and rep.max_ratio == 1.0
        assert rep.passed

    def test_doubled_weight_ratio(self, spec1k, corpus1k):
        w = GridFunction(spec1k, Pow(0.3).on_grid(spec1k).values)
        w2 = GridFunction(spec1k, 2 * w.values)
        rep = ratio_report(
            [m.name for m in corpus1k],
            [weighted_lp_norm(m.f, w, 2.0) for m in corpus1k],
            [weighted_lp_norm(m.f, w2, 2.0) for m in corpus1k],
        )
        assert rep.min_ratio == pytest.approx(2.0, rel=1e-13)
        assert rep.max_ratio == pytest.approx(2.0, rel=1e-13)

    def test_symmetry_inverts(self, spec1k, pair1k, corpus1k):
        wsa = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max, 2.0)
        wsb = WeightSequence(ShiftPow(0.4, 1.0), pair1k.k_min, pair1k.k_max, 2.0)
        na = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, wsa, pair1k))
        nb = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, wsb, pair1k))
        names = [m.name for m in corpus1k]
        va, vb = [na(m.f) for m in corpus1k], [nb(m.f) for m in corpus1k]
        ab = ratio_report(names, va, vb)
        ba = ratio_report(names, vb, va)
        assert ab.max_ratio == pytest.approx(1 / ba.min_ratio, rel=1e-12)
        assert ab.min_ratio == pytest.approx(1 / ba.max_ratio, rel=1e-12)

    def test_report_invariants(self, spec1k, pair1k, corpus1k):
        # extremes bound every ratio and the witnesses reproduce them exactly
        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max, 2.0)
        na = lambda f: lp_norm(f, 2.0)
        nb = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, ws, pair1k))
        rep = ratio_report([m.name for m in corpus1k], [na(m.f) for m in corpus1k], [nb(m.f) for m in corpus1k])
        assert all(rep.min_ratio <= r <= rep.max_ratio for r in rep.ratios)
        by_name = dict(zip(rep.members, rep.ratios))
        assert by_name[rep.witness_min] == rep.min_ratio
        assert by_name[rep.witness_max] == rep.max_ratio
        wmin = next(m for m in corpus1k if m.name == rep.witness_min)
        assert nb(wmin.f) / na(wmin.f) == pytest.approx(rep.min_ratio, rel=1e-12)

    def test_zero_norm_members_excluded(self, spec1k, corpus1k):
        def broken(f):
            return 0.0 if abs(f.values[0]) > 0 else 1.0

        values = [broken(m.f) for m in corpus1k]
        with pytest.raises(ValueError):
            ratio_report([m.name for m in corpus1k], values, values)


class TestCoincidence:
    def test_scaled_weight_passes(self, nodes):
        for c in (0.1, 1.0, 7.0):
            res = coincidence_check(Pow(0.3), Prod((Const(c), Pow(0.3))), 2.0, 1.1, nodes)
            assert res.passed and not res.refused
            lo, hi = res.extremes["mean_p"]
            assert hi / lo == pytest.approx(1.0, rel=1e-12)

    def test_identical_weight(self, nodes):
        res = coincidence_check(ShiftPow(0.4, 1.0), ShiftPow(0.4, 1.0), 2.0, 1.1, nodes)
        assert res.passed
        assert res.extremes["mean_p"] == (1.0, 1.0)

    def test_opposite_powers_fail(self, nodes):
        res = coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes)
        assert not res.passed
        assert res.spread > 1e3

    def test_refusal_on_hypothesis_failure(self, nodes):
        # with a tight Muckenhoupt ceiling the hypothesis precheck refuses,
        # and the result still carries the diagnostics
        res = coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes, ap_ceiling=10.0)
        assert res.refused and not res.passed
        assert res.spread > 1e3

    def test_pass_implies_lp_equivalence(self, spec1k, corpus1k, nodes):
        # when the cube condition passes at ceiling C, the weighted Lebesgue
        # norms compare within C^2 on the corpus
        cases = [(Pow(0.3), Prod((Const(3.0), Pow(0.3)))), (ShiftPow(0.4, 1.0), ShiftPow(0.4, 1.0))]
        for t1, t2 in cases:
            res = coincidence_check(t1, t2, 2.0, 1.1, nodes)
            assert res.passed
            w1 = GridFunction(spec1k, t1.on_grid(spec1k).values)
            w2 = GridFunction(spec1k, t2.on_grid(spec1k).values)
            rep = ratio_report(
                [m.name for m in corpus1k],
                [weighted_lp_norm(m.f, w1, 2.0) for m in corpus1k],
                [weighted_lp_norm(m.f, w2, 2.0) for m in corpus1k],
                ceiling=res.ceiling**2,
            )
            assert rep.passed


class TestHoelderFloor:
    @pytest.mark.parametrize("text", WEIGHT_MATRIX)
    @pytest.mark.parametrize("p,theta", [(2.0, 1.2), (3.0, 1.5)])
    def test_floor(self, nodes, text, p, theta):
        assert holder_floors(parse_weight(text), [(p, theta)], nodes)[0] >= 1.0 - 1e-12

    def test_constant_weight_floor_is_one(self, nodes):
        val = holder_floors(Const(1.0), [(2.0, 1.2)], nodes)[0]
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_frozen_dyadic_floor_is_one(self, nodes):
        # pure level scaling cancels in the product
        from lpw.weights import Dyadic

        val = holder_floors(Dyadic(1.0).frozen(3), [(2.0, 1.2)], nodes)[0]
        assert val == pytest.approx(1.0, abs=1e-12)


class TestDeltaCoefficients:
    def test_identical(self, spec1k):
        ok, info = delta_coefficient_check(
            Pow(0.3), Pow(0.3), 2.0, 2.0, spec1k, range(-2, 6)
        )
        assert ok
        assert info["spread"] == pytest.approx(1.0, rel=1e-12)

    def test_triple_ratio(self, spec1k):
        ok, info = delta_coefficient_check(
            Pow(0.3), Prod((Const(3.0), Pow(0.3))), 2.0, 2.0, spec1k, range(-2, 6)
        )
        assert ok
        assert info["min"] == pytest.approx(1 / 3, rel=1e-12)
        assert info["max"] == pytest.approx(1 / 3, rel=1e-12)

    def test_opposite_powers_fail(self, spec1k):
        # deep origin-adjacent cubes separate the two weights
        ok, info = delta_coefficient_check(
            Pow(0.3), Pow(-0.3), 2.0, 2.0, spec1k, range(-2, 7)
        )
        assert not ok
        assert info["spread"] > 50


class TestFrozenLevelNondegenerate:
    def test_bounded_modulation_stays_equivalent(self, spec1k, pair1k, corpus1k):
        # k-dependent but boundedly modulated: t_k = 2^((-1)^k) |x|^0.3 sits in
        # the zero-rate class, so norms against any frozen level stay within a
        # factor 2 of each other, uniformly in the frozen level
        from lpw.weights import AltConst

        # modulation values are 2 and 1/2, so frozen-vs-sequence ratios live
        # in [1/4, 4] and the per-level spreads must be uniformly bounded
        ws = WeightSequence(Prod((AltConst(2.0), Pow(0.3))), pair1k.k_min, pair1k.k_max, 2.0)
        names = [m.name for m in corpus1k]
        seq_vals = [tl_norm(m.f, NormRequest("F", 2.0, 2.0, ws, pair1k)) for m in corpus1k]
        spreads = {}
        for j in range(-3, 4):
            frozen = ws.frozen(j)
            vals_j = [tl_norm(m.f, NormRequest("F", 2.0, 2.0, frozen, pair1k)) for m in corpus1k]
            rep = ratio_report(names, seq_vals, vals_j, ceiling=4.0)
            assert rep.passed
            assert 0.25 - 1e-12 <= rep.min_ratio and rep.max_ratio <= 4.0 + 1e-12
            spreads[j] = rep.spread
        assert max(spreads.values()) > 1.0 + 1e-6  # genuinely nondegenerate
        assert max(spreads.values()) / min(spreads.values()) < 2.0


class TestTransformNormEquivalence:
    def test_coefficient_norms_match_function_norms(self, spec1k, pair1k, corpus1k):
        # the coefficient map should carry the band norms onto the sequence
        # norms with uniformly comparable sizes; this exercises the whole
        # 2^(k n / 2) normalization chain end to end
        from lpw.lpaley import analyze
        from lpw.spaces import besov_norm, seq_b_norm, seq_f_norm

        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max, 2.0)
        req_f = NormRequest("F", 2.0, 2.0, ws, pair1k)
        req_b = NormRequest("B", 2.0, 1.0, ws, pair1k)
        ratios_f, ratios_b = [], []
        for mem in corpus1k[:8]:
            coeffs = analyze(mem.f, pair1k)
            plain_f, _ = seq_f_norm(coeffs, spec1k, req_f)
            ratios_f.append(plain_f / tl_norm(mem.f, req_f))
            plain_b, _ = seq_b_norm(coeffs, spec1k, req_b)
            ratios_b.append(plain_b / besov_norm(mem.f, req_b))
        for ratios in (ratios_f, ratios_b):
            assert max(ratios) / min(ratios) < 10
            assert 0.1 < min(ratios) and max(ratios) < 10


def former_classical_besov_norm(f, pair, s, p, q):
    """classical_besov_norm as it was written before the band magnitudes were
    shared: one fftn of f and one ifftn per level on every call."""
    vals = []
    F = np.fft.fftn(f.values)
    cell = f.spec.cell_measure
    for k in pair.levels():
        bk = np.fft.ifftn(pair.phi_mult[k] * F)
        if np.isrealobj(f.values):
            bk = bk.real
        a = np.abs(bk)
        if np.isinf(p):
            term = a.max()
        else:
            term = (cell * (a**p).sum()) ** (1.0 / p)
        vals.append(2.0 ** (s * k) * term)
    arr = np.array(vals)
    if np.isinf(q):
        return float(arr.max())
    return float((arr**q).sum() ** (1.0 / q))


def former_classical_tl_norm(f, pair, s, p, q):
    """classical_tl_norm as it was written before the band magnitudes were shared."""
    F = np.fft.fftn(f.values)
    cell = f.spec.cell_measure
    agg = None
    for k in pair.levels():
        bk = np.fft.ifftn(pair.phi_mult[k] * F)
        if np.isrealobj(f.values):
            bk = bk.real
        a = 2.0 ** (s * k) * np.abs(bk)
        if np.isinf(q):
            agg = a if agg is None else np.maximum(agg, a)
        else:
            agg = a**q if agg is None else agg + a**q
    if not np.isinf(q):
        agg = agg ** (1.0 / q)
    if np.isinf(p):
        return float(agg.max())
    return float((cell * (agg**p).sum()) ** (1.0 / p))


@pytest.fixture(scope="module")
def small_2d():
    spec = GridSpec(2, 2.0, 64)
    pair = make_lp_pair(spec, -1, 3)
    return pair, make_corpus(spec, pair, size=2, seed=5)


class TestClassicalPaths:
    def test_shared_magnitudes_equal_former_formula(self, pair1k, corpus1k, small_2d):
        pair2d, corpus2d = small_2d
        for pair, corpus in ((pair1k, corpus1k[:4]), (pair2d, corpus2d)):
            for mem in corpus:
                bands = classical_band_magnitudes(mem.f, pair)
                assert list(bands.levels) == list(pair.levels())
                for s in (-1.0, 0.0, 0.5, 2.0):
                    for p, q in ((2.0, 2.0), (2.0, np.inf), (1.5, 3.0), (np.inf, 2.0), (np.inf, np.inf)):
                        assert classical_besov_norm(bands, s, p, q) == former_classical_besov_norm(mem.f, pair, s, p, q)
                        assert classical_tl_norm(bands, s, p, q) == former_classical_tl_norm(mem.f, pair, s, p, q)

    def test_magnitudes_take_one_transform_per_level(self, pair1k, corpus1k, fft_calls):
        bands = classical_band_magnitudes(corpus1k[0].f, pair1k)
        assert fft_calls == {"fftn": 1, "ifftn": len(pair1k.levels())}
        classical_besov_norm(bands, 0.5, 2.0, 2.0)
        classical_tl_norm(bands, 0.5, 2.0, np.inf)
        assert fft_calls == {"fftn": 1, "ifftn": len(pair1k.levels())}

    def test_coincide_with_direct_formula(self, spec1k, pair1k, corpus1k, rng):
        # independent implementation sanity: s = 0, q = p = 2 reduces to the
        # square function whose norm the frame bounds control
        f = corpus1k[0].f
        v = classical_tl_norm(classical_band_magnitudes(f, pair1k), 0.0, 2.0, 2.0)
        l2 = lp_norm(f, 2.0)
        assert 0.9 * l2 <= v <= 1.5 * l2

    def test_besov_q_inf(self, pair1k, corpus1k):
        f = corpus1k[1].f
        got = classical_besov_norm(classical_band_magnitudes(f, pair1k), 0.5, 2.0, np.inf)
        from lpw.lpaley import band

        want = max(
            2.0 ** (0.5 * k) * lp_norm(band(f, pair1k, k), 2.0) for k in pair1k.levels()
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestSuiteStackCounts:
    """newnorm and classical form each member's weighted stack once per
    weight sequence, and the classical oracle transforms each member once."""

    @pytest.fixture
    def ctx(self):
        from lpw.suites import RunContext

        ctx = RunContext(GridSpec(1, 8.0, 512), -3, 5, CubeFamily(-4, 6, True, 2048), corpus_size=4)
        ctx.bands()
        return ctx

    def count_weigh(self, monkeypatch):
        calls = []
        orig = WeightSequence.weigh

        def counted(ws, fs, nonneg=False):
            calls.append((ws.spec, nonneg))
            return orig(ws, fs, nonneg)

        monkeypatch.setattr(WeightSequence, "weigh", counted)
        return calls

    def test_newnorm_weighs_each_sequence_once_per_member(self, ctx, monkeypatch):
        from lpw.suites import suite_newnorm

        calls = self.count_weigh(monkeypatch)
        res = suite_newnorm(ctx)
        assert len(res["records"]) == 2 * 5
        # 2 weights x ({t_k} and 7 frozen t_j) x 4 members, not x 5 cases
        assert len(calls) == 2 * 8 * 4
        assert all(nonneg for _, nonneg in calls)
        assert all(n == 4 for n in Counter(spec for spec, _ in calls).values())

    def test_classical_weighs_once_per_s_and_transforms_once_per_member(self, ctx, monkeypatch, fft_calls):
        from lpw.suites import suite_classical

        calls = self.count_weigh(monkeypatch)
        res = suite_classical(ctx)
        assert res["pass"] and len(res["records"]) == 4 * 2
        assert len(calls) == 4 * 4
        assert fft_calls == {"fftn": 4, "ifftn": 4 * len(ctx.pair().levels())}


class TestSuiteBandReuse:
    def test_bmo_and_coincidence_reuse_corpus_bands(self, monkeypatch):
        # once the run context holds the corpus bands, bmo decomposes nothing
        # and coincidence only its four spike witnesses, each once
        import lpw.spaces
        import lpw.suites
        from lpw.suites import RunContext, suite_bmo, suite_coincidence

        ctx = RunContext(GridSpec(1, 8.0, 512), -3, 5, CubeFamily(-4, 6, True, 2048), corpus_size=4)
        ctx.bands()
        calls = []
        for mod in (lpw.spaces, lpw.suites):
            def counted(f, pair, _orig=mod.band_decompose):
                calls.append(f)
                return _orig(f, pair)

            monkeypatch.setattr(mod, "band_decompose", counted)
        suite_bmo(ctx)
        assert calls == []
        suite_coincidence(ctx)
        assert len(calls) == 4
