import numpy as np
import pytest

from lpw.grid import CubeFamily, GridFunction, GridSpec, lp_norm, weighted_lp_norm
from lpw.lpaley import make_lp_pair
from lpw.spaces import NormRequest, tl_norm
from lpw.verify import (
    CoincidenceRefusal,
    classical_besov_norm,
    classical_tl_norm,
    coincidence_check,
    delta_coefficient_check,
    equivalence_report,
    holder_floor_check,
    make_corpus,
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
        norm = lambda f: lp_norm(f, 2.0)
        rep = equivalence_report(norm, norm, corpus1k)
        assert rep.min_ratio == 1.0 and rep.max_ratio == 1.0
        assert rep.passed

    def test_doubled_weight_ratio(self, spec1k, corpus1k):
        w = GridFunction(spec1k, Pow(0.3).on_grid(spec1k).values)
        w2 = GridFunction(spec1k, 2 * w.values)
        rep = equivalence_report(
            lambda f: weighted_lp_norm(f, w, 2.0),
            lambda f: weighted_lp_norm(f, w2, 2.0),
            corpus1k,
        )
        assert rep.min_ratio == pytest.approx(2.0, rel=1e-13)
        assert rep.max_ratio == pytest.approx(2.0, rel=1e-13)

    def test_symmetry_inverts(self, spec1k, pair1k, corpus1k):
        wsa = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max, 2.0)
        wsb = WeightSequence(ShiftPow(0.4, 1.0), pair1k.k_min, pair1k.k_max, 2.0)
        na = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, wsa, pair1k))
        nb = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, wsb, pair1k))
        ab = equivalence_report(na, nb, corpus1k)
        ba = equivalence_report(nb, na, corpus1k)
        assert ab.max_ratio == pytest.approx(1 / ba.min_ratio, rel=1e-12)
        assert ab.min_ratio == pytest.approx(1 / ba.max_ratio, rel=1e-12)

    def test_report_invariants(self, spec1k, pair1k, corpus1k):
        # extremes bound every ratio and the witnesses reproduce them exactly
        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max, 2.0)
        na = lambda f: lp_norm(f, 2.0)
        nb = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, ws, pair1k))
        rep = equivalence_report(na, nb, corpus1k)
        assert all(rep.min_ratio <= r <= rep.max_ratio for r in rep.ratios)
        by_name = dict(zip(rep.members, rep.ratios))
        assert by_name[rep.witness_min] == rep.min_ratio
        assert by_name[rep.witness_max] == rep.max_ratio
        wmin = next(m for m in corpus1k if m.name == rep.witness_min)
        assert nb(wmin.f) / na(wmin.f) == pytest.approx(rep.min_ratio, rel=1e-12)

    def test_zero_norm_members_excluded(self, spec1k, corpus1k):
        def broken(f):
            return 0.0 if abs(f.values[0]) > 0 else 1.0

        with pytest.raises(ValueError):
            equivalence_report(broken, broken, corpus1k)


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
        res = coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes, strict=False)
        assert not res.passed
        assert res.spread > 1e3

    def test_refusal_on_hypothesis_failure(self, nodes):
        # with a tight Muckenhoupt ceiling the hypothesis precheck refuses
        # outright, carrying the diagnostics on the exception
        with pytest.raises(CoincidenceRefusal) as exc:
            coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes, ap_ceiling=10.0)
        res = exc.value.result
        assert res.refused and not res.passed
        assert res.spread > 1e3
        res2 = coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes, ap_ceiling=10.0, strict=False)
        assert res2.refused and not res2.passed

    def test_pass_implies_lp_equivalence(self, spec1k, corpus1k, nodes):
        # when the cube condition passes at ceiling C, the weighted Lebesgue
        # norms compare within C^2 on the corpus
        cases = [(Pow(0.3), Prod((Const(3.0), Pow(0.3)))), (ShiftPow(0.4, 1.0), ShiftPow(0.4, 1.0))]
        for t1, t2 in cases:
            res = coincidence_check(t1, t2, 2.0, 1.1, nodes)
            assert res.passed
            w1 = GridFunction(spec1k, t1.on_grid(spec1k).values)
            w2 = GridFunction(spec1k, t2.on_grid(spec1k).values)
            rep = equivalence_report(
                lambda f: weighted_lp_norm(f, w1, 2.0),
                lambda f: weighted_lp_norm(f, w2, 2.0),
                corpus1k,
                ceiling=res.ceiling**2,
            )
            assert rep.passed


class TestHoelderFloor:
    @pytest.mark.parametrize("text", WEIGHT_MATRIX)
    @pytest.mark.parametrize("p,theta", [(2.0, 1.2), (3.0, 1.5)])
    def test_floor(self, nodes, text, p, theta):
        assert holder_floor_check(parse_weight(text), p, theta, nodes) >= 1.0 - 1e-12

    def test_constant_weight_floor_is_one(self, nodes):
        val = holder_floor_check(Const(1.0), 2.0, 1.2, nodes)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_frozen_dyadic_floor_is_one(self, nodes):
        # pure level scaling cancels in the product
        from lpw.weights import Dyadic

        val = holder_floor_check(Dyadic(1.0).frozen(3), 2.0, 1.2, nodes)
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
        norm_seq = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, ws, pair1k))
        spreads = {}
        for j in range(-3, 4):
            frozen = ws.frozen(j)
            norm_j = lambda f: tl_norm(f, NormRequest("F", 2.0, 2.0, frozen, pair1k))
            rep = equivalence_report(norm_seq, norm_j, corpus1k, ceiling=4.0)
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


class TestClassicalPaths:
    def test_coincide_with_direct_formula(self, spec1k, pair1k, corpus1k, rng):
        # independent implementation sanity: s = 0, q = p = 2 reduces to the
        # square function whose norm the frame bounds control
        f = corpus1k[0].f
        v = classical_tl_norm(f, pair1k, 0.0, 2.0, 2.0)
        l2 = lp_norm(f, 2.0)
        assert 0.9 * l2 <= v <= 1.5 * l2

    def test_besov_q_inf(self, pair1k, corpus1k):
        f = corpus1k[1].f
        got = classical_besov_norm(f, pair1k, 0.5, 2.0, np.inf)
        from lpw.lpaley import band

        want = max(
            2.0 ** (0.5 * k) * lp_norm(band(f, pair1k, k), 2.0) for k in pair1k.levels()
        )
        assert got == pytest.approx(want, rel=1e-12)


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
