from collections import Counter

import numpy as np
import pytest

from lpw.grid import CubeFamily, GridError, GridFunction, GridSpec, level_index_range, lp_norm, weighted_lp_norm
from lpw.lpaley import make_lp_pair
from lpw.spaces import band_magnitudes, stack_norm
from lpw.suites import CEILINGS
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

# the pinned ceilings the suites pass: equivalence, and the coincidence pair
EQ = CEILINGS["equivalence"]
CO = (CEILINGS["coincidence"], CEILINGS["ap_hypothesis"])


def l2(f):
    """||f|L_2|| of a grid function: lp_norm of its magnitudes."""
    return lp_norm(np.abs(f.values), f.spec.cell_measure, 2.0)


def f22_norm(f, pair, ws):
    """The band norm F_{2,2} of f under the weight sequence ws on pair."""
    return stack_norm(ws.weigh(band_magnitudes(f, pair)), "F", 2.0, 2.0, CubeFamily(pair.k_min, pair.k_max))


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


def scalar_corpus_1d(spec, pair, size, seed):
    """make_corpus in 1D with each spike and gauss coefficient formed one
    frequency at a time, drawing from the generator in the same order."""
    import math

    from lpw.verify import _member_from_coeffs, annulus_indices

    rng = np.random.default_rng(seed)
    j_lo, j_hi = annulus_indices(spec, pair)
    kinds = ["multiband", "single", "spike", "gauss"]
    members = []
    for i in range(size):
        kind = kinds[i % 4]
        if kind == "multiband":
            coeffs = {}
            for j in rng.integers(j_lo, j_hi + 1, size=int(rng.integers(8, 25))):
                coeffs[int(j)] = coeffs.get(int(j), 0) + complex(rng.normal(), rng.normal())
        elif kind == "single":
            k0 = int(rng.integers(pair.first_active + 1, max(pair.first_active + 2, pair.k_max - 1)))
            lo = max(j_lo, math.ceil(2.0**k0 / spec.fundamental))
            hi = min(j_hi, math.floor(2.0 ** (k0 + 1) / spec.fundamental))
            if hi < lo:
                lo, hi = j_lo, min(j_hi, j_lo + 4)
            coeffs = {int(j): complex(rng.normal(), rng.normal()) for j in rng.integers(lo, hi + 1, size=6)}
        elif kind == "spike":
            step = (i // 4) % 4
            lo = max(j_lo, j_hi // 2**step if step else j_lo)
            x0 = float(rng.uniform(-spec.R, spec.R))
            js = np.arange(lo, j_hi + 1)
            env = np.sin(np.pi * (js - lo + 0.5) / (j_hi - lo + 1)) ** 2
            coeffs = {int(j): complex(e * np.exp(-1j * (np.pi * j / spec.R) * x0)) for j, e in zip(js, env)}
        else:
            mid = math.sqrt(j_lo * j_hi)
            center = float(rng.uniform(mid / 2, mid * 2))
            widthj = max(2.0, center / 4)
            x0 = float(rng.uniform(-spec.R, spec.R))
            js = np.arange(j_lo, j_hi + 1)
            env = np.exp(-0.5 * ((js - center) / widthj) ** 2)
            coeffs = {int(j): complex(e * np.exp(-1j * (np.pi * j / spec.R) * x0))
                      for j, e in zip(js, env) if e > 1e-12}
        members.append(_member_from_coeffs(spec, coeffs, f"{kind}{i:02d}"))
    return members


def scalar_spike_family(spec, pair):
    """spike_family with each coefficient formed one frequency at a time."""
    from lpw.verify import _member_from_coeffs, annulus_indices

    j_lo, j_hi = annulus_indices(spec, pair)
    out = []
    for step in range(4):
        lo = max(j_lo, j_hi >> (step + 1))
        js = np.arange(lo, j_hi + 1)
        env = np.sin(np.pi * (js - lo + 0.5) / (j_hi - lo + 1)) ** 2
        out.append(_member_from_coeffs(spec, {int(j): complex(e) for j, e in zip(js, env)}, f"origin_spike{step}"))
    return out


class TestCorpus:
    @pytest.mark.parametrize("N,R,levels,seed", [(1024, 8.0, (-3, 6), 7), (4096, 16.0, (-3, 7), 20260808),
                                                 (256, 8.0, (-3, 0), 3), (512, 4.0, (-2, 5), 11)])
    def test_array_coefficients_equal_the_scalar_formula(self, N, R, levels, seed):
        # the spike and gauss coefficients are formed as arrays; every member
        # and every origin spike equals the one-frequency-at-a-time formula
        # byte for byte
        from lpw.verify import spike_family

        spec = GridSpec(1, R, N)
        pair = make_lp_pair(spec, *levels)
        for got, want in ((make_corpus(spec, pair, 40, seed), scalar_corpus_1d(spec, pair, 40, seed)),
                          (spike_family(spec, pair), scalar_spike_family(spec, pair))):
            assert [mem.name for mem in got] == [mem.name for mem in want]
            for a, b in zip(got, want):
                assert a.f.values.tobytes() == b.f.values.tobytes()
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
        # the continuum spectra agree index by index in magnitude (h |FFT|),
        # and its coefficients, band values at the same lattice points, agree
        from lpw.lpaley import analyze

        spec2 = GridSpec(1, spec1k.R, spec1k.N * 2)
        pair2 = make_lp_pair(spec2, pair1k.k_min, pair1k.k_max)
        a = make_corpus(spec1k, pair1k, size=4, seed=11)
        b = make_corpus(spec2, pair2, size=4, seed=11)
        half = spec1k.N // 2
        for ma, mb in zip(a, b):
            Fa, Fb = (mem.f.spec.h * np.abs(np.fft.fft(mem.f.values)) for mem in (ma, mb))
            np.testing.assert_allclose(Fa[:half], Fb[:half], atol=1e-9)
            np.testing.assert_allclose(Fa[-half:], Fb[-half:], atol=1e-9)
            for ca, cb in zip(analyze(ma.f, pair1k).arrays, analyze(mb.f, pair2).arrays):
                np.testing.assert_allclose(ca, cb, atol=1e-9)

    @pytest.mark.parametrize("n,N,levels", [(1, 1024, (-3, 6)), (2, 32, (-1, 3))], ids=["1d", "2d"])
    def test_prefix_ends_with_the_indexed_member(self, n, N, levels):
        # members are drawn in order from one generator, so a corpus of
        # size i + 1 ends with member i of any larger corpus
        spec = GridSpec(n, 8.0 if n == 1 else 2.0, N)
        pair = make_lp_pair(spec, *levels)
        full = make_corpus(spec, pair, size=9, seed=5)
        for i, mem in enumerate(full):
            last = make_corpus(spec, pair, size=i + 1, seed=5)[-1]
            assert last.name == mem.name
            assert np.array_equal(last.f.values, mem.f.values)

    def test_member_keys_must_index_the_grid(self):
        # a 1D frequency key on a 2D grid, or a pair on a 1D grid, is refused
        # rather than painted onto the wrong axis
        from lpw.verify import _member_from_coeffs

        with pytest.raises(ValueError, match="2D"):
            _member_from_coeffs(GridSpec(2, 2.0, 32), {3: 1.0}, "m")
        with pytest.raises(ValueError, match="1D"):
            _member_from_coeffs(GridSpec(1, 2.0, 32), {(3, 1): 1.0}, "m")

    def test_narrow_level_window(self):
        # levels -3..0 on R = 8 leave no level strictly between first_active
        # and k_max - 1 for the single-band draws; the corpus is still built
        from lpw.lpaley import calderon_residual

        spec = GridSpec(1, 8.0, 256)
        pair = make_lp_pair(spec, -3, 0)
        corpus = make_corpus(spec, pair, size=8, seed=3)
        # a member's name is its kind and its index
        assert [mem.name for mem in corpus[:4]] == ["multiband00", "single01", "spike02", "gauss03"]
        for mem in corpus:
            assert l2(mem.f) == pytest.approx(1.0)
            assert calderon_residual(mem.f, pair) <= 1e-6


class TestEquivalence:
    def test_self_equivalence_exact(self, corpus1k):
        names = [m.name for m in corpus1k]
        rep = ratio_report(names, [l2(m.f) for m in corpus1k], [l2(m.f) for m in corpus1k], EQ)
        assert rep["min_ratio"] == 1.0 and rep["max_ratio"] == 1.0
        assert rep["pass"]

    def test_doubled_weight_ratio(self, spec1k, corpus1k):
        w = GridFunction(spec1k, Pow(0.3).on_grid(spec1k).values)
        w2 = GridFunction(spec1k, 2 * w.values)
        rep = ratio_report(
            [m.name for m in corpus1k],
            [weighted_lp_norm(m.f, w, 2.0) for m in corpus1k],
            [weighted_lp_norm(m.f, w2, 2.0) for m in corpus1k],
            EQ,
        )
        assert rep["min_ratio"] == pytest.approx(2.0, rel=1e-13)
        assert rep["max_ratio"] == pytest.approx(2.0, rel=1e-13)

    def test_symmetry_inverts(self, spec1k, pair1k, corpus1k):
        wsa = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max)
        wsb = WeightSequence(ShiftPow(0.4, 1.0), pair1k.k_min, pair1k.k_max)
        na = lambda f: f22_norm(f, pair1k, wsa)
        nb = lambda f: f22_norm(f, pair1k, wsb)
        names = [m.name for m in corpus1k]
        va, vb = [na(m.f) for m in corpus1k], [nb(m.f) for m in corpus1k]
        ab = ratio_report(names, va, vb, EQ)
        ba = ratio_report(names, vb, va, EQ)
        assert ab["max_ratio"] == pytest.approx(1 / ba["min_ratio"], rel=1e-12)
        assert ab["min_ratio"] == pytest.approx(1 / ba["max_ratio"], rel=1e-12)

    def test_report_invariants(self, spec1k, pair1k, corpus1k):
        # extremes bound every ratio and the witnesses reproduce them exactly
        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max)
        na = l2
        nb = lambda f: f22_norm(f, pair1k, ws)
        rep = ratio_report([m.name for m in corpus1k], [na(m.f) for m in corpus1k], [nb(m.f) for m in corpus1k], EQ)
        assert all(rep["min_ratio"] <= r <= rep["max_ratio"] for r in rep["ratios"])
        by_name = dict(zip(rep["members"], rep["ratios"]))
        assert by_name[rep["witness_min"]] == rep["min_ratio"]
        assert by_name[rep["witness_max"]] == rep["max_ratio"]
        wmin = next(m for m in corpus1k if m.name == rep["witness_min"])
        assert nb(wmin.f) / na(wmin.f) == pytest.approx(rep["min_ratio"], rel=1e-12)

    def test_zero_norm_members_excluded(self, spec1k, corpus1k):
        def broken(f):
            return 0.0 if abs(f.values[0]) > 0 else 1.0

        values = [broken(m.f) for m in corpus1k]
        with pytest.raises(ValueError):
            ratio_report([m.name for m in corpus1k], values, values, EQ)


class TestCoincidence:
    def test_scaled_weight_passes(self, nodes):
        for c in (0.1, 1.0, 7.0):
            res = coincidence_check(Pow(0.3), Prod((Const(c), Pow(0.3))), 2.0, 1.1, nodes, *CO)
            assert res["pass"] and not res["refused"]
            lo, hi = res["extremes"]["mean_p"]
            assert hi / lo == pytest.approx(1.0, rel=1e-12)

    def test_identical_weight(self, nodes):
        res = coincidence_check(ShiftPow(0.4, 1.0), ShiftPow(0.4, 1.0), 2.0, 1.1, nodes, *CO)
        assert res["pass"]
        assert res["extremes"]["mean_p"] == (1.0, 1.0)

    def test_opposite_powers_fail(self, nodes):
        res = coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes, *CO)
        assert not res["pass"]
        assert res["spread"] > 1e3

    def test_refusal_on_hypothesis_failure(self, nodes):
        # with a tight Muckenhoupt ceiling the hypothesis precheck refuses,
        # and the result still carries the diagnostics
        res = coincidence_check(Pow(0.3), Pow(-0.3), 2.0, 1.5, nodes, CO[0], ap_ceiling=10.0)
        assert res["refused"] and not res["pass"]
        assert res["spread"] > 1e3

    def test_pass_implies_lp_equivalence(self, spec1k, corpus1k, nodes):
        # when the cube condition passes at ceiling C, the weighted Lebesgue
        # norms compare within C^2 on the corpus
        cases = [(Pow(0.3), Prod((Const(3.0), Pow(0.3)))), (ShiftPow(0.4, 1.0), ShiftPow(0.4, 1.0))]
        for t1, t2 in cases:
            res = coincidence_check(t1, t2, 2.0, 1.1, nodes, *CO)
            assert res["pass"]
            w1 = GridFunction(spec1k, t1.on_grid(spec1k).values)
            w2 = GridFunction(spec1k, t2.on_grid(spec1k).values)
            rep = ratio_report(
                [m.name for m in corpus1k],
                [weighted_lp_norm(m.f, w1, 2.0) for m in corpus1k],
                [weighted_lp_norm(m.f, w2, 2.0) for m in corpus1k],
                ceiling=res["ceiling"] ** 2,
            )
            assert rep["pass"]


class TestRecordLayout:
    """Each check returns the record that report.json holds, with the keys
    the report has always had."""

    def test_ratio_report(self):
        rep = ratio_report(["a", "b", "c"], [1.0, 2.0, 0.0], [2.0, 2.0, 1.0], EQ)
        assert set(rep) == {"norm_a", "norm_b", "ratios", "members", "excluded", "min_ratio", "max_ratio",
                            "witness_min", "witness_max", "spread", "ceiling", "pass"}
        assert rep["members"] == ["a", "b"] and rep["excluded"] == ["c"] and rep["spread"] == 2.0

    def test_coincidence_check(self, nodes):
        res = coincidence_check(Pow(0.3), Pow(0.3), 2.0, 1.1, nodes, *CO)
        assert set(res) == {"pass", "refused", "hypothesis", "extremes", "spread", "ceiling"}
        assert set(res["hypothesis"]) == {"ap_t1", "ap_t2", "ap_ceiling"}
        assert set(res["extremes"]) == {"mean_p", "mean_sigma1"}


class TestHoelderFloor:
    @pytest.mark.parametrize("text", WEIGHT_MATRIX)
    @pytest.mark.parametrize("p,theta", [(2.0, 1.2), (3.0, 1.5)])
    def test_floor(self, nodes, text, p, theta):
        assert holder_floors([parse_weight(text)], [(p, theta)], nodes)[0][0] >= 1.0 - 1e-12

    def test_constant_weight_floor_is_one(self, nodes):
        ((val,),) = holder_floors([Const(1.0)], [(2.0, 1.2)], nodes)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_frozen_dyadic_floor_is_one(self, nodes):
        # pure level scaling cancels in the product
        from lpw.weights import Dyadic

        ((val,),) = holder_floors([Dyadic(1.0).frozen(3)], [(2.0, 1.2)], nodes)
        assert val == pytest.approx(1.0, abs=1e-12)


class TestDeltaCoefficients:
    def test_identical(self, spec1k):
        ok, info = delta_coefficient_check(
            Pow(0.3), Pow(0.3), 2.0, spec1k, range(-2, 6), CO[0]
        )
        assert ok
        assert info["spread"] == pytest.approx(1.0, rel=1e-12)

    def test_triple_ratio(self, spec1k):
        ok, info = delta_coefficient_check(
            Pow(0.3), Prod((Const(3.0), Pow(0.3))), 2.0, spec1k, range(-2, 6), CO[0]
        )
        assert ok
        assert info["min"] == pytest.approx(1 / 3, rel=1e-12)
        assert info["max"] == pytest.approx(1 / 3, rel=1e-12)

    def test_opposite_powers_fail(self, spec1k):
        # deep origin-adjacent cubes separate the two weights
        ok, info = delta_coefficient_check(
            Pow(0.3), Pow(-0.3), 2.0, spec1k, range(-2, 7), CO[0]
        )
        assert not ok
        assert info["spread"] > 50

    @pytest.mark.parametrize("n", [1, 2])
    def test_pinned_to_per_cube_slices(self, n):
        # spread, min and max bit for bit against the cube norms summed one
        # diagonal cube at a time over its own cells, [i S, (i + 1) S) per
        # axis, on every level of the window (the coarsest one's cubes are
        # half the domain)
        spec, levels, p = GridSpec(n, 2.0, 64), range(-2, 5), 1.5
        t1, t2 = Pow(0.3), parse_weight("prod:[dyadic:0.5,shiftpow:-0.4,1]")
        ratios = []
        for k in levels:
            lo, hi = level_index_range(spec.R, k)
            S = spec.N // (hi - lo)
            for r in (0.5, 0.66, 0.95):
                i = int(r * (hi - lo - 1))
                cells = (slice(i * S, (i + 1) * S),) * n
                n1, n2 = (lp_norm(np.abs(t.on_grid(spec, k).values[cells]), spec.cell_measure, p) for t in (t1, t2))
                ratios.append(n1 / n2)
        ok, info = delta_coefficient_check(t1, t2, p, spec, levels, CO[0])
        assert (info["min"], info["max"]) == (min(ratios), max(ratios))
        assert info["spread"] == max(ratios) / min(ratios)
        assert ok == (info["spread"] <= 50.0)
        with pytest.raises(GridError, match="level 5 cubes"):
            delta_coefficient_check(t1, t2, p, spec, range(-2, 6), CO[0])


class TestFrozenLevelNondegenerate:
    def test_bounded_modulation_stays_equivalent(self, spec1k, pair1k, corpus1k):
        # k-dependent but boundedly modulated: t_k = 2^((-1)^k) |x|^0.3 sits in
        # the zero-rate class, so norms against any frozen level stay within a
        # factor 2 of each other, uniformly in the frozen level
        from lpw.weights import AltConst

        # modulation values are 2 and 1/2, so frozen-vs-sequence ratios live
        # in [1/4, 4] and the per-level spreads must be uniformly bounded
        ws = WeightSequence(Prod((AltConst(2.0), Pow(0.3))), pair1k.k_min, pair1k.k_max)
        names = [m.name for m in corpus1k]
        seq_vals = [f22_norm(m.f, pair1k, ws) for m in corpus1k]
        spreads = {}
        for j in range(-3, 4):
            frozen = ws.frozen(j)
            vals_j = [f22_norm(m.f, pair1k, frozen) for m in corpus1k]
            rep = ratio_report(names, seq_vals, vals_j, ceiling=4.0)
            assert rep["pass"]
            assert 0.25 - 1e-12 <= rep["min_ratio"] and rep["max_ratio"] <= 4.0 + 1e-12
            spreads[j] = rep["spread"]
        assert max(spreads.values()) > 1.0 + 1e-6  # genuinely nondegenerate
        assert max(spreads.values()) / min(spreads.values()) < 2.0


class TestTransformNormEquivalence:
    def test_coefficient_norms_match_function_norms(self, spec1k, pair1k, corpus1k):
        # the coefficient map should carry the band norms onto the sequence
        # norms with uniformly comparable sizes; this exercises the whole
        # 2^(k n / 2) normalization chain end to end
        from lpw.lpaley import analyze
        from lpw.spaces import seq_b_norm, seq_f_norms

        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max)
        fam = CubeFamily(pair1k.k_min, pair1k.k_max)
        ratios_f, ratios_b = [], []
        for mem in corpus1k[:8]:
            coeffs = analyze(mem.f, pair1k)
            wb = ws.weigh(band_magnitudes(mem.f, pair1k))
            plain_f, _ = seq_f_norms([coeffs], ws, spec1k, 2.0, 2.0)[0]
            ratios_f.append(plain_f / stack_norm(wb, "F", 2.0, 2.0, fam))
            plain_b, _ = seq_b_norm(coeffs, ws, spec1k, 2.0, 1.0)
            ratios_b.append(plain_b / stack_norm(wb, "B", 2.0, 1.0, fam))
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
        norm2 = l2(f)
        assert 0.9 * norm2 <= v <= 1.5 * norm2

    def test_besov_q_inf(self, pair1k, corpus1k):
        f = corpus1k[1].f
        got = classical_besov_norm(classical_band_magnitudes(f, pair1k), 0.5, 2.0, np.inf)
        from lpw.lpaley import band_decompose

        bands = band_decompose(f, pair1k)
        want = max(
            2.0 ** (0.5 * k) * lp_norm(np.abs(bands[k]), f.spec.cell_measure, 2.0) for k in pair1k.levels()
        )
        assert got == pytest.approx(want, rel=1e-12)


class TestSuiteStackCounts:
    """newnorm and classical form each member's weighted stack once per
    weight sequence from a magnitude stack formed inside the suite, and
    classical transforms each member once for its oracle and once for its
    weighted path."""

    @pytest.fixture
    def ctx(self):
        from lpw.suites import RunContext

        ctx = RunContext(GridSpec(1, 8.0, 512), -3, 5, CubeFamily(-4, 6, True, 2048), corpus_size=4)
        ctx.corpus()
        return ctx

    def count_weigh(self, monkeypatch):
        calls = []
        orig = WeightSequence.weigh

        def counted(ws, mags):
            calls.append((ws.spec, mags))
            return orig(ws, mags)

        monkeypatch.setattr(WeightSequence, "weigh", counted)
        return calls

    def test_newnorm_weighs_each_sequence_once_per_member(self, ctx, monkeypatch):
        from lpw.suites import suite_newnorm

        calls = self.count_weigh(monkeypatch)
        res = suite_newnorm(ctx)
        assert len(res["records"]) == 2 * 5
        # 2 weights x ({t_k} and 7 frozen t_j) x 4 members, not x 5 cases
        assert len(calls) == 2 * 8 * 4
        # weight, then member, then its 8 sequences: one stack per (weight,
        # member), and it is the member's band magnitudes bit for bit
        corpus = ctx.corpus()
        for i in range(0, len(calls), 8):
            block = [mags for _, mags in calls[i : i + 8]]
            assert all(mags is block[0] for mags in block)
            want = band_magnitudes(corpus[i // 8 % 4].f, ctx.pair())
            assert block[0].k_min == want.k_min
            assert np.array_equal(block[0].values, want.values)
        assert all(n == 4 for n in Counter(spec for spec, _ in calls).values())

    def test_classical_weighs_once_per_s_and_transforms_once_per_member(self, ctx, monkeypatch, fft_calls):
        from lpw.suites import suite_classical

        calls = self.count_weigh(monkeypatch)
        res = suite_classical(ctx)
        assert res["pass"] and len(res["records"]) == 4 * 2
        assert len(calls) == 4 * 4
        # the oracle's transforms, then one band_decompose per member, not
        # one per s
        L = len(ctx.pair().levels())
        assert fft_calls == {"fftn": 4 + 4, "ifftn": 4 * L + 4 * L}


class TestSuiteBandReuse:
    def test_bmo_and_coincidence_reuse_corpus_bands(self, monkeypatch):
        # bmo decomposes each member once, and coincidence each member and
        # each of its four spike witnesses once, serving both sequences
        import lpw.spaces
        from lpw.suites import RunContext, suite_bmo, suite_coincidence
        from lpw.verify import spike_family

        ctx = RunContext(GridSpec(1, 8.0, 512), -3, 5, CubeFamily(-4, 6, True, 2048), corpus_size=4)
        corpus = ctx.corpus()
        calls = []
        def counted(f, pair, _orig=lpw.spaces.band_decompose):
            calls.append(f)
            return _orig(f, pair)

        monkeypatch.setattr(lpw.spaces, "band_decompose", counted)
        suite_bmo(ctx)
        assert [id(f) for f in calls] == [id(mem.f) for mem in corpus]
        del calls[:]
        suite_coincidence(ctx)
        assert [id(f) for f in calls[:4]] == [id(mem.f) for mem in corpus]
        assert len(calls) == 4 + 4
        for f, spike in zip(calls[4:], spike_family(ctx.spec, ctx.pair())):
            assert np.array_equal(f.values, spike.f.values)

    def test_cached_bands_are_the_decomposition_magnitudes(self):
        # the stack every reader suite forms per member is |band_decompose|
        from lpw.lpaley import band_decompose
        from lpw.suites import RunContext

        for ctx in (RunContext(GridSpec(1, 8.0, 512), -3, 5, CubeFamily(-4, 6, True, 2048), corpus_size=3),
                    RunContext(GridSpec(2, 2.0, 64), -1, 4, CubeFamily(-1, 5), corpus_size=2)):
            for mem in ctx.corpus():
                mags, bands = band_magnitudes(mem.f, ctx.pair()), band_decompose(mem.f, ctx.pair())
                assert (mags.spec, mags.k_min) == (bands.spec, bands.k_min)
                assert np.array_equal(mags.values, np.abs(bands.values))

    @pytest.mark.parametrize("name", ["classical", "newnorm", "coincidence", "maximal", "bmo"])
    def test_reader_suites_keep_no_magnitude_stack(self, name, monkeypatch):
        # each reader suite forms a member's stack in its member loop and
        # drops it before the next member's transform: when the next is
        # formed no earlier one is alive, and none outlives the suite
        import weakref

        import lpw.suites

        live = []
        def tracked(f, pair, _orig=lpw.suites.band_magnitudes):
            assert all(ref() is None for ref in live)
            mags = _orig(f, pair)
            live.append(weakref.ref(mags.values))
            return mags

        monkeypatch.setattr(lpw.suites, "band_magnitudes", tracked)
        ctx = lpw.suites.RunContext(GridSpec(1, 4.0, 256), -2, 4, CubeFamily(-2, 5), corpus_size=3)
        assert lpw.suites.ALL_SUITES[name](ctx)["suite"] == name
        assert live
        assert all(ref() is None for ref in live)


class TestSuiteLocalArtifacts:
    """The run context caches only what two or more suites read; the deeper
    cube families of muckenhoupt and every band magnitude stack live and die
    inside their suite."""

    @staticmethod
    def context():
        from lpw.suites import RunContext

        return RunContext(GridSpec(1, 4.0, 256), -2, 4, CubeFamily(-2, 5), corpus_size=2)

    def test_muckenhoupt_caches_only_the_configured_family(self):
        from lpw.suites import suite_muckenhoupt

        ctx = self.context()
        assert suite_muckenhoupt(ctx)["pass"]
        assert [key for key in ctx._cache if key[0] == "nodes"] == [("nodes", ctx.family)]

    def test_muckenhoupt_drops_each_deeper_family_before_the_next(self, monkeypatch):
        import weakref

        import lpw.suites

        live = weakref.WeakSet()
        builds = []

        class Tracked(FamilyNodes):
            def __init__(self, R, n, family):
                builds.append((family.v_max, sorted(other.family.v_max for other in live)))
                super().__init__(R, n, family)
                live.add(self)

        monkeypatch.setattr(lpw.suites, "FamilyNodes", Tracked)
        ctx = self.context()
        lpw.suites.suite_muckenhoupt(ctx)
        # the configured family, then v_max + 2, then v_max + 10 with the
        # v_max + 2 family already freed
        assert builds == [(5, []), (7, [5]), (15, [5])]

    def test_maximal_leaves_no_2N_bands(self, monkeypatch):
        # doubled() caches nothing: the 2N pair, corpus members and band
        # stacks that maximal builds are all freed when the suite returns
        import weakref

        import lpw.suites

        ctx = self.context()
        dbl = ctx.doubled().spec
        built = {"pair": [], "corpus": [], "stack": []}

        def tracked(name, orig, spec_of, refs_of):
            def wrapper(*args):
                out = orig(*args)
                if spec_of(args) == dbl:
                    built[name].extend(weakref.ref(x) for x in refs_of(out))
                return out
            monkeypatch.setattr(lpw.suites, orig.__name__, wrapper)

        tracked("pair", lpw.suites.make_lp_pair, lambda a: a[0], lambda pair: [pair])
        tracked("corpus", lpw.suites.make_corpus, lambda a: a[0], lambda members: members)
        tracked("stack", lpw.suites.band_magnitudes, lambda a: a[0].spec, lambda mags: [mags.values])
        assert lpw.suites.suite_maximal(ctx)["pass"]
        assert [len(refs) for refs in built.values()] == [1, ctx.corpus_size, ctx.corpus_size]
        assert all(ref() is None for refs in built.values() for ref in refs)
        assert ctx.doubled() is not ctx.doubled() and not ctx.doubled()._cache

    def test_nodes_takes_no_level(self):
        ctx = self.context()
        with pytest.raises(TypeError):
            ctx.nodes(ctx.family.v_max + 2)


class TestOnePassPerMatrix:
    """A suite that reads the cube statistics of every weight of its matrix
    reduces them in one pass over the family's nodes, which forms each row
    chunk's radius once for all of the matrix's radial profiles."""

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce",
                            lambda self, jobs: calls.append([f is not None for f, _ in jobs]) or reduce(self, jobs))
        return calls

    def test_hoelder_on_verify_2d(self, monkeypatch):
        import json
        from pathlib import Path

        from lpw.cli import RunConfig
        from lpw.suites import suite_hoelder

        path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "verify_2d.json"
        ctx = RunConfig(json.loads(path.read_text())).ctx
        calls = self.count_passes(monkeypatch)
        assert suite_hoelder(ctx)["pass"]
        # the default matrix: const:1, dyadic:0.5 and dyadic:2 share the unit
        # profile, pow:0.3 and prod:[dyadic:1,pow:0.3] share pow:0.3
        assert calls == [[False, True, True, True, True, True]]

    def test_xclassfit_and_muckenhoupt(self, monkeypatch):
        from lpw.suites import RunContext, suite_muckenhoupt, suite_xclassfit

        ctx = RunContext(GridSpec(1, 4.0, 256), -2, 4, CubeFamily(-2, 5), corpus_size=2)
        calls = self.count_passes(monkeypatch)
        suite_xclassfit(ctx)
        assert calls == [[False, True, True, True, True, True]]
        del calls[:]
        assert suite_muckenhoupt(ctx)["pass"]
        # the configured family, then v_max + 2 and v_max + 10: pow:0 is the
        # unit profile
        assert calls == [[True, False, True, True, True, True], [True, False, True, True], [True, True]]
