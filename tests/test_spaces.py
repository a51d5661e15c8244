from functools import cached_property, wraps

import numpy as np
import pytest

from lpw import spaces
from lpw.grid import (
    CubeFamily,
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    level_index_range,
    lp_lq_norm,
    lp_norm,
)
from lpw.lpaley import CoefficientSet, band_decompose, make_lp_pair
from lpw.spaces import (
    _in_cube,
    band_magnitudes,
    _paint,
    _seq_levels,
    _starred_cube_lp,
    besov_norm,
    bmo_norm,
    build_dictionary,
    carleson_sup,
    cube_lp,
    hardy_grand_norm,
    seq_b_norm,
    seq_f_infty_norm,
    seq_f_norms,
    stack_norm,
    tl_infty_norm,
    tl_norm,
)
from lpw.verify import classical_band_magnitudes, classical_besov_norm, classical_tl_norm, make_corpus
from lpw.weights import Const, Dyadic, Pow, WeightSequence


def sequence(pair, weight):
    """weight as a weight sequence on the pair's level window."""
    return WeightSequence(weight, pair.k_min, pair.k_max)


def pair_family(pair):
    """The cubes of the pair's level window, a Carleson scan's family here."""
    return CubeFamily(pair.k_min, pair.k_max)


def weighed(kernel):
    """kernel, a band norm of a weighted stack, taken on f, a GridFunction or
    its magnitude stack band_magnitudes(f, pair), under the weight sequence
    ws; args are the kernel's own."""

    @wraps(kernel)
    def norm(f, pair, ws, *args):
        mags = band_magnitudes(f, pair) if isinstance(f, GridFunction) else f
        return kernel(ws.weigh(mags), *args)

    return norm


besov, tl, tl_infty = weighed(besov_norm), weighed(tl_norm), weighed(tl_infty_norm)


def seq_f(coeffs, ws, spec, p, q):
    """seq_f_norms of the one set coeffs."""
    return seq_f_norms([coeffs], ws, spec, p, q)[0]


def single_band_member(spec, pair, k0):
    from lpw.lpaley import from_spectrum

    j = int(round(2.0**k0 / spec.fundamental))
    F = np.zeros(spec.shape, dtype=complex)
    F[j] = 1.0 - 0.5j
    F[-j] = np.conj(F[j])
    return GridFunction(spec, from_spectrum(spec, F))


def dense_seq_f_norm(coeffs, ws, spec, p, q):
    """The f-norm as one dense sum over the whole grid per level, set by
    set: the reference that seq_f_norms must equal bit for bit."""
    n = spec.n
    plain_acc = np.zeros(spec.shape)
    star_acc = np.zeros(spec.shape)
    qq = 1.0 if np.isinf(q) else q
    for k in _seq_levels(coeffs, spec):
        t, mags, S = ws.on_grid(spec, k), np.abs(coeffs[k]), spec.N // len(coeffs[k])
        tkm = _starred_cube_lp(t, k, S, p, mags > 0)
        if np.isinf(q):
            lvl_plain = _paint(spec, mags) * 2.0 ** (k * n / 2.0) * t.values
            lvl_star = _paint(spec, mags * tkm * 2.0 ** (k * n * (0.5 + 1.0 / p)))
            plain_acc = np.maximum(plain_acc, lvl_plain)
            star_acc = np.maximum(star_acc, lvl_star)
        else:
            plain_acc += _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
            star_acc += _paint(spec, (mags * tkm) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / p)))
    plain = lp_norm(plain_acc ** (1.0 / qq), spec.cell_measure, p)
    star = lp_norm(star_acc ** (1.0 / qq), spec.cell_measure, p)
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
        ws = sequence(pair1k, Const(1.0))
        zero = GridFunction(spec1k, np.zeros(spec1k.N))
        assert besov(zero, pair1k, ws, 2.0, 2.0) == 0.0
        assert tl(zero, pair1k, ws, 2.0, 2.0) == 0.0

    def test_singleton_level_window_collapses(self, spec1k, pair1k, corpus1k):
        # with one stored level every q gives the same single weighted band norm
        f = corpus1k[0].f
        ws = WeightSequence(Pow(0.3), 3, 3)
        t3 = ws.on_grid(spec1k, 3)
        from lpw.grid import weighted_lp_norm

        want = weighted_lp_norm(GridFunction(spec1k, band_decompose(f, pair1k)[3]), t3, 2.0)
        for q in (1.0, 2.0, np.inf):
            assert besov(f, pair1k, ws, 2.0, q) == pytest.approx(want, rel=1e-12)
            assert tl(f, pair1k, ws, 2.0, q) == pytest.approx(want, rel=1e-12)

    def test_homogeneity(self, pair1k, corpus1k):
        ws = sequence(pair1k, Pow(0.3))
        f = corpus1k[0].f
        g = GridFunction(f.spec, 3.5 * f.values)
        assert besov(g, pair1k, ws, 2.0, 2.0) == pytest.approx(3.5 * besov(f, pair1k, ws, 2.0, 2.0), rel=1e-12)
        assert tl(g, pair1k, ws, 2.0, 2.0) == pytest.approx(3.5 * tl(f, pair1k, ws, 2.0, 2.0), rel=1e-12)

    def test_q_monotone(self, pair1k, corpus1k):
        f, ws = corpus1k[1].f, sequence(pair1k, Const(1.0))
        vals_b = [besov(f, pair1k, ws, 2.0, q) for q in (1.0, 2.0, 4.0, np.inf)]
        vals_f = [tl(f, pair1k, ws, 2.0, q) for q in (1.0, 2.0, 4.0, np.inf)]
        assert all(a >= b - 1e-12 for a, b in zip(vals_b, vals_b[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(vals_f, vals_f[1:]))

    def test_quasi_triangle(self, pair1k, corpus1k):
        # norm(f+g) <= C (norm(f) + norm(g)) with C = max(1, 2^(1/p-1), 2^(1/q-1))
        ws = sequence(pair1k, Pow(0.3))
        for p, q in ((2.0, 2.0), (0.8, 1.5), (2.0, 0.7)):
            C = max(1.0, 2.0 ** (1.0 / p - 1.0), 2.0 ** (1.0 / q - 1.0))
            for f, g in ((corpus1k[0].f, corpus1k[1].f), (corpus1k[2].f, corpus1k[3].f)):
                for norm in (besov, tl):
                    fg = GridFunction(f.spec, f.values + g.values)
                    assert norm(fg, pair1k, ws, p, q) <= C * (norm(f, pair1k, ws, p, q) + norm(g, pair1k, ws, p, q)) * (1 + 1e-12)

    def test_classical_reduction(self, pair1k, corpus1k):
        # dyadic weights reproduce the fixed-smoothness norms exactly
        for s in (-1.0, 0.0, 0.5, 2.0):
            ws = sequence(pair1k, Dyadic(s))
            for mem in corpus1k[:4]:
                oracle = classical_band_magnitudes(mem.f, pair1k)
                want_b = classical_besov_norm(oracle, s, 2.0, 2.0)
                want_f = classical_tl_norm(oracle, s, 2.0, 2.0)
                assert besov(mem.f, pair1k, ws, 2.0, 2.0) == pytest.approx(want_b, rel=1e-12)
                assert tl(mem.f, pair1k, ws, 2.0, 2.0) == pytest.approx(want_f, rel=1e-12)

    def test_l2_frame_bounds(self, spec1k, pair1k, corpus1k):
        rho = spec1k.freq_radius()
        lo, hi = pair1k.annulus()
        mask = (rho >= lo) & (rho <= hi)
        sq = sum(pair1k.phi_mult[k] ** 2 for k in pair1k.levels())
        c1, c2 = np.sqrt(sq[mask].min()), np.sqrt(sq[mask].max())
        ws = sequence(pair1k, Const(1.0))
        for mem in corpus1k[:6]:
            val = tl(mem.f, pair1k, ws, 2.0, 2.0)
            l2 = lp_norm(np.abs(mem.f.values), spec1k.cell_measure, 2.0)
            assert c1 * l2 * (1 - 1e-9) <= val <= c2 * l2 * (1 + 1e-9)

    def test_p_inf_rejected(self, spec1k, pair1k, corpus1k):
        # p = inf is F_inf's, and each norm refuses p or q <= 0 itself
        ws = sequence(pair1k, Const(1.0))
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(2, (0,)): 1.0})
        for p, q in ((np.inf, 2.0), (0.0, 2.0), (-1.0, 2.0), (2.0, 0.0), (2.0, -1.0)):
            with pytest.raises(ValueError):
                tl(corpus1k[0].f, pair1k, ws, p, q)
            with pytest.raises(ValueError, match="f-norms need"):
                seq_f(coeffs, ws, spec1k, p, q)
            if np.isfinite(p):
                with pytest.raises(ValueError):
                    besov(corpus1k[0].f, pair1k, ws, p, q)


class TestCarlesonNorm:
    def test_zero(self, spec1k, pair1k):
        zero = GridFunction(spec1k, np.zeros(spec1k.N))
        assert tl_infty(zero, pair1k, sequence(pair1k, Const(1.0)), 2.0, pair_family(pair1k)) == 0.0

    def test_single_band_oracle(self, spec1k, pair1k):
        # one active level k0: the sup scans cubes with l(P) >= 2^-k0 of the
        # cube q-mean of the band
        for k0 in (3, 4):
            f = single_band_member(spec1k, pair1k, k0)
            got = tl_infty(f, pair1k, sequence(pair1k, Const(1.0)), 2.0, CubeFamily(-4, 6))
            bk = np.abs(band_decompose(f, pair1k)[k0]) ** 2
            best = [0.0, 0.0]  # over the cubes, then over their translates
            for v in range(-4, k0 + 1):
                # the level-v cubes, clipped to the domain: cells [i S, (i + 1) S),
                # and their translates by half a side, wrapped round the domain
                lo, hi = level_index_range(spec1k.R, v)
                S = spec1k.N // (hi - lo)
                for half, shift in enumerate((0, S // 2)):
                    for i in range(hi - lo):
                        cells = np.arange(i * S + shift, (i + 1) * S + shift) % spec1k.N
                        best[half] = max(best[half], float(bk[cells].mean()))
            assert got == pytest.approx(np.sqrt(max(best)), rel=1e-12), k0
            if k0 == 4:
                assert best[1] > best[0] * (1 + 1e-5)  # a translate holds the sup

    def test_weight_doubling(self, spec1k, pair1k, corpus1k):
        f = corpus1k[2].f
        fam = pair_family(pair1k)
        a = tl_infty(f, pair1k, sequence(pair1k, Pow(0.3)), 2.0, fam)
        b = tl_infty(f, pair1k, sequence(pair1k, Const(2.0) * Pow(0.3)), 2.0, fam)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_q_inf_rejected(self, spec1k, pair1k, corpus1k):
        # the band and the sequence Carleson norms alike need 0 < q < inf
        ws, fam = sequence(pair1k, Const(1.0)), pair_family(pair1k)
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(2, (0,)): 1.0})
        for q in (np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="F_inf norms need 0 < q < inf"):
                tl_infty(corpus1k[0].f, pair1k, ws, q, fam)
            with pytest.raises(ValueError, match="f_inf norms need 0 < q < inf"):
                seq_f_infty_norm(coeffs, ws, spec1k, q, fam)

    def test_family_above_the_weight_levels_refused(self, pair1k, corpus1k):
        # the scans would read no cube for the stack levels below the
        # family's first, so carleson_sup refuses them, for band and sequence
        # stacks alike
        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max)
        narrower = WeightSequence(Pow(0.3), pair1k.k_min + 1, pair1k.k_max)
        above = CubeFamily(pair1k.k_min + 1, pair1k.k_max)
        refusal = f"stack level {pair1k.k_min} lies below level {pair1k.k_min + 1}"
        f = corpus1k[0].f
        spec = pair1k.gspec
        with pytest.raises(GridError, match=refusal):
            tl_infty(f, pair1k, ws, 2.0, above)
        assert tl_infty(f, pair1k, narrower, 2.0, above) > 0
        bottom, top = (CoefficientSet.from_entries(1, spec.R, {(k, 0): 1.0}) for k in (pair1k.k_min, pair1k.k_min + 1))
        with pytest.raises(GridError, match=refusal):
            seq_f_infty_norm(bottom, ws, spec, 2.0, above)
        assert seq_f_infty_norm(top, ws, spec, 2.0, above)[0] > 0
        for fam in (CubeFamily(pair1k.k_min, pair1k.k_max), CubeFamily(pair1k.k_min - 1, pair1k.k_max)):
            tl_infty(f, pair1k, ws, 2.0, fam)
            seq_f_infty_norm(bottom, ws, spec, 2.0, fam)


def family_blocks_former(spec, family, array_at):
    """The cube blocks of the former scans: for each grid-resolvable level v
    of the family, array_at(v) (skipped when None) reshaped into the level-v
    cubes, then a copy rolled back half a side along every axis and reshaped
    likewise."""
    v_floor, v_cap = spec.level_window()
    for v in range(max(family.v_min, v_floor), min(family.v_max, v_cap) + 1):
        a = array_at(v)
        if a is None:
            continue
        S = spec.cells(v)
        for shift in (0, S // 2):
            b = a
            for ax in range(b.ndim) if shift else ():
                b = np.roll(b, -shift, axis=ax)
            yield b.reshape((b.shape[0] // S, S) * b.ndim)


def carleson_sup_former(level_arrays, spec, family, q):
    """The dict-and-loop formula carleson_sup replaced: level_arrays maps k
    to G_k, each suffix sum is a fresh array, and a level-v cube takes the
    suffix of the first stored level k >= v."""
    ks = sorted(level_arrays)
    suffix = {}
    acc = np.zeros(spec.shape)
    for k in reversed(ks):
        acc = acc + level_arrays[k]
        suffix[k] = acc
    best = 0.0
    for blocks in family_blocks_former(spec, family, lambda v: suffix.get(min((k for k in ks if k >= v), default=None))):
        best = max(best, float(blocks.mean(axis=_in_cube(spec.n)).max()))
    return best ** (1.0 / q)


def seq_f_infty_former(coeffs, ws, spec, q, family):
    """seq_f_infty_norm as it was: dicts over the levels holding a coefficient,
    through carleson_sup_former."""
    n = spec.n
    plain, star = {}, {}
    for k in _seq_levels(coeffs, spec):
        t, mags, S = ws.on_grid(spec, k), np.abs(coeffs[k]), spec.N // len(coeffs[k])
        tkmq = _starred_cube_lp(t, k, S, q, mags > 0)
        plain[k] = _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
        star[k] = _paint(spec, (mags * tkmq) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / q)))
    return carleson_sup_former(plain, spec, family, q), carleson_sup_former(star, spec, family, q)


class TestCarlesonStack:
    """carleson_sup on one (levels, *grid) stack equals the former per-level
    dict formula bit for bit on every family that reaches the stack's first
    level; a zero row stands for a level left out.  A family that starts
    above the stack's first level is refused, since none of its cubes would
    read the rows below it."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_former_formula(self, n, rng):
        spec = GridSpec(1, 8.0, 256) if n == 1 else GridSpec(2, 2.0, 32)
        k_min = -3 if n == 1 else -1
        G = VectorSequence(spec, k_min, rng.random((6, *spec.shape)) ** 3)
        before = G.values.copy()
        lo, hi = spec.level_window()
        # families reaching below the stack's levels, starting at its first
        # level and ending inside or above them
        for v_min, v_max in ((lo, hi), (lo, k_min + 2), (k_min, k_min + 3), (k_min, hi)):
            family = CubeFamily(v_min, v_max)
            for q in (1.0, 2.0):
                want = carleson_sup_former({k: G[k] for k in G.levels()}, spec, family, q)
                assert carleson_sup(G, family, q, 1.0) == want
        assert np.array_equal(G.values, before)

    @pytest.mark.parametrize("n", [1, 2])
    def test_family_above_the_first_level_refused(self, n, rng):
        # the former formula read no row below the family's first level:
        # row k_min could be scaled by 1e6 with no change
        spec = GridSpec(1, 8.0, 256) if n == 1 else GridSpec(2, 2.0, 32)
        k_min = -3 if n == 1 else -1
        G = VectorSequence(spec, k_min, rng.random((6, *spec.shape)))
        for v_min, v_max in ((k_min + 1, k_min + 3), (k_min + 4, spec.level_window()[1])):
            with pytest.raises(GridError, match=f"stack level {k_min} lies below level {v_min}"):
                carleson_sup(G, CubeFamily(v_min, v_max), 2.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_tl_infty_norm_raises_the_wrapped_copy(self, n, rng):
        # tl_infty_norm raises the scan's wrapped copy to q in place: bit for
        # bit the scan of the stack raised to q, and its stack is left as it is
        spec = GridSpec(1, 8.0, 256) if n == 1 else GridSpec(2, 2.0, 32)
        k_min = -3 if n == 1 else -1
        wb = VectorSequence(spec, k_min, 3.0 * rng.random((6, *spec.shape)) ** 2)
        before = wb.values.copy()
        for family in (CubeFamily(spec.level_window()[0], k_min + 4), CubeFamily(k_min, k_min + 2)):
            for q in (0.5, 1.5, 2.0, 3.0):
                want = carleson_sup(VectorSequence(wb.spec, wb.k_min, wb.values**q), family, q, 1.0)
                assert tl_infty_norm(wb, q, family) == want, (family, q)
        assert np.array_equal(wb.values, before)

    @pytest.mark.parametrize("n", [1, 2])
    def test_zero_rows_equal_missing_levels(self, n, rng):
        spec = GridSpec(1, 8.0, 256) if n == 1 else GridSpec(2, 2.0, 32)
        values = rng.random((6, *spec.shape))
        values[[0, 2, 3, 5]] = 0.0
        G = VectorSequence(spec, -1, values)
        held = {k: G[k] for k in (0, 3)}
        for family in (CubeFamily(*spec.level_window()), CubeFamily(-1, 3)):
            assert carleson_sup(G, family, 2.0, 1.0) == carleson_sup_former(held, spec, family, 2.0)


class TestDecompositionInput:
    def test_weighted_bands_match_per_band_loop(self, spec1k, pair1k, corpus1k):
        ws = WeightSequence(Pow(0.3), -1, 5)
        for mem in corpus1k[:4]:
            got = ws.weigh(band_magnitudes(mem.f, pair1k))
            assert got.levels() == ws.levels()
            for k in ws.levels():
                t = ws.on_grid(spec1k, k).values
                want = t * np.abs(band_decompose(mem.f, pair1k)[k])
                assert np.array_equal(got[k], want)

    def test_norms_equal_on_function_and_decomposition(self, pair1k, corpus1k):
        fam = CubeFamily(-4, 6)
        cases = [
            (besov, Pow(0.3), (2.0, 2.0)),
            (besov, Pow(-0.2), (2.0, np.inf)),
            (tl, Pow(0.3), (2.0, 2.0)),
            (tl, Dyadic(0.5), (1.5, np.inf)),
            (tl_infty, Pow(0.3), (2.0, fam)),
        ]
        for mem in corpus1k[:4]:
            decomp = band_decompose(mem.f, pair1k)
            mags = VectorSequence(decomp.spec, decomp.k_min, np.abs(decomp.values))
            for norm, w, args in cases:
                ws = sequence(pair1k, w)
                assert norm(mags, pair1k, ws, *args) == norm(mem.f, pair1k, ws, *args), norm.__name__

    def test_norms_on_decomposition_make_no_transform(self, pair1k, corpus1k, fft_calls):
        mags = band_magnitudes(corpus1k[0].f, pair1k)
        ws = sequence(pair1k, Pow(0.3))
        before = dict(fft_calls)
        besov(mags, pair1k, ws, 2.0, 2.0)
        tl(mags, pair1k, ws, 2.0, 2.0)
        tl_infty(mags, pair1k, ws, 2.0, pair_family(pair1k))
        assert fft_calls == before

    def test_magnitudes_are_the_decomposition_magnitudes(self, pair1k, corpus1k):
        spec2 = GridSpec(2, 2.0, 64)
        pair2 = make_lp_pair(spec2, -1, 4)
        for pair, members in ((pair1k, corpus1k[:3]), (pair2, make_corpus(spec2, pair2, size=2, seed=3))):
            for mem in members:
                mags = band_magnitudes(mem.f, pair)
                bands = band_decompose(mem.f, pair)
                assert (mags.spec, mags.k_min) == (bands.spec, bands.k_min)
                assert np.array_equal(mags.values, np.abs(bands.values))


# the (space, p, q) cases of suite_newnorm
NEWNORM_CASES = [("F", 2.0, 2.0), ("B", 2.0, 2.0), ("F", 2.0, np.inf), ("B", 2.0, np.inf), ("F_inf", np.inf, 2.0)]


class TestStackNorm:
    """stack_norm takes B, F and F_inf from one weighted stack, weighed once
    from the band magnitudes, bit for bit what it takes from a stack weighed
    afresh for each norm."""

    def test_shared_stack_equals_weighted_bands(self, pair1k, corpus1k):
        fam = CubeFamily(-4, 6)
        for w in (Pow(0.3), Pow(-0.2)):
            ws = WeightSequence(w, pair1k.k_min, pair1k.k_max)
            for seq in (ws, ws.frozen(-3), ws.frozen(0), ws.frozen(3)):
                for mem in corpus1k[:4]:
                    mags = band_magnitudes(mem.f, pair1k)
                    wb = seq.weigh(mags)
                    for tag, p, q in NEWNORM_CASES:
                        fresh = seq.weigh(band_magnitudes(mem.f, pair1k))
                        assert stack_norm(wb, tag, p, q, fam) == stack_norm(fresh, tag, p, q, fam), (w, seq.spec, tag, q)

    def test_dyadic_stack_equals_named_norms(self, pair1k, corpus1k):
        # a family other than the pair window's, which F_inf must scan
        fam = CubeFamily(-4, 6)
        for s in (-1.0, 0.5, 2.0):
            ws = WeightSequence(Dyadic(s), pair1k.k_min, pair1k.k_max)
            for mem in corpus1k[:3]:
                wb = ws.weigh(band_magnitudes(mem.f, pair1k))
                for q in (2.0, np.inf):
                    assert stack_norm(wb, "B", 2.0, q, fam) == besov(mem.f, pair1k, ws, 2.0, q)
                    assert stack_norm(wb, "F", 2.0, q, fam) == tl(mem.f, pair1k, ws, 2.0, q)
                assert stack_norm(wb, "F_inf", np.inf, 2.0, fam) == tl_infty(mem.f, pair1k, ws, 2.0, fam)

    def test_other_spaces_rejected(self, pair1k, corpus1k):
        ws = WeightSequence(Pow(0.3), pair1k.k_min, pair1k.k_max)
        wb = ws.weigh(band_magnitudes(corpus1k[0].f, pair1k))
        for space in ("b", "Lp", "BMO"):
            with pytest.raises(ValueError, match="band norms"):
                stack_norm(wb, space, 2.0, 2.0, pair_family(pair1k))

    def test_nonneg_kernels_equal_public_norms(self, rng):
        # lp_norm and lp_lq_norm take nonnegative arrays as they are: there
        # they equal the former public forms, which took |samples| first
        spec = GridSpec(2, 2.0, 32)
        cell = spec.cell_measure
        a = np.abs(rng.standard_normal((5, *spec.shape)))
        a[1] = 0.0

        def former_lp(x, p):
            x = np.abs(x)
            return float(x.max(initial=0.0)) if np.isinf(p) else float((cell * (x**p).sum()) ** (1.0 / p))

        def former_lp_lq(x, p, q):
            x = np.abs(x)
            return former_lp(x.max(axis=0) if np.isinf(q) else (x**q).sum(axis=0) ** (1.0 / q), p)

        for p in (0.7, 2.0, np.inf):
            assert lp_norm(a[0], cell, p) == former_lp(a[0], p)
            for q in (0.8, 2.0, np.inf):
                assert lp_lq_norm(a, cell, p, q) == former_lp_lq(a, p, q)
        signed = a - 0.5
        # a caller with signed samples passes their magnitudes
        assert lp_lq_norm(np.abs(signed), cell, 2.0, 2.0) == former_lp_lq(signed, 2.0, 2.0)
        assert lp_norm(np.abs(signed[0]), cell, 3.0) == former_lp(signed[0], 3.0)


class TestSequenceNorms:
    def test_single_coefficient_b_value(self, spec1k, pair1k):
        # n=1, p=q=1, unit weight: the norm is 2^(k/2) |Q_{k,m}| = 2^(-k/2)
        k0 = 2
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(k0, (1,)): 1.0})
        plain, star = seq_b_norm(coeffs, sequence(pair1k, Const(1.0)), spec1k, 1.0, 1.0)
        assert plain == pytest.approx(2.0 ** (-k0 / 2.0), rel=1e-12)
        assert star == pytest.approx(plain, rel=1e-12)

    def test_single_coefficient_f_exponent_algebra(self, spec1k, pair1k):
        # p=q=2: the cube factors cancel, value 2^(k(1/2 - 1/2)) = 1
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(2, (0,)): 1.0})
        plain, star = seq_f(coeffs, sequence(pair1k, Const(1.0)), spec1k, 2.0, 2.0)
        assert plain == pytest.approx(1.0, rel=1e-12)
        assert star == pytest.approx(1.0, rel=1e-12)

    def test_single_coefficient_f_p1(self, spec1k, pair1k):
        k0 = 3
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(k0, (2,)): 1.0})
        plain, star = seq_f(coeffs, sequence(pair1k, Const(1.0)), spec1k, 1.0, 1.0)
        assert plain == pytest.approx(2.0 ** (-k0 / 2.0), rel=1e-12)
        assert star == pytest.approx(plain, rel=1e-12)

    def test_plain_equals_starred_single_coefficient(self, spec1k, pair1k, rng):
        ws = sequence(pair1k, Pow(0.3))
        for _ in range(8):
            k0 = int(rng.integers(-2, 7))
            lo = -int(8 * 2.0**k0)
            m0 = int(rng.integers(lo, -lo))
            lam = complex(rng.normal(), rng.normal())
            coeffs = CoefficientSet.from_entries(1, spec1k.R, {(k0, (m0,)): lam})
            for fn, args in ((seq_b_norm, (2.0, 3.0)), (seq_f, (2.0, 3.0)), (seq_f_infty_norm, (2.0, pair_family(pair1k)))):
                plain, star = fn(coeffs, ws, spec1k, *args)
                assert plain == pytest.approx(star, rel=1e-12), fn.__name__

    def test_random_sets_ratio_bounded(self, spec1k, pair1k, rng):
        ws = sequence(pair1k, Pow(0.3))
        for _ in range(10):
            count = int(rng.integers(5, 20))
            data = {}
            for _ in range(count):
                k = int(rng.integers(-2, 7))
                C = int(8 * 2.0**k)
                m = int(rng.integers(-C, C))
                data[(k, (m,))] = complex(rng.normal(), rng.normal())
            coeffs = CoefficientSet.from_entries(1, spec1k.R, data)
            plain, star = seq_f(coeffs, ws, spec1k, 2.0, 2.0)
            assert plain > 0 and star > 0
            ratio = plain / star
            assert 1 / 20 < ratio < 20
            bp, bs = seq_b_norm(coeffs, ws, spec1k, 2.0, 2.0)
            assert bp == pytest.approx(bs, rel=1e-9)  # disjoint cubes: exact identity

    def test_empty_carleson(self, spec1k, pair1k):
        empty = CoefficientSet.from_entries(1, spec1k.R, {})
        assert seq_f_infty_norm(empty, sequence(pair1k, Const(1.0)), spec1k, 2.0, pair_family(pair1k)) == (0.0, 0.0)

    def test_homogeneity(self, spec1k, pair1k, rng):
        data = {(2, (1,)): 1.0 + 0.3j, (4, (-3,)): 0.5}
        coeffs = CoefficientSet.from_entries(1, spec1k.R, data)
        ws = sequence(pair1k, Pow(0.3))
        p1, s1 = seq_f(coeffs, ws, spec1k, 2.0, 2.0)
        p2, s2 = seq_f(CoefficientSet.from_entries(1, spec1k.R, {key: 4.0 * v for key, v in data.items()}), ws, spec1k, 2.0, 2.0)
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
            # the cube at position m covers cells [(m - lo) S, (m - lo + 1) S) per axis
            cubes = {i: tuple(slice(x * S, (x + 1) * S) for x in i) for i in np.ndindex(*(hi - lo,) * n)}
            where = rng.random((hi - lo,) * n) < 0.7
            for p in (1.5, 2.0, 3.0, np.inf):
                got = cube_lp(t, S, p, where)
                for i, cells in cubes.items():
                    assert got[i] == (lp_norm(np.abs(t.values[cells]), spec.cell_measure, p) if where[i] else 0.0)
            vals = rng.random((hi - lo,) * n)
            want = np.zeros(spec.shape)
            for i, cells in cubes.items():
                want[cells] += vals[i]
            assert np.array_equal(_paint(spec, vals), want)

    def test_coarsest_level_cubes_are_half_domains(self, spec1k):
        # k = -log2(2R): cubes [-R, 0) and [0, R); with p = q = 1 and unit
        # weight the b- and f-norms are 2^(k/2) |lambda| R = 2, and the
        # Carleson norm takes the mean over the whole domain, 2^(k/2) / 2
        ws = WeightSequence(Const(1.0), -4, 6)
        for m in (-1, 0):
            coeffs = CoefficientSet.from_entries(1, spec1k.R, {(-4, m): 1.0})
            assert seq_b_norm(coeffs, ws, spec1k, 1.0, 1.0) == (2.0, 2.0)
            assert seq_f(coeffs, ws, spec1k, 1.0, 1.0) == (2.0, 2.0)
            assert seq_f_infty_norm(coeffs, ws, spec1k, 1.0, CubeFamily(-4, 6)) == (0.125, 0.125)

    def test_levels_past_the_grid_refused(self, spec1k):
        # spec1k's level window is [-4, 6]: a level-7 cube is finer than a
        # cell; a level below -4 has no weight t_k, since the weight levels
        # here are the grid's
        ws = WeightSequence(Const(1.0), -4, 6)
        fine = CoefficientSet.from_entries(1, spec1k.R, {(7, (0,)): 1.0})
        coarse = CoefficientSet.from_entries(1, spec1k.R, {(-5, (0,)): 1.0})
        for norm, args in ((seq_b_norm, (1.0, 1.0)), (seq_f, (1.0, 1.0)), (seq_f_infty_norm, (1.0, CubeFamily(-4, 6)))):
            with pytest.raises(GridError, match="past level 6"):
                norm(fine, ws, spec1k, *args)
            with pytest.raises(GridError, match="level -5 lies outside the weight levels"):
                norm(coarse, ws, spec1k, *args)

    def test_levels_past_the_weight_sequence_refused(self):
        # dyadic:1 on levels -3..2 and a coefficient at level 6: the norms
        # sampled t_6 = 2^6 though the sequence ends at level 2, and b and f
        # returned 8.0 at p = q = 1
        spec = GridSpec(1, 8.0, 1024)
        ws = WeightSequence(Dyadic(1.0), -3, 2)
        coeffs = CoefficientSet.from_entries(1, spec.R, {(6, (0,)): 1.0})
        for norm, args in ((seq_b_norm, (1.0, 1.0)), (seq_f, (1.0, 1.0)), (seq_f_infty_norm, (1.0, CubeFamily(-3, 6)))):
            with pytest.raises(GridError, match="level 6 lies outside the weight levels"):
                norm(coeffs, ws, spec, *args)
        with pytest.raises(GridError, match="level 3 lies outside"):
            ws.on_grid(spec, 3)

    def test_carleson_refuses_levels_below_the_coarsest_cube(self, spec1k):
        # a stack level -5, below every cube of the family -4..6 (and of the
        # grid): a lone coefficient there measured exactly 0 in f_inf while b
        # and f gave 1.414; the scan refuses the stack, naming the level
        G = VectorSequence(spec1k, -5, np.ones((3, spec1k.N)))
        for family in (CubeFamily(-4, 6), CubeFamily(-6, 2)):
            with pytest.raises(GridError, match="stack level -5"):
                carleson_sup(G, family, 1.0, 1.0)
        # a stack from the coarsest level on still runs
        assert carleson_sup(VectorSequence(spec1k, -4, np.ones((3, spec1k.N))), CubeFamily(-4, 6), 1.0, 1.0) == 3.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_f_infty_with_empty_middle_level(self, n):
        # levels -2 and 2 hold coefficients, -1..1 none: zero rows there
        spec = GridSpec(n, 2.0, 64)
        pair = make_lp_pair(spec, -2, 4)
        entries = {(-2, (0,) * n): 1.0 - 0.5j, (2, (3,) * n): 0.7, (2, (-5,) * n): 2.0j}
        coeffs = CoefficientSet.from_entries(n, spec.R, entries)
        assert list(coeffs.support) == [-2, 2] and coeffs.levels() == range(-2, 3)
        for w in (Const(1.0), Pow(0.3), Dyadic(0.5)):
            ws = sequence(pair, w)
            for family in (pair_family(pair), CubeFamily(-2, 5)):
                assert seq_f_infty_norm(coeffs, ws, spec, 2.0, family) == seq_f_infty_former(coeffs, ws, spec, 2.0, family)

    def test_level_finer_than_grid_refused(self, spec1k, pair1k):
        # h = 1/64, so level 7 cubes would be half a cell wide
        coeffs = CoefficientSet.from_entries(1, spec1k.R, {(7, 0): 1.0})
        ws = sequence(pair1k, Const(1.0))
        for fn, args in ((seq_b_norm, (2.0, 2.0)), (seq_f, (2.0, 2.0)), (seq_f_infty_norm, (2.0, pair_family(pair1k)))):
            with pytest.raises(ValueError, match="level 7 .*h=0.015625"):
                fn(coeffs, ws, spec1k, *args)
        good = CoefficientSet.from_entries(1, spec1k.R, {(2, 0): 1.0})
        with pytest.raises(ValueError, match="level 7 .*h=0.015625"):
            seq_f_norms([good, coeffs], ws, spec1k, 2.0, 2.0)

    def test_other_domain_refused(self, spec1k, pair1k):
        coeffs = CoefficientSet.from_entries(1, 4.0, {(2, 0): 1.0})
        good = CoefficientSet.from_entries(1, spec1k.R, {(2, 0): 1.0})
        ws = sequence(pair1k, Const(1.0))
        with pytest.raises(ValueError, match="do not fit"):
            seq_f(coeffs, ws, spec1k, 2.0, 2.0)
        with pytest.raises(ValueError, match="do not fit"):
            seq_f_norms([good, coeffs], ws, spec1k, 2.0, 2.0)


# the two (p, q) pairs of suite_seqnorm, and q = inf
BATCH_PQ = ((2.0, 1.0), (1.5, 3.0), (2.0, np.inf))


class TestBatchedSequenceNorms:
    """seq_f_norms over a batch equals the dense per-set loop exactly."""

    def check(self, sets, spec, pair, weight=Pow(0.3)):
        for p, q in BATCH_PQ:
            ws = WeightSequence(weight, pair.k_min, pair.k_max)
            assert seq_f_norms(sets, ws, spec, p, q) == [dense_seq_f_norm(c, ws, spec, p, q) for c in sets], (p, q)

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
        ws = sequence(pair1k, Const(1.0))
        assert seq_f_norms([empty, zero], ws, spec1k, 2.0, 2.0) == [(0.0, 0.0), (0.0, 0.0)]
        assert seq_f_norms([], ws, spec1k, 2.0, 2.0) == []

    def test_disjoint_level_ranges(self, spec1k, pair1k, rng):
        coarse = random_sets(spec1k, -3, 0, 3, rng)
        fine = random_sets(spec1k, 3, 6, 3, rng)
        self.check([coarse[0], fine[0], coarse[1], fine[1], fine[2], coarse[2]], spec1k, pair1k)

    def test_level_work_shared_by_the_batch(self, spec1k, pair1k, rng, monkeypatch):
        """t_k, t_k^q and t_{k,m} once per level for any batch size; each
        set's nonzero coefficients gathered once for any number of (p, q)."""
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
                seq_f_norms(sets, sequence(pair1k, Pow(0.3)), spec1k, p, q)
            assert calls["on_grid"] == calls["starred"] == 5 * len(BATCH_PQ), B
            assert calls["support"] == B


class TestGrandMaximal:
    def test_dictionary_normalized(self, spec1k):
        d = build_dictionary(spec1k)
        assert len(d.profiles) == 8  # two widths, orders 0..n+2
        for prof in d.profiles:
            assert prof.scale == 1.0 / spaces._seminorm(spec1k, prof.width, prof.order, spec1k.n + 2)

    @pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 256), GridSpec(2, 2.0, 32)], ids=["1d", "2d"])
    def test_seminorms_equal_former_formula(self, spec):
        # _seminorm takes its base from GrandProfile.multiplier at level 0;
        # before, it wrote the 1D and 2D Gaussian derivatives out itself
        from lpw.lpaley import from_spectrum

        xi = spec.freq_axis()
        xim = (xi,) if spec.n == 1 else np.meshgrid(xi, xi, indexing="ij")
        N = spec.n + 2
        betas = [b for b in np.ndindex(*(N + 1,) * spec.n) if sum(b) <= N]
        for width in (0.5, 1.0):
            for order in range(N + 1):
                base = (1j * xim[0]) ** order * np.exp(-0.5 * width**2 * sum(x**2 for x in xim))
                want = 0.0
                for beta in betas:
                    mult = base.copy()
                    for ax, b in enumerate(beta):
                        mult = mult * (1j * xim[ax]) ** b
                    want = max(want, float((np.abs(from_spectrum(spec, mult, real=False)) * (1.0 + spec.radius()) ** N).max()))
                assert spaces._seminorm(spec, width, order, N) == want, (width, order)

    @pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 256), GridSpec(2, 2.0, 32)], ids=["1d", "2d"])
    def test_multiplier_equals_former_formula(self, spec):
        from lpw.spaces import GrandProfile

        xi = spec.freq_axis()
        for k in (-2, 0, 3):
            if spec.n == 1:
                z = 2.0 ** (-k) * xi
                rho2 = z**2
            else:
                z, Z2 = np.meshgrid(2.0 ** (-k) * xi, 2.0 ** (-k) * xi, indexing="ij")
                rho2 = z**2 + Z2**2
            for prof in (GrandProfile(0.5, 0, 1.0), GrandProfile(1.0, 3, 0.25)):
                want = prof.scale * (1j * z) ** prof.order * np.exp(-0.5 * prof.width**2 * rho2)
                assert np.array_equal(prof.multiplier(spec, k), want)

    def test_zero(self, spec1k, pair1k):
        d = build_dictionary(spec1k)
        ts = WeightSequence(Const(1.0), -3, 6)
        assert hardy_grand_norm(GridFunction(spec1k, np.zeros(spec1k.N)), ts, 2.0, d) == 0.0

    def test_dictionary_monotone(self, spec1k, pair1k, corpus1k):
        from lpw.spaces import TestFunctionDictionary

        d = build_dictionary(spec1k)
        small = TestFunctionDictionary(d.profiles[:4])
        ts = WeightSequence(Const(1.0), -3, 6)
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
            ts = WeightSequence(Pow(0.3), *levels)
            for mem in corpus:
                best = np.zeros(spec.shape)
                for k in ts.levels():
                    t = ts.on_grid(spec, k).values
                    for prof in d.profiles:
                        conv = np.fft.ifftn(prof.multiplier(spec, k) * np.fft.fftn(mem.f.values))
                        np.maximum(best, t * np.abs(conv), out=best)
                want = lp_norm(best, spec.cell_measure, 2.0)
                assert hardy_grand_norm(mem.f, ts, 2.0, d) == want

    def test_multipliers_built_once_per_level(self, spec1k, corpus1k, monkeypatch):
        from lpw.spaces import GrandProfile

        built = []
        orig = GrandProfile.multiplier

        def counted(self, spec, k):
            built.append(k)
            return orig(self, spec, k)

        d = build_dictionary(spec1k)  # its seminorms evaluate each profile at level 0
        monkeypatch.setattr(GrandProfile, "multiplier", counted)
        ts = WeightSequence(Pow(0.3), -3, 6)
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
        ts = WeightSequence(Const(1.0), -3, 6)
        ws = sequence(pair1k, Const(1.0))
        ratios = [
            hardy_grand_norm(mem.f, ts, 2.0, d) / tl(mem.f, pair1k, ws, 2.0, 2.0) for mem in corpus1k[:6]
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
        ws = WeightSequence(Pow(0.3), pair.k_min, pair.k_max)
        for k0, m0 in ((0, (0, -1)), (2, (3, 1)), (3, (-4, 2))):
            coeffs = CoefficientSet.from_entries(2, spec.R, {(k0, m0): 1.0 - 0.25j})
            for fn, args in (
                (seq_b_norm, (2.0, 3.0)),
                (seq_f, (2.0, 3.0)),
                (seq_f, (2.0, np.inf)),
                (seq_f_infty_norm, (2.0, pair_family(pair))),
            ):
                plain, star = fn(coeffs, ws, spec, *args)
                assert plain == pytest.approx(star, rel=1e-12), (fn.__name__, k0, m0)

    def test_unit_weight_f_value_2d(self, setup2d):
        # n=2, p=q=2, t=1: the norm is 2^(k n (1/2 - 1/p)) |lambda| = |lambda|
        spec, pair = setup2d
        ws = WeightSequence(Const(1.0), pair.k_min, pair.k_max)
        coeffs = CoefficientSet.from_entries(2, spec.R, {(2, (1, 1)): 3.0})
        plain, star = seq_f(coeffs, ws, spec, 2.0, 2.0)
        assert plain == pytest.approx(3.0, rel=1e-12)
        assert star == pytest.approx(3.0, rel=1e-12)

    def test_carleson_and_bmo_2d(self, setup2d, rng):
        from lpw.verify import make_corpus

        spec, pair = setup2d
        f = make_corpus(spec, pair, size=1, seed=21)[0].f
        ws = WeightSequence(Pow(0.3), pair.k_min, pair.k_max)
        fam = CubeFamily(-1, 4)
        val = tl_infty(f, pair, ws, 2.0, fam)
        dbl = tl_infty(f, pair, WeightSequence(Const(2.0) * Pow(0.3), pair.k_min, pair.k_max), 2.0, fam)
        assert val > 0
        assert dbl == pytest.approx(2 * val, rel=1e-12)
        g = GridFunction(spec, f.values + 7.0)
        assert bmo_norm(g, fam) == pytest.approx(bmo_norm(f, fam), rel=1e-9, abs=1e-12)


class TestBMO:
    def test_constants_vanish(self):
        spec = GridSpec(1, 2.0, 128)
        fam = CubeFamily(*spec.level_window())
        assert bmo_norm(GridFunction(spec, np.full(128, 4.2)), fam) == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self, rng):
        spec = GridSpec(1, 2.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        g = GridFunction(spec, f.values + 11.0)
        fam = CubeFamily(*spec.level_window())
        assert bmo_norm(g, fam) == pytest.approx(bmo_norm(f, fam), rel=1e-10, abs=1e-12)

    def test_indicator_half(self):
        # the balanced cube [0, 2) (or the translate [-1, 1)) attains 1/2
        spec = GridSpec(1, 2.0, 256)
        ax = spec.axis()
        f = GridFunction(spec, ((ax >= 0) & (ax < 1)).astype(float))
        assert bmo_norm(f, CubeFamily(*spec.level_window())) == pytest.approx(0.5, abs=1e-12)
