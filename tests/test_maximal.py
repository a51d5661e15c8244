import itertools

import numpy as np
import pytest

from lpw.grid import CubeFamily, GridError, GridFunction, GridSpec, VectorSequence, lp_lq_norm
from lpw.lpaley import band_decompose, make_lp_pair
from lpw.maximal import (
    _fold,
    fefferman_stein_ratio,
    kernel_sum_ratio,
    maximal_fn,
    maximal_fn_bruteforce,
    weighted_maximal_ratio,
    window_sizes,
    window_sum_table,
)
from lpw.spaces import band_magnitudes
from lpw.verify import make_corpus, spike_family
from lpw.weights import Const, Dyadic, Pow, WeightSequence


def random_sequence(spec, levels, rng):
    return VectorSequence(spec, levels[0], rng.normal(size=(len(levels), *spec.shape)))


def magnitudes(fs):
    """The magnitude stack {|f_k|} that the maximal stack and ratios take."""
    return VectorSequence(fs.spec, fs.k_min, np.abs(fs.values))


def maximal_of(f):
    """The maximal function of one grid function f: maximal_fn of the
    one-level stack {|f|}."""
    return maximal_fn(VectorSequence(f.spec, 0, np.abs(f.values)[None]))[0]


def run_fresh(script: str) -> None:
    """Run script in a fresh interpreter that imports this checkout's lpw."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    import lpw

    env = dict(os.environ)
    src = str(Path(lpw.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


class TestLazyScipy:
    """No lpw path imports scipy: not importing lpw, not a maximal function."""

    def test_import_leaves_scipy_out(self):
        run_fresh("""
            import sys
            import lpw, lpw.cli
            assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
        """)

    def test_translates_match_bruteforce_after_lazy_import(self):
        run_fresh("""
            import sys
            import numpy as np
            import lpw.cli
            from lpw.grid import GridFunction, GridSpec, VectorSequence
            from lpw.maximal import maximal_fn, maximal_fn_bruteforce

            rng = np.random.default_rng(11)
            for spec in (GridSpec(1, 1.0, 64), GridSpec(2, 1.0, 16)):
                f = GridFunction(spec, rng.normal(size=spec.shape))
                fast = maximal_fn(VectorSequence(spec, 0, np.abs(f.values)[None]))[0]
                maximal_fn(VectorSequence(spec, 0, np.abs(rng.normal(size=(3, *spec.shape)))))
                slow = maximal_fn_bruteforce(f).values
                np.testing.assert_allclose(fast, slow, rtol=1e-13)
            assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
        """)


def containing_max_reference(a, n, sizes):
    """Per size w, the max over the w^n shifted copies of that size's window
    averages (shifts 0..w-1 per axis: every window containing the cell),
    then the max over the sizes; the per-size form the fold replaces."""
    table = window_sum_table(a, sizes, n)
    out = np.zeros_like(a)
    for w in sizes:
        avg = table[w] / float(w**n)
        for shift in itertools.product(range(w), repeat=n):
            np.maximum(out, np.roll(avg, shift, axis=tuple(range(-n, 0))), out=out)
    return out


class TestFold:
    """The Horner fold over the window sizes equals the per-size containing
    max bit for bit, on stacks and on subsets of the sizes."""

    @pytest.mark.parametrize("spec", [GridSpec(1, 2.0, 64), GridSpec(2, 2.0, 16)], ids=["1d", "2d"])
    @pytest.mark.parametrize("sizes", [None, [1, 2, 4], [2, 8], [1, 16]], ids=["all", "1-2-4", "2-8", "1-16"])
    def test_fold_equals_per_size_reference(self, rng, spec, sizes):
        sizes = sizes or window_sizes(spec)
        a = np.abs(rng.normal(size=(3, *spec.shape)))
        assert np.array_equal(_fold(a, spec.n, sizes), containing_max_reference(a, spec.n, sizes))
        assert np.array_equal(_fold(a[0], spec.n, sizes), containing_max_reference(a[0], spec.n, sizes))
        if sizes == window_sizes(spec):
            assert np.array_equal(maximal_fn(VectorSequence(spec, 0, a)).values, containing_max_reference(a, spec.n, sizes))

    @pytest.mark.parametrize("spec", [GridSpec(1, 8.0, 4096), GridSpec(2, 2.0, 128)], ids=["1d", "2d"])
    def test_sequence_equals_rows(self, rng, spec):
        # 1D N=4096 folds two rows per block, so blocks and an odd tail are covered
        fs = random_sequence(spec, range(-2, 3), rng)
        Ms = maximal_fn(magnitudes(fs))
        assert (Ms.spec, Ms.k_min) == (fs.spec, fs.k_min)
        for k in fs.levels():
            assert np.array_equal(Ms[k], maximal_of(GridFunction(spec, fs[k])))

    @pytest.mark.parametrize("spec", [GridSpec(1, 2.0, 64), GridSpec(2, 2.0, 16)], ids=["1d", "2d"])
    def test_stack_table_equals_row_tables(self, rng, spec):
        a = np.abs(rng.normal(size=(3, *spec.shape)))
        sizes = window_sizes(spec)
        stacked = window_sum_table(a, sizes, spec.n)
        for i, row in enumerate(a):
            rows = window_sum_table(row, sizes)
            assert all(np.array_equal(stacked[w][i], rows[w]) for w in sizes)


class TestMaximalFn:
    def test_constant(self):
        spec = GridSpec(1, 2.0, 64)
        f = GridFunction(spec, np.full(64, 2.5))
        out = maximal_of(f)
        np.testing.assert_allclose(out, 2.5, rtol=1e-14)

    def test_indicator_at_distance(self):
        # f = indicator of [0,1); at x = 2 the best window is [h, 2+h) with
        # average (1 - h) / 2
        spec = GridSpec(1, 4.0, 512)
        ax = spec.axis()
        f = GridFunction(spec, ((ax >= 0) & (ax < 1)).astype(float))
        out = maximal_of(f)
        i = np.argmin(np.abs(ax - 2.0))
        assert out[i] == pytest.approx(0.5, abs=2 * spec.h)

    def test_homogeneity(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        a = maximal_of(GridFunction(spec, 3.0 * f.values))
        b = maximal_of(f)
        np.testing.assert_allclose(a, 3.0 * b, rtol=1e-13)

    def test_fast_matches_bruteforce_1d(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        fast = maximal_of(f)
        slow = maximal_fn_bruteforce(f)
        np.testing.assert_allclose(fast, slow.values, rtol=1e-13)

    def test_fast_matches_bruteforce_2d(self, rng):
        spec = GridSpec(2, 1.0, 16)
        f = GridFunction(spec, rng.normal(size=(16, 16)))
        fast = maximal_of(f)
        slow = maximal_fn_bruteforce(f)
        np.testing.assert_allclose(fast, slow.values, rtol=1e-13)

    def test_pointwise_domination(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        out = maximal_of(f)
        assert np.all(out >= np.abs(f.values))

    def test_sublinearity(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        g = GridFunction(spec, rng.normal(size=128))
        both = maximal_of(GridFunction(spec, f.values + g.values))
        assert np.all(both <= maximal_of(f) + maximal_of(g) + 1e-12)

    def test_window_family_monotone(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        # windows of 1 to 4 cells against 1 to 16 cells
        small = _fold(np.abs(f.values), spec.n, [1, 2, 4])
        big = _fold(np.abs(f.values), spec.n, [1, 2, 4, 8, 16])
        assert np.all(big >= small - 1e-15)

    @pytest.mark.parametrize("spec", [GridSpec(1, 1.0, 64), GridSpec(1, 8.0, 4096), GridSpec(2, 2.0, 32)])
    def test_window_sizes_are_every_dyadic_width(self, spec):
        assert window_sizes(spec) == [2**i for i in range(spec.N.bit_length())]
        assert window_sizes(spec)[-1] == spec.N

    def test_window_sums_random_windows(self, rng):
        spec = GridSpec(1, 1.0, 512)
        vals = rng.normal(size=512)
        sizes = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        table = window_sum_table(vals, sizes)
        ext = np.concatenate([vals, vals])
        for _ in range(1000):
            w = sizes[rng.integers(0, len(sizes))]
            i = int(rng.integers(0, 512))
            assert table[w][i] == pytest.approx(ext[i : i + w].sum(), rel=1e-12, abs=1e-12)


class TestRatios:
    def test_fs_all_ones(self):
        spec = GridSpec(1, 1.0, 64)
        fs = VectorSequence(spec, 0, np.ones((3, 64)))
        assert fefferman_stein_ratio(fs, 2.0, 2.0, maximal_fn(fs)) == pytest.approx(1.0)

    def test_fs_singleton_reduces_to_scalar(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        fs = VectorSequence(spec, 0, np.abs(f.values)[None])
        got = fefferman_stein_ratio(fs, 2.0, 3.0, maximal_fn(fs))
        from lpw.grid import lp_norm

        want = lp_norm(maximal_of(f), spec.cell_measure, 2.0) / lp_norm(np.abs(f.values), spec.cell_measure, 2.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_fs_invalid_sigma(self, rng):
        spec = GridSpec(1, 1.0, 64)
        # the plain maximal function is the case sigma = 1, which needs
        # sigma < min(p, q)
        fs = random_sequence(spec, range(0, 2), rng)
        with pytest.raises(ValueError):
            fefferman_stein_ratio(fs, 2.0, 1.0, maximal_fn(fs))

    def test_fs_bounded_on_bands(self, spec1k, pair1k, corpus1k):
        for mem in corpus1k[:4]:
            fs = band_magnitudes(mem.f, pair1k)
            r = fefferman_stein_ratio(fs, 2.0, 2.0, maximal_fn(fs))
            assert 1.0 <= r < 10.0

    def test_weighted_trivial_weight(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        fs = VectorSequence(spec, 0, np.abs(f.values)[None])
        ts = WeightSequence(Const(1.0), 0, 0)
        assert weighted_maximal_ratio(fs, ts, 2.0, maximal_fn(fs), q=np.inf) >= 1.0

    def test_weighted_ratio_blows_up_outside_class(self, spec1k, pair1k):
        # |x|^2 is outside the class at p=2: concentrating unit-norm spikes
        # at the origin drives the ratio up
        spikes = spike_family(spec1k, pair1k)
        ts = WeightSequence(Pow(2.0), 0, 0)
        ratios = []
        for mem in spikes:
            fs = VectorSequence(spec1k, 0, np.abs(mem.f.values)[None])
            ratios.append(weighted_maximal_ratio(fs, ts, 2.0, maximal_fn(fs), q=2.0))
        assert ratios[-1] > 2.0 * ratios[0]

    def test_zero_denominator(self):
        spec = GridSpec(1, 1.0, 64)
        fs = VectorSequence(spec, 0, np.zeros((1, 64)))
        ts = WeightSequence(Const(1.0), 0, 0)
        Ms = maximal_fn(fs)
        with pytest.raises(ZeroDivisionError):
            fefferman_stein_ratio(fs, 2.0, 2.0, Ms)
        with pytest.raises(ZeroDivisionError):
            weighted_maximal_ratio(fs, ts, 2.0, Ms)
        with pytest.raises(ZeroDivisionError):
            kernel_sum_ratio(fs, ts, 1.0, "below", 2.0, 2.0, Ms)

    @pytest.mark.parametrize("mismatch", ["spec", "k_min", "levels"])
    def test_mismatched_stack_rejected(self, rng, mismatch):
        # a stack that is not the maximal stack of fs: another grid, levels
        # shifted by one, or one level short
        spec = GridSpec(1, 1.0, 64)
        fs = random_sequence(spec, range(0, 3), rng)
        Ms = maximal_fn(fs)
        if mismatch == "spec":
            Ms = maximal_fn(random_sequence(GridSpec(1, 2.0, 64), range(0, 3), rng))
        elif mismatch == "k_min":
            Ms = VectorSequence(spec, fs.k_min + 1, Ms.values)
        else:
            Ms = VectorSequence(spec, fs.k_min, Ms.values[:-1])
        ts = WeightSequence(Const(1.0), 0, 2)
        with pytest.raises(GridError, match="maximal stack"):
            fefferman_stein_ratio(fs, 2.0, 2.0, Ms)
        with pytest.raises(GridError, match="maximal stack"):
            weighted_maximal_ratio(fs, ts, 2.0, Ms)
        for direction in ("below", "above"):
            with pytest.raises(GridError, match="maximal stack"):
                kernel_sum_ratio(fs, ts, 1.0, direction, 2.0, 2.0, Ms)


class TestKernelSum:
    def test_single_level_oracle(self, rng):
        # one nonzero input at level 0, unit weights, K=1, direction
        # below: g_k = 2^(-k) M f_0 for k >= 0, zero otherwise
        spec = GridSpec(1, 1.0, 128)
        f0 = GridFunction(spec, rng.normal(size=128))
        zero = np.zeros(128)
        fs = VectorSequence(spec, 0, np.stack([np.abs(f0.values), zero, zero, zero]))
        ts = WeightSequence(Const(1.0), 0, 3)
        got = kernel_sum_ratio(fs, ts, 1.0, "below", 2.0, 2.0, maximal_fn(fs))
        M0 = maximal_of(f0)
        gs = np.stack([2.0 ** (-k) * M0 for k in range(4)])
        want = lp_lq_norm(gs, spec.cell_measure, 2.0, 2.0) / lp_lq_norm(fs.values, spec.cell_measure, 2.0, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_direction_validation(self, rng):
        spec = GridSpec(1, 1.0, 64)
        fs = random_sequence(spec, range(0, 2), rng)
        ts = WeightSequence(Const(1.0), 0, 1)
        with pytest.raises(ValueError):
            kernel_sum_ratio(fs, ts, 1.0, "sideways", 2.0, 2.0, maximal_fn(fs))

    def test_dyadic_weight_bounded(self, spec1k, pair1k, corpus1k):
        # t_k = 2^(k s) has rates (s, s); the kernel sum stays bounded for
        # K above the upper rate (below) and K below the lower rate (above)
        s = 1.0
        ts = WeightSequence(Dyadic(s), pair1k.k_min, pair1k.k_max)
        for mem in corpus1k[:3]:
            fs = band_magnitudes(mem.f, pair1k)
            Ms = maximal_fn(fs)
            below = kernel_sum_ratio(fs, ts, s + 1.0, "below", 2.0, 2.0, Ms)
            above = kernel_sum_ratio(fs, ts, s - 1.0, "above", 2.0, 2.0, Ms)
            assert below < 100.0
            assert above < 100.0


class TestStackMatchesPerLevelReference:
    """The ratios on a band stack equal, bit for bit, the same ratios built
    level by level from band grid functions and maximal_fn."""

    @staticmethod
    def reference(f, pair, ts):
        spec, levels = pair.gspec, pair.levels()

        def stack(gfs):
            return np.abs(np.stack([g.values for g in gfs]))

        def weighted(gfs):
            return stack([GridFunction(spec, ts.on_grid(spec, k).values * np.abs(g.values))
                          for k, g in zip(levels, gfs)])

        bands = [GridFunction(spec, row) for row in band_decompose(f, pair).values]
        Ms = [GridFunction(spec, maximal_of(g)) for g in bands]
        cell = spec.cell_measure
        out = {
            "fs": lp_lq_norm(stack(Ms), cell, 2.0, 2.0) / lp_lq_norm(stack(bands), cell, 2.0, 2.0),
        }
        for q in (2.0, np.inf):
            out[f"wm_{q}"] = lp_lq_norm(weighted(Ms), cell, 2.0, q) / lp_lq_norm(weighted(bands), cell, 2.0, q)
        for direction, K in (("below", 2.0), ("above", 0.0)):
            gs = []
            for k in levels:
                acc = np.zeros(spec.shape)
                for j in range(levels.start, k + 1) if direction == "below" else range(k, levels.stop):
                    acc = acc + 2.0 ** ((j - k) * K) * Ms[j - pair.k_min].values
                gs.append(GridFunction(spec, acc))
            out[direction] = lp_lq_norm(weighted(gs), cell, 2.0, 2.0) / lp_lq_norm(weighted(bands), cell, 2.0, 2.0)
        return out

    @pytest.mark.parametrize("n", [1, 2])
    def test_ratios_equal_reference(self, n, spec1k, pair1k, corpus1k):
        if n == 1:
            spec, pair, members = spec1k, pair1k, [m.f for m in corpus1k[:2]]
        else:
            spec = GridSpec(2, 2.0, 64)
            pair = make_lp_pair(spec, -1, 4)
            members = [m.f for m in make_corpus(spec, pair, size=2, seed=3)]
        ts = WeightSequence(Pow(0.3) * Dyadic(1.0), pair.k_min, pair.k_max)
        for f in members:
            want = self.reference(f, pair, ts)
            fs = band_magnitudes(f, pair)
            Ms = maximal_fn(fs)
            assert fefferman_stein_ratio(fs, 2.0, 2.0, Ms) == want["fs"]
            for q in (2.0, np.inf):
                assert weighted_maximal_ratio(fs, ts, 2.0, Ms, q=q) == want[f"wm_{q}"]
            for direction, K in (("below", 2.0), ("above", 0.0)):
                assert kernel_sum_ratio(fs, ts, K, direction, 2.0, 2.0, Ms) == want[direction]


class TestSuiteWindowCheck:
    """suite_maximal compares the doubling table with direct window sums in
    2D too, not only in 1D."""

    @staticmethod
    def run(monkeypatch, scale):
        import lpw.suites

        def table(values, sizes):
            return {w: scale * t for w, t in window_sum_table(values, sizes).items()}

        monkeypatch.setattr(lpw.suites, "window_sum_table", table)
        ctx = lpw.suites.RunContext(GridSpec(2, 2.0, 32), -1, 3, CubeFamily(-1, 4), corpus_size=2)
        result = lpw.suites.suite_maximal(ctx)
        rec = result["records"][-1]
        assert rec["check"] == "fast_vs_bruteforce"
        return result, rec

    def test_exact_2d_table_passes(self, monkeypatch):
        _, rec = self.run(monkeypatch, 1.0)
        assert rec["window_rel_err"] <= 1e-12 and rec["pass"]

    def test_perturbed_2d_table_fails(self, monkeypatch):
        result, rec = self.run(monkeypatch, 1.0 + 1e-9)
        assert rec["window_rel_err"] > 1e-12
        assert not rec["pass"] and not result["pass"]


class TestSuiteStackReuse:
    """suite_maximal folds each member's band stack once per grid: the ratios
    share the stack instead of rebuilding it."""

    def test_one_maximal_per_band(self, monkeypatch):
        from collections import Counter

        import lpw.maximal
        import lpw.suites

        calls = Counter()
        orig = lpw.maximal.maximal_fn

        def counted(fs):
            calls[fs.spec] += 1
            return orig(fs)

        monkeypatch.setattr(lpw.suites, "maximal_fn", counted)
        ctx = lpw.suites.RunContext(GridSpec(1, 4.0, 256), -2, 4, CubeFamily(-2, 5), corpus_size=2)
        assert lpw.suites.suite_maximal(ctx)["pass"]
        dbl = ctx.doubled()
        assert calls == {
            ctx.spec: 2,
            dbl.spec: 2,
            GridSpec(1, 4.0, 128): 1,  # the fast-against-brute-force comparison
        }
