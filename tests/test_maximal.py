import numpy as np
import pytest

from lpw.grid import CubeFamily, GridFunction, GridSpec, VectorSequence, lp_lq_norm
from lpw.maximal import (
    MaximalConfig,
    fefferman_stein_ratio,
    kernel_sum_ratio,
    maximal_fn,
    maximal_fn_bruteforce,
    weighted_maximal_ratio,
    window_sum_table,
)
from lpw.verify import spike_family
from lpw.weights import Const, Dyadic, Pow, WeightSequence


def random_sequence(spec, levels, rng):
    return VectorSequence(levels[0], tuple(
        GridFunction(spec, rng.normal(size=spec.shape)) for _ in levels
    ))


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
    """scipy is imported by the first maximal function, not by importing lpw."""

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
            from lpw.grid import GridFunction, GridSpec
            from lpw.maximal import MaximalConfig, maximal_fn, maximal_fn_bruteforce

            assert "scipy" not in sys.modules
            rng = np.random.default_rng(11)
            for spec in (GridSpec(1, 1.0, 64), GridSpec(2, 1.0, 16)):
                f = GridFunction(spec, rng.normal(size=spec.shape))
                cfg = MaximalConfig.full(spec)
                fast = maximal_fn(f, cfg).values
                assert "scipy" in sys.modules
                slow = maximal_fn_bruteforce(f, cfg).values
                np.testing.assert_allclose(fast, slow, rtol=1e-13)
        """)


class TestMaximalFn:
    def test_constant(self):
        spec = GridSpec(1, 2.0, 64)
        f = GridFunction(spec, np.full(64, 2.5))
        out = maximal_fn(f, MaximalConfig.full(spec))
        np.testing.assert_allclose(out.values, 2.5, rtol=1e-14)

    def test_indicator_at_distance(self):
        # f = indicator of [0,1); at x = 2 the best window is [h, 2+h) with
        # average (1 - h) / 2
        spec = GridSpec(1, 4.0, 512)
        ax = spec.axis()
        f = GridFunction(spec, ((ax >= 0) & (ax < 1)).astype(float))
        out = maximal_fn(f, MaximalConfig.full(spec))
        i = np.argmin(np.abs(ax - 2.0))
        assert out.values[i] == pytest.approx(0.5, abs=2 * spec.h)

    def test_homogeneity(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        cfg = MaximalConfig.full(spec)
        a = maximal_fn(GridFunction(spec, 3.0 * f.values), cfg)
        b = maximal_fn(f, cfg)
        np.testing.assert_allclose(a.values, 3.0 * b.values, rtol=1e-13)

    def test_fast_matches_bruteforce_1d(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        cfg = MaximalConfig.full(spec)
        fast = maximal_fn(f, cfg)
        slow = maximal_fn_bruteforce(f, cfg)
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-13)

    def test_fast_matches_bruteforce_2d(self, rng):
        spec = GridSpec(2, 1.0, 16)
        f = GridFunction(spec, rng.normal(size=(16, 16)))
        cfg = MaximalConfig.full(spec)
        fast = maximal_fn(f, cfg)
        slow = maximal_fn_bruteforce(f, cfg)
        np.testing.assert_allclose(fast.values, slow.values, rtol=1e-13)

    def test_pointwise_domination(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        out = maximal_fn(f, MaximalConfig.full(spec))
        assert np.all(out.values >= np.abs(f.values))

    def test_sublinearity(self, rng):
        spec = GridSpec(1, 1.0, 128)
        cfg = MaximalConfig.full(spec)
        f = GridFunction(spec, rng.normal(size=128))
        g = GridFunction(spec, rng.normal(size=128))
        both = maximal_fn(f + g, cfg)
        assert np.all(both.values <= maximal_fn(f, cfg).values + maximal_fn(g, cfg).values + 1e-12)

    def test_window_family_monotone(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        small = maximal_fn(f, MaximalConfig(4, 6))
        big = maximal_fn(f, MaximalConfig(2, 6))
        assert np.all(big.values >= small.values - 1e-15)

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
        fs = VectorSequence(0, tuple(GridFunction(spec, np.ones(64)) for _ in range(3)))
        assert fefferman_stein_ratio(fs, 2.0, 2.0, MaximalConfig.full(spec)) == pytest.approx(1.0)

    def test_fs_singleton_reduces_to_scalar(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        cfg = MaximalConfig.full(spec)
        fs = VectorSequence(0, (f,))
        got = fefferman_stein_ratio(fs, 2.0, 3.0, cfg)
        from lpw.grid import lp_norm

        want = lp_norm(maximal_fn(f, cfg), 2.0) / lp_norm(f, 2.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_fs_invalid_sigma(self, rng):
        spec = GridSpec(1, 1.0, 64)
        # the plain maximal function is the case sigma = 1, which needs
        # sigma < min(p, q)
        fs = random_sequence(spec, range(0, 2), rng)
        with pytest.raises(ValueError):
            fefferman_stein_ratio(fs, 2.0, 1.0, MaximalConfig.full(spec))

    def test_fs_bounded_on_bands(self, spec1k, pair1k, corpus1k):
        cfg = MaximalConfig.full(spec1k)
        from lpw.lpaley import band_decompose

        for mem in corpus1k[:4]:
            fs = band_decompose(mem.f, pair1k).bands
            r = fefferman_stein_ratio(fs, 2.0, 2.0, cfg)
            assert 1.0 <= r < 10.0

    def test_weighted_trivial_weight(self, rng):
        spec = GridSpec(1, 1.0, 128)
        f = GridFunction(spec, rng.normal(size=128))
        fs = VectorSequence(0, (f,))
        ts = WeightSequence(Const(1.0), 0, 0, 2.0)
        assert weighted_maximal_ratio(fs, ts, 2.0, MaximalConfig.full(spec), q=np.inf) >= 1.0

    def test_weighted_ratio_blows_up_outside_class(self, spec1k, pair1k):
        # |x|^2 is outside the class at p=2: concentrating unit-norm spikes
        # at the origin drives the ratio up
        spikes = spike_family(spec1k, pair1k)
        ts = WeightSequence(Pow(2.0), 0, 0, 2.0)
        cfg = MaximalConfig.full(spec1k)
        ratios = []
        for mem in spikes:
            fs = VectorSequence(0, (mem.f,))
            ratios.append(weighted_maximal_ratio(fs, ts, 2.0, cfg, q=2.0))
        assert ratios[-1] > 2.0 * ratios[0]

    def test_zero_denominator(self):
        spec = GridSpec(1, 1.0, 64)
        fs = VectorSequence(0, (GridFunction(spec, np.zeros(64)),))
        ts = WeightSequence(Const(1.0), 0, 0, 2.0)
        with pytest.raises(ZeroDivisionError):
            fefferman_stein_ratio(fs, 2.0, 2.0, MaximalConfig.full(spec))
        with pytest.raises(ZeroDivisionError):
            weighted_maximal_ratio(fs, ts, 2.0, MaximalConfig.full(spec))
        with pytest.raises(ZeroDivisionError):
            kernel_sum_ratio(fs, ts, 1.0, "below", 2.0, 2.0, MaximalConfig.full(spec))


class TestKernelSum:
    def test_single_level_oracle(self, rng):
        # one nonzero input at level 0, unit weights, K=1, direction
        # below: g_k = 2^(-k) M f_0 for k >= 0, zero otherwise
        spec = GridSpec(1, 1.0, 128)
        cfg = MaximalConfig.full(spec)
        f0 = GridFunction(spec, rng.normal(size=128))
        zero = GridFunction(spec, np.zeros(128))
        fs = VectorSequence(0, (f0, zero, zero, zero))
        ts = WeightSequence(Const(1.0), 0, 3, 2.0)
        got = kernel_sum_ratio(fs, ts, 1.0, "below", 2.0, 2.0, cfg)
        M0 = maximal_fn(f0, cfg)
        gs = VectorSequence(0, tuple(
            GridFunction(spec, 2.0 ** (-k) * M0.values) for k in range(4)
        ))
        want = lp_lq_norm(gs, 2.0, 2.0) / lp_lq_norm(fs, 2.0, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_direction_validation(self, rng):
        spec = GridSpec(1, 1.0, 64)
        fs = random_sequence(spec, range(0, 2), rng)
        ts = WeightSequence(Const(1.0), 0, 1, 2.0)
        with pytest.raises(ValueError):
            kernel_sum_ratio(fs, ts, 1.0, "sideways", 2.0, 2.0, MaximalConfig.full(spec))

    def test_dyadic_weight_bounded(self, spec1k, pair1k, corpus1k):
        # t_k = 2^(k s) has rates (s, s); the kernel sum stays bounded for
        # K above the upper rate (below) and K below the lower rate (above)
        s = 1.0
        ts = WeightSequence(Dyadic(s), pair1k.k_min, pair1k.k_max, 2.0)
        cfg = MaximalConfig.full(spec1k)
        from lpw.lpaley import band_decompose

        for mem in corpus1k[:3]:
            fs = band_decompose(mem.f, pair1k).bands
            below = kernel_sum_ratio(fs, ts, s + 1.0, "below", 2.0, 2.0, cfg)
            above = kernel_sum_ratio(fs, ts, s - 1.0, "above", 2.0, 2.0, cfg)
            assert below < 100.0
            assert above < 100.0


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
