import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lpw.spaces import cube_lp
from lpw.grid import (
    DyadicCube,
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    cube_samples,
    enumerate_cubes,
    load_grid_function,
    lp_lq_norm,
    lp_norm,
    save_grid_function,
    weighted_lp_norm,
)


def indicator(spec, lo, hi):
    ax = spec.axis()
    return GridFunction(spec, ((ax >= lo) & (ax < hi)).astype(float))


class TestGridSpec:
    def test_rejects_bad_dimension(self):
        with pytest.raises(GridError):
            GridSpec(3, 8.0, 64)

    def test_rejects_non_pow2(self):
        with pytest.raises(GridError):
            GridSpec(1, 3.0, 64)
        with pytest.raises(GridError):
            GridSpec(1, 8.0, 100)

    def test_offset_avoids_origin(self):
        spec = GridSpec(1, 1.0, 16)
        assert np.abs(spec.axis()).min() == pytest.approx(spec.h / 2)
        assert 0.0 in GridSpec(1, 1.0, 16, offset=False).axis()

    def test_spacing(self):
        assert GridSpec(1, 8.0, 4096).h == pytest.approx(2 ** -8)


    def test_level_window_matches_former_formulas(self):
        for n in (1, 2):
            for N in (2**j for j in range(1, 14)):
                for R in (2.0**e for e in range(-2, 5)):
                    spec = GridSpec(n, R, N)
                    k_floor, k_cap = spec.level_window()
                    assert k_floor == -int(math.floor(math.log2(2.0 * R) + 1e-9))
                    assert k_cap == int(math.floor(math.log2(1.0 / spec.h) + 1e-9))
                    # band cap formerly applied by make_lp_pair
                    assert k_cap <= int(math.floor(math.log2(np.pi / spec.h) - 1 + 1e-9))
                    # rounded window formerly used by MaximalConfig.full
                    v_hi = int(round(math.log2(1.0 / spec.h)))
                    assert (k_floor, k_cap) == (v_hi - int(round(math.log2(N))), v_hi)


class TestEnumerateCubes:
    def test_unit_tiling(self):
        spec = GridSpec(1, 1.0, 8)
        cubes = enumerate_cubes(spec, 0, 0)
        assert [(c.v, c.m) for c in cubes] == [(0, (-1,)), (0, (0,))]
        assert cubes[0].bounds() == [(-1.0, 0.0)]
        assert cubes[1].bounds() == [(0.0, 1.0)]

    def test_dyadic_counting(self):
        spec = GridSpec(1, 1.0, 8)
        assert len(enumerate_cubes(spec, 0, 2)) == 2 + 4 + 8

    def test_2d_counting(self):
        spec = GridSpec(2, 1.0, 8)
        cubes = enumerate_cubes(spec, 1, 1)
        assert len(cubes) == 16
        assert all(c.side == 0.5 for c in cubes)

    def test_level_tiles_exactly_once(self):
        spec = GridSpec(1, 2.0, 64)
        for v in range(-1, 4):
            cubes = enumerate_cubes(spec, v, v)
            counted = sum(cube_samples(indicator(spec, -2, 2), c).size for c in cubes)
            assert counted == spec.N

    def test_incompatible_levels(self):
        spec = GridSpec(1, 1.0, 8)
        with pytest.raises(GridError):
            enumerate_cubes(spec, 0, 5)
        with pytest.raises(GridError):
            enumerate_cubes(spec, -4, 0)


class TestCubeAverage:
    """Cube integrals through cube_lp, the cube norm ||f|L_p(Q)||: the mean
    M_{Q,p}(f) is |Q|^(-1/p) ||f|L_p(Q)||."""

    def test_constant(self):
        spec = GridSpec(1, 2.0, 64)
        f = GridFunction(spec, np.full(64, 3.0))
        for Q in enumerate_cubes(spec, -1, 2):
            assert cube_lp(f, Q, 2.0) == pytest.approx(3.0 * Q.side**0.5, abs=1e-14)

    def test_indicator_average(self):
        spec = GridSpec(1, 2.0, 64)
        f = indicator(spec, 0.0, 1.0)
        assert cube_lp(f, DyadicCube(-1, (0,)), 1.0) == pytest.approx(0.5 * 2.0)

    def test_sqrt_integral_oracle(self):
        # midpoint quadrature against the closed form: the integral of
        # sqrt(x) over [0,1) is 2/3
        spec = GridSpec(1, 1.0, 4096)
        f = GridFunction(spec, np.sqrt(np.abs(spec.axis())))
        val = cube_lp(f, DyadicCube(0, (0,)), 1.0)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-5)

    def test_errors(self):
        spec = GridSpec(1, 1.0, 16)
        f = GridFunction(spec, np.ones(16))
        with pytest.raises(GridError):
            cube_lp(f, DyadicCube(10, (0,)), 1.0)

    @given(st.floats(0.3, 4.0), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_jensen_monotone_in_p(self, p1, dp):
        # on a cube of unit measure the cube norm is the mean M_{Q,p}
        spec = GridSpec(1, 1.0, 64)
        rng = np.random.default_rng(99)
        f = GridFunction(spec, rng.uniform(0.1, 2.0, 64))
        Q = DyadicCube(0, (-1,))
        assert cube_lp(f, Q, p1) <= cube_lp(f, Q, p1 + dp) + 1e-12

    def test_discrete_hoelder(self, rng):
        spec = GridSpec(1, 1.0, 128)
        u = GridFunction(spec, rng.uniform(0.1, 3.0, 128))
        v = GridFunction(spec, rng.uniform(0.1, 3.0, 128))
        uv = GridFunction(spec, u.values * v.values)
        p, sigma = 3.0, 1.5
        theta = 1.0 / (1.0 / p + 1.0 / sigma)
        for Q in enumerate_cubes(spec, 0, 3):
            lhs = cube_lp(uv, Q, theta)
            rhs = cube_lp(u, Q, p) * cube_lp(v, Q, sigma)
            assert lhs <= rhs * (1 + 1e-12)

    def test_tiling_consistency(self, rng):
        spec = GridSpec(1, 2.0, 256)
        f = GridFunction(spec, rng.normal(size=256))
        total = lp_norm(f, 1.0)
        for v in range(-2, 4):
            acc = 0.0
            for Q in enumerate_cubes(spec, v, v):
                acc += cube_lp(f, Q, 1.0)
            assert acc == pytest.approx(total, rel=1e-12)


class TestWeightedNorm:
    def test_domain_measure(self):
        spec = GridSpec(1, 1.0, 64)
        one = GridFunction(spec, np.ones(64))
        assert weighted_lp_norm(one, one, 2.0) == pytest.approx(np.sqrt(2.0))

    def test_weight_homogeneity(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        g = GridFunction(spec, rng.uniform(0.1, 1.0, 64))
        g2 = GridFunction(spec, 2 * g.values)
        for p in (0.5, 1.0, 2.0, 3.5):
            assert weighted_lp_norm(f, g2, p) == pytest.approx(2 * weighted_lp_norm(f, g, p), rel=1e-13)

    def test_gaussian_singular_weight_quadrature_oracle(self):
        # high-resolution midpoint value against adaptive quadrature
        spec = GridSpec(1, 8.0, 2**16)
        ax = spec.axis()
        f = GridFunction(spec, np.exp(-(ax**2)))
        g = GridFunction(spec, np.abs(ax) ** 0.3)
        val = weighted_lp_norm(f, g, 2.0)
        ref2, _ = quad(lambda x: np.exp(-2 * x * x) * abs(x) ** 0.6, -8, 8, points=[0.0], limit=200)
        assert val == pytest.approx(np.sqrt(ref2), rel=1e-6)

    def test_negative_weight_rejected(self):
        spec = GridSpec(1, 1.0, 16)
        f = GridFunction(spec, np.ones(16))
        with pytest.raises(ValueError):
            weighted_lp_norm(f, GridFunction(spec, -np.ones(16)), 2.0)

    def test_p_infinity(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        one = GridFunction(spec, np.ones(64))
        assert weighted_lp_norm(f, one, np.inf) == np.abs(f.values).max()


class TestLpLq:
    def test_singleton(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        fs = VectorSequence(0, (f,))
        for q in (1.0, 2.0, np.inf):
            assert lp_lq_norm(fs, 2.0, q) == pytest.approx(lp_norm(f, 2.0))

    def test_two_identical_levels(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        fs = VectorSequence(0, (f, f))
        assert lp_lq_norm(fs, 2.0, 2.0) == pytest.approx(np.sqrt(2) * lp_norm(f, 2.0))

    def test_double_loop_oracle(self, rng):
        spec = GridSpec(1, 1.0, 32)
        entries = tuple(GridFunction(spec, rng.normal(size=32)) for _ in range(5))
        fs = VectorSequence(-2, entries)
        p, q = 2.0, 3.0
        acc = 0.0
        for i in range(32):
            s = sum(abs(g.values[i]) ** q for g in entries) ** (1 / q)
            acc += spec.h * s**p
        assert lp_lq_norm(fs, p, q) == pytest.approx(acc ** (1 / p), rel=1e-12)

    def test_grid_mismatch(self, rng):
        a = GridFunction(GridSpec(1, 1.0, 32), rng.normal(size=32))
        b = GridFunction(GridSpec(1, 1.0, 64), rng.normal(size=64))
        with pytest.raises(GridError):
            VectorSequence(0, (a, b))

    @given(st.floats(0.5, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_decreasing_in_q(self, q1, dq):
        spec = GridSpec(1, 1.0, 32)
        rng = np.random.default_rng(5)
        fs = VectorSequence(0, tuple(GridFunction(spec, rng.normal(size=32)) for _ in range(4)))
        assert lp_lq_norm(fs, 2.0, q1 + dq) <= lp_lq_norm(fs, 2.0, q1) * (1 + 1e-12)


class TestIO:
    def test_roundtrip_real(self, tmp_path, rng):
        spec = GridSpec(1, 2.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        save_grid_function(f, tmp_path / "f")
        g = load_grid_function(tmp_path / "f")
        assert g.spec == spec
        np.testing.assert_array_equal(g.values, f.values)

    def test_roundtrip_complex_2d(self, tmp_path, rng):
        spec = GridSpec(2, 1.0, 16)
        f = GridFunction(spec, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        save_grid_function(f, tmp_path / "f")
        g = load_grid_function(tmp_path / "f")
        np.testing.assert_array_equal(g.values, f.values)

    def test_nonfinite_rejected(self):
        spec = GridSpec(1, 1.0, 16)
        bad = np.ones(16)
        bad[3] = np.nan
        with pytest.raises(GridError):
            GridFunction(spec, bad)
