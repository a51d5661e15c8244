import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lpw.spaces import cube_lp
from lpw.grid import (
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    level_index_range,
    load_grid_function,
    lp_lq_norm,
    lp_norm,
    mesh_radius,
    mesh_weights,
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

    def test_spacing(self):
        assert GridSpec(1, 8.0, 4096).h == pytest.approx(2 ** -8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_radius_is_one_read_only_array(self, n):
        spec = GridSpec(n, 2.0, 16)
        r = spec.radius()
        assert spec.radius() is r
        with pytest.raises(ValueError):
            r[0] = 1.0
        ax = spec.axis()
        want = np.abs(ax) if n == 1 else np.hypot(*np.meshgrid(ax, ax, indexing="ij"))
        assert np.array_equal(r, want)
        # equal specs are equal by their fields alone
        assert GridSpec(n, 2.0, 16) == spec and hash(GridSpec(n, 2.0, 16)) == hash(spec)


    @pytest.mark.parametrize("n", [1, 2])
    def test_freq_radius_equals_former_formula(self, n):
        spec = GridSpec(n, 2.0, 64)
        xi = spec.freq_axis()
        want = np.abs(xi) if n == 1 else np.hypot(*np.meshgrid(xi, xi, indexing="ij"))
        assert np.array_equal(spec.freq_radius(), want)

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
                    # the same window by rounding log2 of the grid spacing
                    v_hi = int(round(math.log2(1.0 / spec.h)))
                    assert (k_floor, k_cap) == (v_hi - int(round(math.log2(N))), v_hi)

    @pytest.mark.parametrize("n", [1, 2])
    def test_cells_over_level_window(self, n):
        for N in (2, 16, 512):
            for R in (0.5, 1.0, 8.0):
                spec = GridSpec(n, R, N)
                lo, hi = spec.level_window()
                assert [spec.cells(v) for v in range(lo, hi + 1)] == [2.0**-v / spec.h for v in range(lo, hi + 1)]
                assert (spec.cells(lo), spec.cells(hi)) == (N, 1)
                for v in (lo - 1, hi + 1):
                    with pytest.raises(GridError, match="level window"):
                        spec.cells(v)

    @pytest.mark.parametrize("n", [1, 2])
    def test_coefficient_cells_tile_the_cube_positions(self, n):
        # the cubes of level_index_range(R, k) tile the grid: cells(k) a side,
        # half the domain at and below the coarsest level
        for N in (2, 16, 512):
            for R in (0.5, 1.0, 8.0):
                spec = GridSpec(n, R, N)
                lo, hi = spec.level_window()
                for k in range(lo - 2, hi + 1):
                    a, b = level_index_range(R, k)
                    assert spec.coefficient_cells(k) * (b - a) == N
                    assert spec.coefficient_cells(k) == (spec.cells(k) if k > lo else N // 2)
                with pytest.raises(GridError, match=f"level {hi + 1} cubes are finer than the grid spacing"):
                    spec.coefficient_cells(hi + 1)


def signed_axis(rng, size):
    """Normal draws with signed zeros and extreme magnitudes mixed in."""
    return rng.permutation(np.concatenate([rng.normal(size=size), [0.0, -0.0, 1e-300, -1e300, 3.0, -3.0]]))


class TestMesh:
    """mesh_radius and mesh_weights equal, bit for bit, the 1D and 2D
    formulas they replaced in GridSpec, FamilyNodes and domain_integral."""

    def test_radius_1d(self, rng):
        a = signed_axis(rng, 37)
        assert np.array_equal(mesh_radius([a]), np.abs(a))

    def test_radius_2d(self, rng):
        a, b = signed_axis(rng, 37), signed_axis(rng, 23)
        X, Y = np.meshgrid(a, b, indexing="ij")
        assert np.array_equal(mesh_radius([a, b]), np.hypot(X, Y))
        assert np.array_equal(mesh_radius([a, b]).ravel(), np.hypot(a[:, None], b[None, :]).ravel())

    def test_radius_batched(self, rng):
        # a regular batch of FamilyNodes: node coordinates (B, n, K), one row per cube
        X = np.stack([np.stack([signed_axis(rng, 10), signed_axis(rng, 10)]) for _ in range(5)])
        assert np.array_equal(mesh_radius([X[:, 0]]), np.abs(X[:, 0]))
        want = np.hypot(X[:, 0, :, None], X[:, 1, None, :]).reshape(5, 16 * 16)
        assert np.array_equal(mesh_radius([X[:, 0], X[:, 1]]).reshape(5, -1), want)

    def test_radius_equals_hypot_fold(self, rng):
        # the first axis takes np.abs, exact against hypot(0, a): signed
        # zeros, infinities and NaN included
        def hypot_fold(axes):
            n, r = len(axes), 0.0
            for i, a in enumerate(axes):
                r = np.hypot(r, a.reshape(a.shape[:-1] + (1,) * i + a.shape[-1:] + (1,) * (n - 1 - i)))
            return r

        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, -1e300, -3.0])
        X = rng.normal(size=(4, 2, 9))
        for axes in ([special], [signed_axis(rng, 37)], [special, special[::-1]],
                     [signed_axis(rng, 37), special], [signed_axis(rng, 37), signed_axis(rng, 23)],
                     [X[:, 0]], [X[:, 0], X[:, 1]]):
            got, want = mesh_radius(axes), hypot_fold(axes)
            assert got.shape == want.shape
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_weights(self, rng):
        wx, wy = rng.uniform(size=37), rng.uniform(size=23)
        assert np.array_equal(mesh_weights([wx]), wx)
        assert np.array_equal(mesh_weights([wx, wy]), (wx[:, None] * wy[None, :]).ravel())


def level_cubes(f, v, p):
    """cube_lp of every level-v cube of f's grid, the cube at position m
    (level_index_range per axis) at index m - lo, blocked as the sequence
    norms block them: N / (hi - lo) cells a side, so the coarsest level's
    cubes are clipped to half the domain."""
    f.spec.cells(v)  # GridError outside the level window
    lo, hi = level_index_range(f.spec.R, v)
    return cube_lp(f, f.spec.N // (hi - lo), p, np.ones((hi - lo,) * f.spec.n, dtype=bool))


class TestEnumerateCubes:
    """The dyadic cubes of a level, as cube_lp blocks the grid."""

    def test_unit_tiling(self):
        # level 0 on [-1, 1): the cubes [-1, 0) and [0, 1), in that order
        spec = GridSpec(1, 1.0, 8)
        assert level_index_range(spec.R, 0) == (-1, 1)
        assert level_cubes(indicator(spec, -1.0, 0.0), 0, 1.0).tolist() == [1.0, 0.0]
        assert level_cubes(indicator(spec, 0.0, 1.0), 0, 1.0).tolist() == [0.0, 1.0]

    def test_dyadic_counting(self):
        spec = GridSpec(1, 1.0, 8)
        one = GridFunction(spec, np.ones(8))
        assert sum(level_cubes(one, v, 1.0).size for v in range(0, 3)) == 2 + 4 + 8

    def test_2d_counting(self):
        # 16 cubes of side 0.5, each of area 0.25
        spec = GridSpec(2, 1.0, 8)
        got = level_cubes(GridFunction(spec, np.ones(spec.shape)), 1, 1.0)
        assert got.shape == (4, 4)
        assert np.all(got == 0.25)

    def test_level_tiles_exactly_once(self):
        spec = GridSpec(1, 2.0, 64)
        for v in range(-1, 4):
            counted = level_cubes(indicator(spec, -2, 2), v, 1.0).sum() / spec.h
            assert counted == spec.N

    def test_incompatible_levels(self):
        spec = GridSpec(1, 1.0, 8)
        with pytest.raises(GridError):
            level_cubes(GridFunction(spec, np.ones(8)), 5, 1.0)
        with pytest.raises(GridError):
            level_cubes(GridFunction(spec, np.ones(8)), -4, 1.0)


class TestCubeAverage:
    """Cube integrals through cube_lp, the cube norm ||f|L_p(Q)||: the mean
    M_{Q,p}(f) is |Q|^(-1/p) ||f|L_p(Q)||."""

    def test_constant(self):
        spec = GridSpec(1, 2.0, 64)
        f = GridFunction(spec, np.full(64, 3.0))
        for v in range(-1, 3):
            np.testing.assert_allclose(level_cubes(f, v, 2.0), 3.0 * 2.0 ** (-v / 2), rtol=0, atol=1e-14)

    def test_indicator_average(self):
        # the level -1 cube [0, 2) sits at index m - lo = 0 + 1
        spec = GridSpec(1, 2.0, 64)
        f = indicator(spec, 0.0, 1.0)
        assert level_cubes(f, -1, 1.0)[1] == pytest.approx(0.5 * 2.0)

    def test_sqrt_integral_oracle(self):
        # midpoint quadrature against the closed form: the integral of
        # sqrt(x) over [0,1) is 2/3
        spec = GridSpec(1, 1.0, 4096)
        f = GridFunction(spec, np.sqrt(np.abs(spec.axis())))
        val = level_cubes(f, 0, 1.0)[1]
        assert val == pytest.approx(2.0 / 3.0, rel=1e-5)

    def test_errors(self):
        # cubes of 3 cells a side do not tile 16 cells
        spec = GridSpec(1, 1.0, 16)
        f = GridFunction(spec, np.ones(16))
        with pytest.raises(ValueError):
            cube_lp(f, 3, 1.0, np.ones(5, dtype=bool))

    @given(st.floats(0.3, 4.0), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_jensen_monotone_in_p(self, p1, dp):
        # on a cube of unit measure, [-1, 0), the cube norm is the mean M_{Q,p}
        spec = GridSpec(1, 1.0, 64)
        rng = np.random.default_rng(99)
        f = GridFunction(spec, rng.uniform(0.1, 2.0, 64))
        assert level_cubes(f, 0, p1)[0] <= level_cubes(f, 0, p1 + dp)[0] + 1e-12

    def test_discrete_hoelder(self, rng):
        spec = GridSpec(1, 1.0, 128)
        u = GridFunction(spec, rng.uniform(0.1, 3.0, 128))
        v = GridFunction(spec, rng.uniform(0.1, 3.0, 128))
        uv = GridFunction(spec, u.values * v.values)
        p, sigma = 3.0, 1.5
        theta = 1.0 / (1.0 / p + 1.0 / sigma)
        for level in range(0, 4):
            lhs = level_cubes(uv, level, theta)
            rhs = level_cubes(u, level, p) * level_cubes(v, level, sigma)
            assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_tiling_consistency(self, rng):
        spec = GridSpec(1, 2.0, 256)
        f = GridFunction(spec, rng.normal(size=256))
        total = lp_norm(np.abs(f.values), spec.cell_measure, 1.0)
        for v in range(-2, 4):
            assert level_cubes(f, v, 1.0).sum() == pytest.approx(total, rel=1e-12)


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
        a, cell = np.abs(f.values), spec.cell_measure
        for q in (1.0, 2.0, np.inf):
            assert lp_lq_norm(a[None], cell, 2.0, q) == pytest.approx(lp_norm(a, cell, 2.0))

    def test_two_identical_levels(self, rng):
        spec = GridSpec(1, 1.0, 64)
        f = GridFunction(spec, rng.normal(size=64))
        a, cell = np.abs(f.values), spec.cell_measure
        assert lp_lq_norm(np.stack([a, a]), cell, 2.0, 2.0) == pytest.approx(np.sqrt(2) * lp_norm(a, cell, 2.0))

    def test_double_loop_oracle(self, rng):
        spec = GridSpec(1, 1.0, 32)
        entries = rng.normal(size=(5, 32))
        p, q = 2.0, 3.0
        acc = 0.0
        for i in range(32):
            s = sum(abs(g[i]) ** q for g in entries) ** (1 / q)
            acc += spec.h * s**p
        assert lp_lq_norm(np.abs(entries), spec.cell_measure, p, q) == pytest.approx(acc ** (1 / p), rel=1e-12)

    @pytest.mark.parametrize("shape", [(2, 64), (32,), (0, 32), (2, 32, 32), ()],
                             ids=["other_grid", "no_level_axis", "no_levels", "extra_axis", "scalar"])
    def test_stack_shape_rejected(self, shape):
        # rows must be samples of the sequence's grid, and there must be one
        spec = GridSpec(1, 1.0, 32)
        with pytest.raises(GridError, match="level stack shape"):
            VectorSequence(spec, 0, np.zeros(shape))

    def test_rows_by_level(self, rng):
        spec = GridSpec(2, 1.0, 8)
        stack = rng.normal(size=(3, 8, 8))
        fs = VectorSequence(spec, -1, stack)
        assert fs.levels() == range(-1, 2)
        assert np.array_equal(fs[1], stack[2])
        with pytest.raises(GridError):
            fs[2]

    @given(st.floats(0.5, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_decreasing_in_q(self, q1, dq):
        spec = GridSpec(1, 1.0, 32)
        rng = np.random.default_rng(5)
        a, cell = np.abs(rng.normal(size=(4, 32))), spec.cell_measure
        assert lp_lq_norm(a, cell, 2.0, q1 + dq) <= lp_lq_norm(a, cell, 2.0, q1) * (1 + 1e-12)


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
