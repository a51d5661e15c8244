import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpw.grid import CubeFamily, GridError, GridSpec, VectorSequence
from lpw.weights import (
    AltConst,
    AltPow,
    Const,
    Dyadic,
    FamilyNodes,
    Frozen,
    Pow,
    Prod,
    ShiftPow,
    WeightError,
    WeightSequence,
    WeightSpec,
    a1_constant,
    ap_constant,
    check_admissible,
    conjugate,
    parse_weight,
    reverse_holder_probe,
    sigma1,
    xclass_constants,
    xclass_fit,
)
from lpw.weights import _CHUNK_NODES, _FLAT_NODES, _PAIRWISE_NODES, _SEG_NODES, _axis_nodes, _profile


def power_mean_oracle(a, lo, hi, r):
    """Closed form for M_{[lo,hi),r}(|x|^a) = ((1/(hi-lo)) int |x|^(a r))^(1/r).

    Intervals may touch or straddle 0; non-integrable powers give inf.
    """
    e = a * r

    def piece(u, v):  # integral of x^e over [u, v], 0 <= u < v
        if e <= -1 and u == 0:
            return np.inf
        if e == -1:
            return np.log(v / u)
        return (v ** (e + 1) - u ** (e + 1)) / (e + 1)

    if lo < 0 < hi:
        total = piece(0, -lo) + piece(0, hi)
    elif hi <= 0:
        total = piece(-hi, -lo)
    else:
        total = piece(lo, hi)
    return (total / (hi - lo)) ** (1.0 / r)


class SquaredDyadic(WeightSpec):
    """2^(k^2): super-geometric level growth, for divergence fixtures."""

    separable = False

    def split(self):
        return None

    def eval(self, r, k=0):
        return np.full_like(np.asarray(r, dtype=float), 2.0 ** (k * k))

    def key(self):
        return "test:squared-dyadic"


class TestGrammar:
    @pytest.mark.parametrize(
        "text,cls",
        [
            ("pow:0.5", Pow),
            ("const:2", Const),
            ("dyadic:-1.5", Dyadic),
            ("shiftpow:0.3,1", ShiftPow),
            ("prod:[pow:0.3,dyadic:1]", Prod),
            ("prod:[prod:[pow:1,const:2],shiftpow:-0.2,0.5]", Prod),
        ],
    )
    def test_parse(self, text, cls):
        assert isinstance(parse_weight(text), cls)

    @pytest.mark.parametrize("text", ["pow", "foo:1", "const:-3", "prod:pow:1", "shiftpow:1"])
    def test_parse_errors(self, text):
        with pytest.raises(WeightError):
            parse_weight(text)

    def test_eval_matches_formula(self):
        r = np.array([0.5, 1.0, 2.0])
        w = parse_weight("prod:[pow:0.5,dyadic:2,shiftpow:-1,1]")
        expect = r**0.5 * 2.0 ** (3 * 2) / (1 + r)
        np.testing.assert_allclose(w.eval(r, k=3), expect, rtol=1e-14)

    def test_separable_split(self):
        s, g = parse_weight("prod:[pow:0.5,dyadic:2]").split()
        assert s == 2.0
        np.testing.assert_allclose(g(np.array([4.0])), [2.0])

    def test_power_and_inverse(self):
        w = Pow(0.5)
        r = np.array([0.25, 4.0])
        np.testing.assert_allclose(w.inv().eval(r), r**-0.5)
        np.testing.assert_allclose(w.power(3).eval(r), r**1.5)

    def test_grid_positivity_guard(self):
        spec = GridSpec(1, 1.0, 16, offset=False)
        with pytest.raises(WeightError):
            Pow(-0.5).on_grid(spec)


class TestQuadratureEngine:
    def test_means_match_closed_form(self):
        R = 8.0
        nodes = FamilyNodes(R, 1, CubeFamily(-4, 9))
        meta = nodes.meta()
        for a in (-0.5, 0.3, 1.0):
            for r in (1.0, 2.0):
                means = nodes.means(Pow(a), r)
                for i in (0, 1, len(meta) // 2, len(meta) - 1):
                    v, (m,), translated = meta[i]
                    side = 2.0**-v
                    shift = side / 2 if translated else 0.0
                    lo = max(m * side, -R) + shift
                    hi = min((m + 1) * side, R) + shift
                    if hi <= R:
                        want = power_mean_oracle(a, lo, hi, r)
                    else:
                        i1 = power_mean_oracle(a, lo, R, r) ** r * (R - lo)
                        i2 = power_mean_oracle(a, -R, hi - 2 * R, r) ** r * (hi - R)
                        want = ((i1 + i2) / (hi - lo)) ** (1.0 / r)
                    if not np.isfinite(want):
                        continue  # divergent integrals are exercised separately
                    assert means[i] == pytest.approx(want, rel=2e-3), (a, r, meta[i])

    def test_origin_cube_graded_accuracy(self):
        # integrable singular means on [0,1): x^(-1/2) converges fast (closed
        # form 2), the nearly-critical x^(-0.9) approaches its closed form 10
        # from below as the family core deepens
        shallow = FamilyNodes(8.0, 1, CubeFamily(0, 4))
        deep = FamilyNodes(8.0, 1, CubeFamily(0, 9))
        i_s = shallow.meta().index((0, (0,), False))
        i_d = deep.meta().index((0, (0,), False))
        assert deep.means(Pow(-0.5), 1.0)[i_d] == pytest.approx(2.0, rel=1e-3)
        a_s = shallow.means(Pow(-0.9), 1.0)[i_s]
        a_d = deep.means(Pow(-0.9), 1.0)[i_d]
        assert a_s < a_d < 10.0
        assert a_d == pytest.approx(10.0, rel=0.2)

    def test_mean_infinity_is_max(self):
        # the inf-mean is the node maximum, a lower bound for the sup 1
        nodes = FamilyNodes(2.0, 1, CubeFamily(0, 2))
        meta = nodes.meta()
        idx = meta.index((0, (0,), False))
        got = nodes.means(Pow(1.0), np.inf)[idx]
        assert 0.9 < got <= 1.0

    def test_2d_means(self):
        nodes = FamilyNodes(2.0, 2, CubeFamily(0, 2))
        meta = nodes.meta()
        idx = meta.index((0, (0, 0), False))
        # mean of |x| over the unit square: (sqrt(2) + asinh(1)) / 3
        want = (np.sqrt(2) + np.arcsinh(1)) / 3
        assert nodes.means(Pow(1.0), 1.0)[idx] == pytest.approx(want, rel=1e-3)


def canonical_cubes(nodes):
    """Each cube of former_meta(nodes) as (axes, special): its clipped and
    translated interval per axis, each folded to lo >= -hi (with -0.0 made
    0.0) and, in 2D, sorted, unless the cube crosses the seam at +R; special
    marks a cube whose every axis reaches the origin or that crosses the
    seam."""
    R, out = nodes.R, []
    for v, m, translated in former_meta(nodes):
        side = 2.0**-v
        shift = side / 2 if translated else 0.0
        axes = [(max(mi * side, -R) + shift, min((mi + 1) * side, R) + shift) for mi in m]
        seam = any(b > R for _, b in axes)
        special = all(a <= 0 <= b for a, b in axes) or seam
        if not seam:
            axes = sorted((-b + 0.0, -a + 0.0) if -b > a else (a + 0.0, b + 0.0) for a, b in axes)
        out.append((tuple(axes), special))
    return out


_CUBE_ROWS = {}


def cube_rows(nodes):
    """[(cube indices, radius, weights)] covering every cube of the family
    once, each cube with its own nodes in canonical orientation: the flat
    mesh of _FLAT_NODES midpoints per axis for regular cubes, stacked into one
    group, and _axis_nodes' graded mesh, wrapped across the seam, for each
    special cube."""
    key = (nodes.R, nodes.n, nodes.family)
    if key in _CUBE_ROWS:
        return _CUBE_ROWS[key]
    cubes = canonical_cubes(nodes)
    R, n, K = nodes.R, nodes.n, _FLAT_NODES
    regular = [i for i, (_, special) in enumerate(cubes) if not special]
    lo = np.array([[a for a, _ in cubes[i][0]] for i in regular]).reshape(-1, n)
    hi = np.array([[b for _, b in cubes[i][0]] for i in regular]).reshape(-1, n)
    X = lo[:, :, None] + (np.arange(K) + 0.5) * ((hi - lo) / K)[:, :, None]
    radius = np.abs(X[:, 0]) if n == 1 else np.hypot(X[:, 0, :, None], X[:, 1, None, :]).reshape(-1, K * K)
    rows = [(np.array(regular, dtype=int), radius, np.full(K**n, 1.0 / K**n))]
    for i, (axes, special) in enumerate(cubes):
        if not special:
            continue
        meshes = []
        for a, b in axes:
            pieces = [(a, b)] if b <= R else [(a, R), (-R, b - 2 * R)]
            parts = [_axis_nodes(plo, phi, nodes.core_eff, _SEG_NODES, _FLAT_NODES) for plo, phi in pieces]
            meshes.append((np.concatenate([x for x, _ in parts]), np.concatenate([y for _, y in parts]) / (b - a)))
        if n == 1:
            (x, wx), = meshes
            rad, wts = np.abs(x), wx
        else:
            (x, wx), (y, wy) = meshes
            rad, wts = np.hypot(x[:, None], y[None, :]).ravel(), (wx[:, None] * wy[None, :]).ravel()
        rows.append((np.array([i]), rad[None, :], wts))
    _CUBE_ROWS[key] = rows
    return rows


def per_cube_stat(nodes, w, r, k):
    """The statistic cube by cube, over each cube's own nodes (cube_rows): a
    row sum per cube (einsum, or the pairwise sum on rows longer than
    _PAIRWISE_NODES) on the weight's own split or eval, not cached, not
    shared between statistics and not shared between the cubes of an orbit;
    r = -inf is the node minimum."""
    if w.separable:
        s, f = w.split()
    else:
        s, f = 0.0, lambda rad: w.eval(rad, k)
    out = np.empty(nodes.n_cubes)
    for idx, radius, wts in cube_rows(nodes):
        vals = f(radius)
        if r == np.inf:
            out[idx] = vals.max(axis=1)
        elif r == -np.inf:
            out[idx] = vals.min(axis=1)
        elif wts.size > _PAIRWISE_NODES:
            out[idx] = (vals**r * wts).sum(axis=1) ** (1.0 / r)
        else:
            out[idx] = np.einsum("ij,j->i", vals**r, wts) ** (1.0 / r)
    return (2.0 ** (k * s)) * out if s else out


def gemv_stat(nodes, w, r, k):
    """The formula before the einsum: one BLAS matrix-vector product per
    group of cube_rows."""
    s, f = w.split() if w.separable else (0.0, lambda rad: w.eval(rad, k))
    out = np.empty(nodes.n_cubes)
    for idx, radius, wts in cube_rows(nodes):
        out[idx] = (f(radius) ** r @ wts) ** (1.0 / r)
    return (2.0 ** (k * s)) * out if s else out


def former_meta(nodes):
    """The (v, m, translated) tuples FamilyNodes built per cube before it held
    integer positions: per level and shift, regular cubes first, then those
    touching the origin or the seam, each in lattice order."""
    out = []
    for v in nodes.family.levels():
        for shift in (0.0, 0.5) if nodes.family.translates else (0.0,):
            ms, lo, hi = nodes._intervals(v, shift)
            near = ((lo <= 0) & (hi >= 0), hi > nodes.R)
            if nodes.n == 1:
                special = near[0] | near[1]
                cubes = [(int(m),) for m in ms]
            else:
                special = (np.outer(near[0], near[0]) | near[1][:, None] | near[1][None, :]).ravel()
                cubes = [(int(m1), int(m2)) for m1 in ms for m2 in ms]
            for group in (~special, special):
                out.extend((v, m, shift > 0) for m, keep in zip(cubes, group) if keep)
    return out


@pytest.fixture(scope="module", params=[(8.0, 1, (-4, 9)), (2.0, 2, (-1, 4))], ids=["1d", "2d"])
def chunked_nodes(request):
    R, n, (v_min, v_max) = request.param
    nodes = FamilyNodes(R, n, CubeFamily(v_min, v_max))
    rows, K = max((b.radius.shape for b in nodes.batches), key=lambda s: s[0] * s[1])
    assert rows > _CHUNK_NODES // K  # the largest batch spans several chunks
    return nodes


_CHUNK_WEIGHTS = [
    (Pow(0.3), 0),
    (parse_weight("prod:[dyadic:1,pow:0.3]"), 2),
    (ShiftPow(-0.3, 2.0).inv(), -1),
    (Frozen(parse_weight("prod:[dyadic:0.5,const:2]"), 3), 1),
    (AltPow(0.4), 1),
]
_CHUNK_IDS = ["pow", "dyadic-prod", "shiftpow-inv", "frozen", "altpow"]
_REQUESTS = [(0.5, False), (1.0, False), (2.0, True), (3.0, False), (3.0, True), (np.inf, True), (-np.inf, False)]


def all_stats(nodes, k=0):
    return [x for w, kw in _CHUNK_WEIGHTS for x in nodes.stats(w, _REQUESTS, kw + k)]


class TestChunkedReduction:
    @pytest.mark.parametrize("w,k", _CHUNK_WEIGHTS, ids=_CHUNK_IDS)
    def test_equals_former_formula(self, chunked_nodes, w, k):
        for r in (0.5, 1.0, 2.0, 3.0, np.inf):
            assert np.array_equal(chunked_nodes.means(w, r, k), per_cube_stat(chunked_nodes, w, r, k)), r
        assert np.array_equal(chunked_nodes.stats(w, [(-np.inf, False)], k)[0], per_cube_stat(chunked_nodes, w, -np.inf, k))

    @pytest.mark.parametrize("w,k", _CHUNK_WEIGHTS, ids=_CHUNK_IDS)
    def test_fused_statistics_equal_separate_ones(self, chunked_nodes, w, k):
        got = FamilyNodes(chunked_nodes.R, chunked_nodes.n, chunked_nodes.family).stats(w, _REQUESTS, k)
        for (r, inverse), out in zip(_REQUESTS, got):
            assert np.array_equal(out, per_cube_stat(chunked_nodes, w.inv() if inverse else w, r, k)), (r, inverse)

    @pytest.mark.parametrize("w,k", _CHUNK_WEIGHTS, ids=_CHUNK_IDS)
    def test_close_to_gemv_formula(self, chunked_nodes, w, k):
        for r in (0.5, 1.0, 2.0, 3.0):
            np.testing.assert_allclose(chunked_nodes.means(w, r, k), gemv_stat(chunked_nodes, w, r, k), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family", [(8.0, 1, CubeFamily(-3, 5)), (2.0, 2, CubeFamily(-1, 2))], ids=["1d", "2d"])
    def test_independent_of_chunk_size(self, monkeypatch, family):
        import lpw.weights as weights

        want = all_stats(FamilyNodes(*family))
        K = FamilyNodes(*family).batches[0].wts.size
        for chunk in (1, 7 * K):  # one row, seven rows of a regular batch
            monkeypatch.setattr(weights, "_CHUNK_NODES", chunk)
            got = all_stats(FamilyNodes(*family))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), chunk

    def test_long_rows_keep_a_constant_exact(self):
        # the 2D origin cubes hold up to 57,600 nodes; a sequential row sum
        # drifts 3e-14 from the constant there
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 4))
        long_rows = np.zeros(nodes.n_cubes, dtype=bool)
        for idx, _, wts in cube_rows(nodes):
            long_rows[idx] = wts.size > _PAIRWISE_NODES
        assert long_rows.sum() > 10
        c = 2.0**2.5
        for r in (0.5, 1.0, 2.0, 3.0):
            np.testing.assert_allclose(nodes.means(Const(c), r)[long_rows], c, rtol=1e-15, atol=0)

    def test_one_reduction_per_radial_profile(self, monkeypatch):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce", lambda self, f, reqs: calls.append(reqs) or reduce(self, f, reqs))
        unit = nodes.means(parse_weight("dyadic:0.5"), 2.0, 3)
        assert np.array_equal(nodes.means(parse_weight("const:1"), 2.0), unit / 2.0**1.5)
        assert len(calls) == 1
        nodes.means(Pow(0.3), 2.0)
        nodes.means(parse_weight("prod:[dyadic:1,pow:0.3]"), 2.0, 2)
        assert len(calls) == 2
        # c ** e is not exactly a constant, so a power of const:2 reduces apart
        nodes.means(Const(2.0).power(0.5), 2.0)
        assert len(calls) == 3

    def test_one_pass_per_profile_for_all_statistics(self, monkeypatch):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce", lambda self, f, reqs: calls.append(reqs) or reduce(self, f, reqs))
        evals = []
        w = Pow(0.3)
        monkeypatch.setattr(Pow, "split", lambda self: (0.0, lambda r: evals.append(r.shape) or r**self.a))
        wanted = [(2.0, False), (3.0, False), (3.0, True)]
        got = nodes.stats(w, wanted)
        assert calls == [wanted]
        assert sum(rows for rows, _ in evals) == len({axes for axes, _ in canonical_cubes(nodes)})  # g once per orbit
        # a level-scaled weight with the same profile and cached requests: no pass
        again = nodes.stats(parse_weight("prod:[dyadic:1,pow:0.3]"), wanted[::-1], 2)
        assert len(calls) == 1
        assert np.array_equal(again[0], got[2] * 2.0**-2) and np.array_equal(again[2], got[0] * 2.0**2)
        # only the missing request is reduced
        nodes.stats(w, [(2.0, True), (3.0, True)])
        assert calls[1:] == [[(2.0, True)]]

    def test_unit_profile_skips_evaluation(self, monkeypatch):
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 2))
        monkeypatch.setattr(Dyadic, "split", lambda self: (self.s, lambda r: pytest.fail("unit profile evaluated")))
        got = nodes.stats(Dyadic(0.5), [(2.0, False), (3.0, True), (np.inf, False), (-np.inf, True)], 2)
        ones = np.ones(nodes.n_cubes)
        unit = np.empty(nodes.n_cubes)
        for idx, _, wts in cube_rows(nodes):
            unit[idx] = np.einsum("ij,j->i", np.ones((1, wts.size)), wts)[0]
        want = [unit ** (1.0 / r) for r in (2.0, 3.0)]
        assert np.array_equal(got[0], 2.0 ** (2 * 0.5) * want[0])
        assert np.array_equal(got[1], 2.0 ** (2 * -0.5) * want[1])
        assert np.array_equal(got[2], 2.0 ** (2 * 0.5) * ones)
        assert np.array_equal(got[3], 2.0 ** (2 * -0.5) * ones)

    def test_rejects_nonpositive_exponent(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 3))
        with pytest.raises(WeightError):
            nodes.stats(Pow(0.3), [(2.0, False), (0.0, True)])
        with pytest.raises(WeightError):
            nodes.means(Pow(0.3), -np.inf)

    def test_close_weights_keep_their_own_entries(self):
        # key() prints floats to 6 digits, so these pairs share a key
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 3))
        for w, v in ((Pow(0.3), Pow(0.3000001)), (AltPow(0.3), AltPow(0.3000001))):
            assert w.key() == v.key()
            nodes.means(w, 2.0, 1)
            assert np.array_equal(nodes.means(v, 2.0, 1), per_cube_stat(nodes, v, 2.0, 1))

    @pytest.mark.parametrize(
        "R,n,family",
        [(8.0, 1, CubeFamily(-4, 9)), (8.0, 1, CubeFamily(-2, 5, translates=False)),
         (2.0, 2, CubeFamily(-1, 4)), (2.0, 2, CubeFamily(-1, 3, translates=False)),
         (2.0, 2, CubeFamily(-1, 4, max_per_level=8))],
        ids=["1d", "1d-plain", "2d", "2d-plain", "2d-capped"],
    )
    def test_meta_equals_former_tuples(self, R, n, family):
        nodes = FamilyNodes(R, n, family)
        meta = nodes.meta()
        assert meta == former_meta(nodes)
        assert len(meta) == nodes.n_cubes
        assert all(type(v) is int and all(type(x) is int for x in m) and type(t) is bool for v, m, t in meta)

    @pytest.mark.parametrize(
        "R,n,family",
        [(8.0, 1, CubeFamily(-4, 9)), (8.0, 1, CubeFamily(-2, 5, translates=False)),
         (8.0, 1, CubeFamily(-4, 9, max_per_level=8)),
         (2.0, 2, CubeFamily(-1, 4)), (2.0, 2, CubeFamily(-1, 3, translates=False)),
         (2.0, 2, CubeFamily(-1, 4, max_per_level=8))],
        ids=["1d", "1d-plain", "1d-capped", "2d", "2d-plain", "2d-capped"],
    )
    def test_cube_lookup_equals_meta(self, R, n, family):
        nodes = FamilyNodes(R, n, family)
        meta = nodes.meta()
        cubes = [nodes.cube(i) for i in range(nodes.n_cubes)]
        assert cubes == meta
        assert all(type(v) is int and all(type(x) is int for x in m) and type(t) is bool for v, m, t in cubes)
        for i in (-1, nodes.n_cubes):
            with pytest.raises(IndexError):
                nodes.cube(i)


_ORBIT_FAMILIES = [(8.0, 1, CubeFamily(-4, 9)), (8.0, 1, CubeFamily(-4, 9, max_per_level=8)),
                   (2.0, 2, CubeFamily(-1, 4)), (2.0, 2, CubeFamily(-1, 4, max_per_level=8))]
_ORBIT_IDS = ["1d", "1d-capped", "2d", "2d-capped"]


class TestOrbits:
    """Cubes that are images of each other under coordinate sign flips and,
    in 2D, the axis swap share one representative's nodes."""

    @pytest.mark.parametrize("family", _ORBIT_FAMILIES, ids=_ORBIT_IDS)
    def test_equals_per_cube_formula(self, family):
        nodes = FamilyNodes(*family)
        for w, k in _CHUNK_WEIGHTS:
            got = nodes.stats(w, _REQUESTS, k)
            for (r, inverse), out in zip(_REQUESTS, got):
                assert np.array_equal(out, per_cube_stat(nodes, w.inv() if inverse else w, r, k)), (w, r, inverse)

    @pytest.mark.parametrize("family", _ORBIT_FAMILIES, ids=_ORBIT_IDS)
    def test_profile_evaluated_once_per_orbit(self, monkeypatch, family):
        nodes = FamilyNodes(*family)
        cubes = canonical_cubes(nodes)
        orbits = {axes for axes, _ in cubes}
        assert len(orbits) < nodes.n_cubes
        # cubes share a representative exactly when their canonical intervals agree
        first = {}
        for i, (axes, _) in enumerate(cubes):
            first.setdefault(axes, nodes.orbit[i])
            assert nodes.orbit[i] == first[axes], (i, axes)
        assert len(set(first.values())) == len(orbits)
        seen = []
        monkeypatch.setattr(Pow, "split", lambda self: (0.0, lambda r: seen.append(r.shape) or r**self.a))
        nodes.stats(Pow(0.3), [(2.0, False), (3.0, True), (np.inf, False)])
        assert sum(rows for rows, _ in seen) == len(orbits)
        assert sum(rows * K for rows, K in seen) == sum(b.radius.size for b in nodes.batches)

    def test_mirror_images_have_equal_means(self):
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 4))
        index = {cube: i for i, cube in enumerate(nodes.meta())}
        v, (m1, m2) = 3, (5, -3)  # a regular cube and its images under the flips and the swap
        images = [(m1, m2), (-m1 - 1, m2), (m1, -m2 - 1), (-m1 - 1, -m2 - 1), (m2, m1), (-m2 - 1, m1)]
        for w, k in _CHUNK_WEIGHTS:
            for r, inverse in _REQUESTS:
                out = nodes.stats(w, [(r, inverse)], k)[0]
                got = {float(out[index[(v, m, False)]]) for m in images}
                assert len(got) == 1, (w, r, inverse, got)
        # and in 1D, a translated cube and its mirror image
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 9))
        index = {cube: i for i, cube in enumerate(nodes.meta())}
        i, j = index[(4, (7,), True)], index[(4, (-9,), True)]  # [7.5, 8.5) and [-8.5, -7.5) / 16
        for r in (0.5, 2.0, np.inf):
            out = nodes.means(ShiftPow(-0.3, 2.0), r)
            assert out[i] == out[j]

    def test_negative_zero_shares_the_orbit(self):
        # [-s, 0) folds to [-0.0, s), which must key as [0, s)
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5, translates=False))
        index = {cube: i for i, cube in enumerate(nodes.meta())}
        for v in nodes.family.levels():
            assert nodes.orbit[index[(v, (-1,), False)]] == nodes.orbit[index[(v, (0,), False)]]
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 3, translates=False))
        index = {cube: i for i, cube in enumerate(nodes.meta())}
        for v in nodes.family.levels():
            assert len({nodes.orbit[index[(v, m, False)]] for m in ((-1, -1), (-1, 0), (0, -1), (0, 0))}) == 1

    @pytest.mark.parametrize("family", _ORBIT_FAMILIES, ids=_ORBIT_IDS)
    def test_seam_cubes_are_singletons(self, family):
        nodes = FamilyNodes(*family)
        counts = np.bincount(nodes.orbit)
        seam = [i for i, (axes, _) in enumerate(canonical_cubes(nodes)) if any(b > nodes.R for _, b in axes)]
        assert seam
        assert all(counts[nodes.orbit[i]] == 1 for i in seam)

    def test_verify_2d_family_node_bound(self):
        # the family of perfbench/configs/verify_2d.json: 174,760 cubes,
        # 45.9M nodes when every cube holds its own
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 6))
        assert nodes.n_cubes == 174_760
        assert sum(b.radius.size for b in nodes.batches) <= 7_000_000


_EXPONENT = st.one_of(st.just(0.0), st.floats(-0.9, 2.0))
_PRIMITIVE = st.one_of(
    _EXPONENT.map(lambda a: f"pow:{a!r}"),
    st.one_of(st.just(1.0), st.floats(0.1, 4.0)).map(lambda c: f"const:{c!r}"),
    st.floats(-2.0, 2.0).map(lambda s: f"dyadic:{s!r}"),
    st.tuples(_EXPONENT, st.floats(0.1, 4.0)).map(lambda ac: f"shiftpow:{ac[0]!r},{ac[1]!r}"),
)
_CONFIG_WEIGHT = st.recursive(
    _PRIMITIVE,
    lambda inner: st.lists(inner, min_size=1, max_size=3).map(lambda ps: "prod:[" + ",".join(ps) + "]"),
    max_leaves=6,
)
_RADII = np.concatenate([np.geomspace(1e-9, 16.0, 181), [0.5, 1.0, 2.0, 3.0]])


class TestRadialProfile:
    @given(
        _CONFIG_WEIGHT,
        st.sampled_from(["plain", "inv", "power", "frozen"]),
        st.floats(0.2, 3.0),
        st.integers(-4, 4),
    )
    # a*(b*c) and (a*b)*c round apart on these radii, and so do the array
    # power 2.5**2.5 and its scalar value
    @example("prod:[pow:0.3,prod:[pow:0.7,shiftpow:0.4,1]]", "plain", 1.0, 0)
    @example("prod:[dyadic:1,const:2.5]", "power", 2.5, 0)
    @settings(max_examples=200, deadline=None)
    def test_profile_is_bit_identical(self, text, derive, e, j):
        w = parse_weight(text)
        w = {"plain": w, "inv": w.inv(), "power": w.power(e), "frozen": w.frozen(j)}[derive]
        canon = _profile(w)
        s, g = canon.split()
        assert s == 0.0
        with np.errstate(all="ignore"):
            assert np.array_equal(g(_RADII), w.split()[1](_RADII), equal_nan=True)


class TestMuckenhoupt:
    def test_constant_weight(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        assert ap_constant(Const(5.0), 2.0, nodes) == pytest.approx(1.0, abs=1e-12)
        assert a1_constant(Const(5.0), nodes) == pytest.approx(1.0, abs=1e-12)

    def test_ap_floor(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        for w in (Pow(0.4), ShiftPow(-0.5, 1.0), Prod((Pow(0.2), Const(3.0)))):
            assert ap_constant(w, 2.0, nodes) >= 1.0 - 1e-12

    def test_sqrt_weight_in_class(self):
        # -1 < 1/2 < 1 = n(p-1): the estimate stays put as the family refines
        c1 = ap_constant(Pow(0.5), 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 7)))
        c2 = ap_constant(Pow(0.5), 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 9)))
        assert c2 <= c1 * 1.05

    def test_square_weight_outside_class(self):
        c1 = ap_constant(Pow(2.0), 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 7)))
        c2 = ap_constant(Pow(2.0), 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 17)))
        assert c2 > 10 * c1

    def test_rejects_p_at_most_one(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 4))
        with pytest.raises(WeightError):
            ap_constant(Pow(0.5), 1.0, nodes)

    def test_monotone_in_p(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        for w in (Pow(0.4), ShiftPow(0.6, 1.0)):
            cp = ap_constant(w, 1.5, nodes)
            cq = ap_constant(w, 3.0, nodes)
            assert cq <= cp * (1 + 1e-12)

    def test_power_rule(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        base = ap_constant(Pow(0.6), 2.0, nodes)
        for eps in (0.25, 0.5, 1.0):
            small = ap_constant(Pow(0.6 * eps), 2.0, nodes)
            assert small <= base**eps * (1 + 1e-12)

    def test_a1_inverse_sqrt_bounded(self):
        # |x|^(-1/2) is in the class: the estimate converges under deepening
        c1 = a1_constant(Pow(-0.5), FamilyNodes(8.0, 1, CubeFamily(-4, 9)))
        c2 = a1_constant(Pow(-0.5), FamilyNodes(8.0, 1, CubeFamily(-4, 13)))
        assert abs(c2 / c1 - 1) < 0.05

    def test_a1_sqrt_diverges_at_oracle_rate(self):
        # M_Q(x^(1/2)) / min = (2/3) l^(1/2) (2 K0 / core)^(1/2): four extra
        # levels shrink the core 16x, so the ratio grows exactly 4x
        c1 = a1_constant(Pow(0.5), FamilyNodes(8.0, 1, CubeFamily(-4, 9)))
        c2 = a1_constant(Pow(0.5), FamilyNodes(8.0, 1, CubeFamily(-4, 13)))
        assert c2 / c1 == pytest.approx(4.0, rel=1e-6)
        assert c2 / c1 > 2.0


class TestReverseHoelder:
    def test_constant_all_pass(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        probe = reverse_holder_probe(Const(1.0), 2.0, nodes)
        assert probe.best_eps == max(probe.ratios)
        assert all(r == pytest.approx(1.0, abs=1e-12) for r in probe.ratios.values())

    def test_small_power_passes_somewhere(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 8))
        probe = reverse_holder_probe(Pow(0.3), 2.0, nodes)
        assert probe.best_eps is not None and probe.best_eps > 0

    def test_larger_power_passes_less(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 8))
        lo = reverse_holder_probe(Pow(0.3), 2.0, nodes)
        hi = reverse_holder_probe(Pow(0.9), 2.0, nodes)
        assert hi.best_eps < lo.best_eps
        # oracle: on origin cubes the ratio tends to (1+a) / (1+a(1+e))^(1/(1+e))
        a, e = 0.9, hi.best_eps
        want = (1 + a) / (1 + a * (1 + e)) ** (1 / (1 + e))
        assert hi.ratios[e] == pytest.approx(want, rel=0.02)


class TestXClass:
    def test_pure_dyadic_identity(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Dyadic(1.5), -3, 4, 2.0)
        rep = xclass_constants(ts, (1.5, 1.5), (2.0, 2.0), nodes)
        assert rep.C1 == pytest.approx(1.0, abs=1e-12)
        assert rep.C2 == pytest.approx(1.0, abs=1e-12)

    def test_dyadic_times_ap_weight(self):
        # 2^(k s) w with w^p in the class: finite constants at alpha = (s, s)
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 6))
        r, p = 4.0 / 3.0, 2.0
        s1 = r * conjugate(p / r)
        ts = WeightSequence(Prod((Dyadic(0.5), Pow(0.1))), -3, 4, p)
        rep = xclass_constants(ts, (0.5, 0.5), (s1, p), nodes)
        assert np.isfinite(rep.C1) and np.isfinite(rep.C2)
        assert rep.C1 < 50 and rep.C2 < 50

    def test_witnesses_reproduce_sups(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        ts = WeightSequence(Prod((Dyadic(1.0), Pow(0.2))), -2, 3, 2.0)
        rep = xclass_constants(ts, (0.7, 1.2), (3.0, 2.0), nodes)
        meta = nodes.meta()
        k, j, cube = rep.witness1
        i = meta.index(cube)
        v1 = nodes.means(ts.spec, 2.0, k)[i] * nodes.means(ts.spec.inv(), 3.0, j)[i]
        assert v1 * 2.0 ** (-0.7 * (k - j)) == pytest.approx(rep.C1, rel=1e-12)
        k2, j2, cube2 = rep.witness2
        i2 = meta.index(cube2)
        v2 = nodes.means(ts.spec, 2.0, j2)[i2] / nodes.means(ts.spec, 2.0, k2)[i2]
        assert v2 * 2.0 ** (-1.2 * (j2 - k2)) == pytest.approx(rep.C2, rel=1e-12)

    def test_sigma_infinity_component(self):
        # sup-type second component: pure dyadic scaling still cancels exactly
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Dyadic(1.0), -2, 3, 2.0)
        rep = xclass_constants(ts, (1.0, 1.0), (2.0, np.inf), nodes)
        assert rep.C1 == pytest.approx(1.0, abs=1e-12)
        assert rep.C2 == pytest.approx(1.0, abs=1e-12)

    def test_super_geometric_blows_up(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        narrow = WeightSequence(SquaredDyadic(), 0, 3, 2.0)
        wide = WeightSequence(SquaredDyadic(), 0, 7, 2.0)
        r1 = xclass_constants(narrow, (1.0, 1.0), (2.0, 2.0), nodes, skip_admissibility=True)
        r2 = xclass_constants(wide, (1.0, 1.0), (2.0, 2.0), nodes, skip_admissibility=True)
        assert r2.C1 * r2.C2 > 100 * r1.C1 * r1.C2

    def test_scale_invariance(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        a = WeightSequence(Prod((Dyadic(0.5), Pow(0.1))), -2, 3, 2.0)
        b = WeightSequence(Prod((Const(7.0), Dyadic(0.5), Pow(0.1))), -2, 3, 2.0)
        ra = xclass_constants(a, (0.5, 0.5), (3.0, 2.0), nodes)
        rb = xclass_constants(b, (0.5, 0.5), (3.0, 2.0), nodes)
        assert rb.C1 == pytest.approx(ra.C1, rel=1e-12)
        assert rb.C2 == pytest.approx(ra.C2, rel=1e-12)

    def test_inadmissible_rejected(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Pow(-0.6), -2, 3, 2.0)  # |x|^(-1.2) not integrable
        with pytest.raises(WeightError):
            xclass_constants(ts, (0.0, 0.0), (2.0, 2.0), nodes)


class TestXClassFit:
    def test_pure_dyadic_rate(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Dyadic(3.0), -3, 4, 2.0)
        fit = xclass_fit(ts, (2.0, 2.0), nodes)
        assert fit.alpha1 == pytest.approx(3.0, abs=fit.grid_step)
        assert fit.alpha2 == pytest.approx(3.0, abs=fit.grid_step)

    def test_constant_sequence(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Const(1.0), -3, 4, 2.0)
        fit = xclass_fit(ts, (2.0, 2.0), nodes)
        assert fit.alpha1 == pytest.approx(0.0, abs=fit.grid_step)
        assert fit.alpha2 == pytest.approx(0.0, abs=fit.grid_step)

    def test_modulated_dyadic(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        ts = WeightSequence(Prod((Dyadic(0.5), Pow(0.3))), -3, 4, 2.0)
        fit = xclass_fit(ts, (sigma1(2.0, 1.2), 2.0), nodes)
        assert fit.alpha1 <= fit.alpha2 + fit.grid_step
        assert abs(fit.alpha1 - 0.5) < 0.25
        assert abs(fit.alpha2 - 0.5) < 0.25


def level_ap_constants(ts, p, theta, nodes):
    """The A_{p/theta} constant of t_k^p at each level k of ts, through the
    level-frozen weight t_k."""
    return [ap_constant(ts.spec.frozen(k).power(p), p / theta, nodes) for k in ts.levels()]


class TestSameConstant:
    """Whether the Muckenhoupt constants of t_k^p agree across levels k."""

    def test_dyadic_factor_cancels(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        ts = WeightSequence(Prod((Dyadic(0.7), Pow(0.2))), -3, 4, 2.0)
        vals = level_ap_constants(ts, 2.0, 1.2, nodes)
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)

    def test_level_independent(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        vals = level_ap_constants(WeightSequence(Pow(0.3), -3, 4, 2.0), 2.0, 1.2, nodes)
        assert max(vals) <= 1.01 * min(vals)

    def test_alternating_exponent_fails(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        vals = level_ap_constants(WeightSequence(AltPow(0.3), -3, 4, 2.0), 2.0, 1.2, nodes)
        assert max(vals) > 1.01 * min(vals)


class TestProperties:
    @given(st.floats(-0.4, 0.8), st.floats(0.1, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_power_rule_property(self, a, eps):
        nodes = _property_nodes()
        base = ap_constant(Pow(a), 2.0, nodes)
        small = ap_constant(Pow(a * eps), 2.0, nodes)
        assert small <= base**eps * (1 + 1e-12)

    @given(st.floats(1.2, 3.0), st.floats(0.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_class_monotone_property(self, p, dp):
        nodes = _property_nodes()
        w = ShiftPow(0.6, 0.5)
        assert ap_constant(w, p + dp, nodes) <= ap_constant(w, p, nodes) * (1 + 1e-12)

    @given(st.floats(0.2, 3.0), st.floats(0.2, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_mean_power_monotone_property(self, r1, r2):
        nodes = _property_nodes()
        lo, hi = min(r1, r2), max(r1, r2)
        a = nodes.means(Pow(0.4), lo)
        b = nodes.means(Pow(0.4), hi)
        assert np.all(a <= b * (1 + 1e-12))


_PROPERTY_NODES = None


def _property_nodes():
    # one shared geometry for the hypothesis runs; building it per example
    # would dominate the test time
    global _PROPERTY_NODES
    if _PROPERTY_NODES is None:
        _PROPERTY_NODES = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
    return _PROPERTY_NODES


class TestAdmissibility:
    def test_integrable_passes(self):
        check_admissible(WeightSequence(Pow(-0.45), -2, 3, 2.0), 8.0, 1)
        check_admissible(WeightSequence(Prod((Dyadic(1.0), Pow(0.3))), -2, 3, 2.0), 8.0, 1)

    def test_divergent_rejected(self):
        with pytest.raises(WeightError):
            check_admissible(WeightSequence(Pow(-0.6), -2, 3, 2.0), 8.0, 1)

    def test_log_divergent_rejected(self):
        with pytest.raises(WeightError):
            check_admissible(WeightSequence(Pow(-0.5), -2, 3, 2.0), 8.0, 1)


def per_level_weigh(ws, fs):
    """{t_k |f_k|} sampled and multiplied one level at a time."""
    return np.stack([ws.spec.on_grid(fs.spec, k).values * np.abs(fs[k]) for k in ws.levels()])


@pytest.fixture(scope="module", params=[GridSpec(1, 8.0, 256), GridSpec(2, 2.0, 32)], ids=["1d", "2d"])
def signed_stack(request):
    spec = request.param
    values = np.random.default_rng(3).standard_normal((9, *spec.shape))
    values[0, :4] = 0.0
    return VectorSequence(spec, -3, values)


_LEVEL_FREE = [
    Frozen(parse_weight("prod:[dyadic:0.5,pow:0.3]"), 2),
    Frozen(AltPow(0.4), 1),
    Pow(0.3),
    Const(2.5),
    ShiftPow(-0.3, 2.0),
    Dyadic(0.0),
    parse_weight("prod:[pow:0.3,shiftpow:0.25,1,const:2]"),
    Pow(-0.2).inv(),
]
_LEVEL_FREE_IDS = ["frozen", "frozen-altpow", "pow", "const", "shiftpow", "dyadic0", "prod", "powof"]
_LEVEL_DEPENDENT = [
    Dyadic(0.5),
    parse_weight("prod:[dyadic:1,pow:0.3]"),
    Prod((Dyadic(0.5), Dyadic(-0.5))),
    Dyadic(0.5).inv(),
    AltPow(0.4),
    AltConst(2.0),
]
_LEVEL_DEPENDENT_IDS = ["dyadic", "dyadic-prod", "cancelling-prod", "dyadic-inv", "altpow", "altconst"]


class TestWeigh:
    """weigh forms t_k |f_k| with one broadcast multiply when t_k is the same
    on every level, and level by level otherwise; the entries are the same
    products either way."""

    def count_samples(self, monkeypatch):
        calls = []
        orig = WeightSequence.on_grid

        def counted(ws, gspec, k):
            calls.append(k)
            return orig(ws, gspec, k)

        monkeypatch.setattr(WeightSequence, "on_grid", counted)
        return calls

    @pytest.mark.parametrize("w", _LEVEL_FREE, ids=_LEVEL_FREE_IDS)
    def test_level_free_broadcast_equals_per_level(self, w, signed_stack, monkeypatch):
        assert w.level_free
        ws = WeightSequence(w, -2, 4, 2.0)
        calls = self.count_samples(monkeypatch)
        got = ws.weigh(signed_stack)
        assert calls == [-2]  # one sample serves every level
        assert got.k_min == -2 and got.values.shape == (7, *signed_stack.spec.shape)
        assert (got.values == per_level_weigh(ws, signed_stack)).all()

    @pytest.mark.parametrize("w", _LEVEL_DEPENDENT, ids=_LEVEL_DEPENDENT_IDS)
    def test_level_dependent_weights_sampled_per_level(self, w, signed_stack, monkeypatch):
        assert not w.level_free
        ws = WeightSequence(w, -2, 4, 2.0)
        calls = self.count_samples(monkeypatch)
        got = ws.weigh(signed_stack)
        assert calls == list(ws.levels())
        assert (got.values == per_level_weigh(ws, signed_stack)).all()

    @pytest.mark.parametrize("w", [_LEVEL_FREE[0], Pow(0.3), _LEVEL_DEPENDENT[1]], ids=["frozen", "pow", "dyadic-prod"])
    def test_nonneg_stack_taken_as_it_is(self, w, signed_stack):
        ws = WeightSequence(w, -3, 5, 2.0)
        mags = VectorSequence(signed_stack.spec, -3, np.abs(signed_stack.values))
        before = mags.values.copy()
        got = ws.weigh(mags, nonneg=True)
        assert (got.values == ws.weigh(signed_stack).values).all()
        assert (mags.values == before).all() and got.values is not mags.values

    def test_signed_input_left_unchanged(self, signed_stack):
        before = signed_stack.values.copy()
        for w in (Pow(0.3), Dyadic(0.5)):
            WeightSequence(w, -3, 5, 2.0).weigh(signed_stack)
        assert (signed_stack.values == before).all()

    def test_levels_outside_the_stack_rejected(self, signed_stack):
        for k_min, k_max in ((-4, 2), (0, 6)):
            for w in (Pow(0.3), Dyadic(0.5)):
                with pytest.raises(GridError, match="leave the stack"):
                    WeightSequence(w, k_min, k_max, 2.0).weigh(signed_stack)
