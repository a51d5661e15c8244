import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpw.grid import CubeFamily, GridError, GridSpec, VectorSequence, mesh_weights
from lpw.suites import DEFAULT_WEIGHT_MATRIX
from lpw.weights import (
    AltConst,
    AltPow,
    Const,
    Dyadic,
    FamilyNodes,
    Frozen,
    Pow,
    PowOf,
    Prod,
    ShiftPow,
    WeightError,
    WeightSequence,
    WeightSpec,
    ap_constant,
    ap_witness,
    check_admissible,
    conjugate,
    domain_integral,
    parse_weight,
    sigma1,
    xclass_constants,
    xclass_fit,
)
from lpw.weights import _CHUNK_NODES, _CORE_REFINE, _FLAT_NODES, _PAIRWISE_NODES, _SEG_NODES, _Radius, _axis_nodes, _profile


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
        # separable is whether split() finds (s, g); one non-separable factor
        # or base makes the whole weight non-separable
        alt = AltPow(0.3)
        for w in (alt, AltConst(2.0), Prod((Pow(0.5), alt)), Prod((Dyadic(1.0), Prod((alt, Pow(0.2))))),
                  alt.power(2.0)):
            assert w.split() is None and not w.separable, w.key()
        for w in (Pow(0.5), Prod((Pow(0.5), Dyadic(2.0))), Pow(0.5).power(2.0), Dyadic(1.0).frozen(3)):
            assert w.separable, w.key()
        # a frozen weight t_j is level-free by definition: it splits with s = 0
        # and g = t_j, whether or not its base splits
        r = np.array([0.25, 1.0, 3.0])
        for w in (alt, Dyadic(1.0), Prod((Dyadic(0.5), Pow(0.3)))):
            s, g = w.frozen(3).split()
            assert s == 0 and (g(r) == w.eval(r, 3)).all(), w.key()
            assert (w.frozen(3).eval(r, -2) == w.eval(r, 3)).all(), w.key()

    def test_power_and_inverse(self):
        w = Pow(0.5)
        r = np.array([0.25, 4.0])
        np.testing.assert_allclose(w.power(-1.0).eval(r), r**-0.5)
        np.testing.assert_allclose(w.power(3).eval(r), r**1.5)

    def test_grid_positivity_guard(self):
        spec = GridSpec(1, 1.0, 16)
        with np.errstate(over="ignore"), pytest.raises(WeightError, match="not positive finite on the grid"):
            Pow(-2000).on_grid(spec)  # (h/2)^-2000 = 16^2000 overflows


def factorwise(w, r, k):
    """t_k(r) multiplied factor by factor, each primitive's 2^(k s_i) g_i(r)
    formed apart: an oracle independent of split()."""
    if isinstance(w, Prod):
        out = np.ones_like(r)
        for f in w.factors:
            out = out * factorwise(f, r, k)
        return out
    if isinstance(w, PowOf):
        return factorwise(w.base, r, k) ** w.e
    if isinstance(w, Frozen):
        return factorwise(w.base, r, w.j)
    return w.eval(r, k)


class TestOneRule:
    """eval is 2^(k s) g(r) wherever split() gives (s, g)."""

    def test_cancelling_rates_give_exactly_one(self):
        # factor by factor, 2^(0.5 k) 2^(-0.5 k) read 1.0000000000000002 on odd k
        r = np.array([0.1, 1.0, 7.5])
        for k in range(-3, 9):
            assert (Prod((Dyadic(0.5), Dyadic(-0.5))).eval(r, k) == 1.0).all(), k

    def test_level_leaving_double_precision_refused(self):
        # g = t_0 is checked once; a level checks only c min g and c max g:
        # 1e300 2^30 overflows at k = 1, and 1e-300 2^(-30 k) underflows to 0 at k = 3
        spec = GridSpec(1, 8.0, 64)
        for w, bad in ((Prod((Const(1e300), Dyadic(30.0))), 1), (Prod((Const(1e-300), Dyadic(-30.0))), 3)):
            ws = WeightSequence(w, 0, 4)
            assert all((ws.on_grid(spec, k).values > 0).all() for k in range(bad))
            with pytest.raises(WeightError, match=f"not positive finite on the grid at level {bad}"):
                ws.on_grid(spec, bad)

    @pytest.mark.parametrize("scale", [1, 2], ids=["N", "2N"])
    @pytest.mark.parametrize("config", ["fixtures/default.json", "perfbench/configs/verify_2d.json"])
    def test_shipped_weights_unchanged(self, config, scale):
        # the rule changes no value of these weights: each equals its
        # factor-by-factor product bit for bit on the grid and its doubling;
        # they are radial and evaluated pointwise, so each radius is taken once
        grid = json.loads((Path(__file__).resolve().parents[1] / config).read_text())["grid"]
        r = np.unique(GridSpec(grid["n"], grid["R"], grid["N"] * scale).radius())
        base = [parse_weight(text) for text in DEFAULT_WEIGHT_MATRIX.values()]
        base += [Const(c) * Pow(0.3) for c in (0.1, 7.0)]
        for w in base + [w.frozen(j) for w in base for j in range(-3, 4)]:
            s, g = w.split()
            for k in range(-3, 10):
                t = w.eval(r, k)
                assert (t == 2.0 ** (k * s) * g(r)).all() and (t == factorwise(w, r, k)).all(), (w.key(), k)


class TestQuadratureEngine:
    def test_means_match_closed_form(self):
        R = 8.0
        nodes = FamilyNodes(R, 1, CubeFamily(-4, 9))
        meta = family_cubes(nodes)
        for a in (-0.5, 0.3, 1.0):
            for r in (1.0, 2.0):
                means = nodes.means(Pow(a), r)[nodes.orbit]
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
        i_s = family_cubes(shallow).index((0, (0,), False))
        i_d = family_cubes(deep).index((0, (0,), False))
        assert deep.means(Pow(-0.5), 1.0)[deep.orbit[i_d]] == pytest.approx(2.0, rel=1e-3)
        a_s = shallow.means(Pow(-0.9), 1.0)[shallow.orbit[i_s]]
        a_d = deep.means(Pow(-0.9), 1.0)[deep.orbit[i_d]]
        assert a_s < a_d < 10.0
        assert a_d == pytest.approx(10.0, rel=0.2)

    def test_mean_infinity_is_max(self):
        # the inf-mean is the node maximum, a lower bound for the sup 1
        nodes = FamilyNodes(2.0, 1, CubeFamily(0, 2))
        meta = family_cubes(nodes)
        idx = meta.index((0, (0,), False))
        got = nodes.means(Pow(1.0), np.inf)[nodes.orbit[idx]]
        assert 0.9 < got <= 1.0

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("v_min", [-5, -6])
    def test_cube_wholly_past_the_seam(self, n, v_min):
        # below the coarsest level -log2(2R) = -4 the translate of the clipped
        # cube [0, 8) at R = 8 is [16, 24), wholly past +R: it is meshed as its
        # periodic image [0, 8), where it read the reversed piece (16, 8) and
        # a NaN mean
        nodes = FamilyNodes(8.0, n, CubeFamily(v_min, 3))
        means = nodes.means(Pow(0.3), 2.0)
        assert np.all(np.isfinite(means))
        assert np.all(nodes.means(Const(1.0), 2.0) == 1.0)
        meta = family_cubes(nodes)
        past, image = (meta.index((-5, (0,) * n, translated)) for translated in (True, False))
        assert means[nodes.orbit[past]] == means[nodes.orbit[image]]

    def test_2d_means(self):
        nodes = FamilyNodes(2.0, 2, CubeFamily(0, 2))
        meta = family_cubes(nodes)
        idx = meta.index((0, (0, 0), False))
        # mean of |x| over the unit square: (sqrt(2) + asinh(1)) / 3
        want = (np.sqrt(2) + np.arcsinh(1)) / 3
        assert nodes.means(Pow(1.0), 1.0)[nodes.orbit[idx]] == pytest.approx(want, rel=1e-3)


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


def axis_mesh(nodes, a, b):
    """A special cube's graded nodes and normalized weights on the axis
    interval [a, b), wrapped across the seam at +R."""
    R = nodes.R
    pieces = [(a, b)] if b <= R else [(a, R), (-R, b - 2 * R)]
    parts = [_axis_nodes(plo, phi, nodes.core_eff, _SEG_NODES, _FLAT_NODES) for plo, phi in pieces]
    return np.concatenate([x for x, _ in parts]), np.concatenate([y for _, y in parts]) / (b - a)


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
    n, K = nodes.n, _FLAT_NODES
    regular = [i for i, (_, special) in enumerate(cubes) if not special]
    lo = np.array([[a for a, _ in cubes[i][0]] for i in regular]).reshape(-1, n)
    hi = np.array([[b for _, b in cubes[i][0]] for i in regular]).reshape(-1, n)
    X = lo[:, :, None] + (np.arange(K) + 0.5) * ((hi - lo) / K)[:, :, None]
    radius = np.abs(X[:, 0]) if n == 1 else np.hypot(X[:, 0, :, None], X[:, 1, None, :]).reshape(-1, K * K)
    rows = [(np.array(regular, dtype=int), radius, np.full(K**n, 1.0 / K**n))]
    for i, (axes, special) in enumerate(cubes):
        if not special:
            continue
        meshes = [axis_mesh(nodes, a, b) for a, b in axes]
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
    shared between statistics and not shared between the cubes of an orbit."""
    if w.separable:
        s, f = w.split()
    else:
        s, f = 0.0, lambda rad: w.eval(rad, k)
    out = np.empty(nodes.n_cubes)
    for idx, radius, wts in cube_rows(nodes):
        vals = f(radius)
        if r == np.inf:
            out[idx] = vals.max(axis=1)
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


def family_cubes(nodes):
    """(v, m, translated) of every cube of nodes in family order."""
    return [nodes.cube(i) for i in range(nodes.n_cubes)]


def former_meta(nodes):
    """The (v, m, translated) tuples FamilyNodes built per cube before it held
    integer positions: per level and shift, regular cubes first, then those
    touching the origin or the seam, each in lattice order."""
    out = []
    for v in nodes.family.levels():
        for shift in (0.0, 0.5):
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
    (ShiftPow(-0.3, 2.0).power(-1.0), -1),
    (Frozen(parse_weight("prod:[dyadic:0.5,const:2]"), 3), 1),
    (AltPow(0.4), 1),
]
_CHUNK_IDS = ["pow", "dyadic-prod", "shiftpow-inv", "frozen", "altpow"]
_REQUESTS = [(0.5, False), (1.0, False), (2.0, True), (3.0, False), (3.0, True), (np.inf, True)]


def all_stats(nodes, k=0):
    return [x for w, kw in _CHUNK_WEIGHTS for x in nodes.stats([w], _REQUESTS, kw + k)[0]]


class TestChunkedReduction:
    @pytest.mark.parametrize("w,k", _CHUNK_WEIGHTS, ids=_CHUNK_IDS)
    def test_equals_former_formula(self, chunked_nodes, w, k):
        for r in (0.5, 1.0, 2.0, 3.0, np.inf):
            assert np.array_equal(chunked_nodes.means(w, r, k)[chunked_nodes.orbit], per_cube_stat(chunked_nodes, w, r, k)), r

    @pytest.mark.parametrize("w,k", _CHUNK_WEIGHTS, ids=_CHUNK_IDS)
    def test_fused_statistics_equal_separate_ones(self, chunked_nodes, w, k):
        fresh = FamilyNodes(chunked_nodes.R, chunked_nodes.n, chunked_nodes.family)
        (got,) = fresh.stats([w], _REQUESTS, k)
        for (r, inverse), out in zip(_REQUESTS, got):
            assert np.array_equal(out[fresh.orbit], per_cube_stat(chunked_nodes, w.power(-1.0) if inverse else w, r, k)), (r, inverse)

    @pytest.mark.parametrize("w,k", _CHUNK_WEIGHTS, ids=_CHUNK_IDS)
    def test_close_to_gemv_formula(self, chunked_nodes, w, k):
        for r in (0.5, 1.0, 2.0, 3.0):
            got = chunked_nodes.means(w, r, k)[chunked_nodes.orbit]
            np.testing.assert_allclose(got, gemv_stat(chunked_nodes, w, r, k), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family", [(8.0, 1, CubeFamily(-3, 5)), (2.0, 2, CubeFamily(-1, 2))], ids=["1d", "2d"])
    def test_independent_of_chunk_size(self, monkeypatch, family):
        import lpw.weights as weights

        want = all_stats(FamilyNodes(*family))
        K = FamilyNodes(*family).batches[0].radius.shape[1]
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
            np.testing.assert_allclose(nodes.means(Const(c), r)[nodes.orbit][long_rows], c, rtol=1e-15, atol=0)

    def test_one_reduction_per_radial_profile(self, monkeypatch):
        # each pass through _reduce is recorded as the requests of its jobs,
        # one job per radial profile (or per weight and level) it reduces
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce",
                            lambda self, jobs: calls.append([reqs for _, reqs in jobs]) or reduce(self, jobs))
        unit = nodes.means(parse_weight("dyadic:0.5"), 2.0, 3)
        assert np.array_equal(nodes.means(parse_weight("const:1"), 2.0), unit / 2.0**1.5)
        assert calls == [[[(2.0, False)]]]
        nodes.means(Pow(0.3), 2.0)
        nodes.means(parse_weight("prod:[dyadic:1,pow:0.3]"), 2.0, 2)
        assert len(calls) == 2
        # c ** e is not exactly a constant, so a power of const:2 reduces apart
        nodes.means(Const(2.0).power(0.5), 2.0)
        assert len(calls) == 3
        # a list of weights is one pass, with one job per profile not yet cached
        nodes.stats([Pow(0.5), parse_weight("prod:[dyadic:2,pow:0.5]"), Pow(0.3), Dyadic(1.0),
                     ShiftPow(0.4, 1.0)], [(2.0, False)])
        assert calls[3:] == [[[(2.0, False)], [(2.0, False)]]]
        nodes.stats([Pow(0.5), ShiftPow(0.4, 1.0), parse_weight("const:1")], [(2.0, False)])
        assert len(calls) == 4

    def test_one_pass_per_profile_for_all_statistics(self, monkeypatch):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce",
                            lambda self, jobs: calls.append([reqs for _, reqs in jobs]) or reduce(self, jobs))
        evals = []
        w = Pow(0.3)
        monkeypatch.setattr(Pow, "split", lambda self: (0.0, lambda r: evals.append(r.shape) or r**self.a))
        wanted = [(2.0, False), (3.0, False), (3.0, True)]
        (got,) = nodes.stats([w], wanted)
        assert calls == [[wanted]]
        assert sum(rows for rows, _ in evals) == len({axes for axes, _ in canonical_cubes(nodes)})  # g once per orbit
        # a level-scaled weight with the same profile and cached requests: no pass
        (again,) = nodes.stats([parse_weight("prod:[dyadic:1,pow:0.3]")], wanted[::-1], 2)
        assert len(calls) == 1
        assert np.array_equal(again[0], got[2] * 2.0**-2) and np.array_equal(again[2], got[0] * 2.0**2)
        # only the missing request is reduced
        nodes.stats([w], [(2.0, True), (3.0, True)])
        assert calls[1:] == [[[(2.0, True)]]]

    @pytest.mark.parametrize("k", [0, 2])
    def test_one_pass_serves_a_set_of_weights(self, chunked_nodes, monkeypatch, k):
        # every weight's statistics from one shared pass equal those from a
        # pass of its own, and the pass forms each row chunk's radius once
        weights = [w for w, _ in _CHUNK_WEIGHTS] + [Dyadic(0.5)]
        shared = FamilyNodes(chunked_nodes.R, chunked_nodes.n, chunked_nodes.family)
        formed = []
        getitem = _Radius.__getitem__
        monkeypatch.setattr(_Radius, "__getitem__", lambda self, rows: formed.append(rows) or getitem(self, rows))
        together = shared.stats(weights, _REQUESTS, k)
        chunks = sum(-(-b.radius.shape[0] // max(1, _CHUNK_NODES // b.radius.shape[1])) for b in shared.batches)
        assert len(formed) == chunks
        monkeypatch.undo()
        for w, got in zip(weights, together):
            (own,) = FamilyNodes(chunked_nodes.R, chunked_nodes.n, chunked_nodes.family).stats([w], _REQUESTS, k)
            assert all(np.array_equal(a, b) for a, b in zip(got, own)), w

    def test_unit_profile_skips_evaluation(self, monkeypatch):
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 2))
        monkeypatch.setattr(Dyadic, "split", lambda self: (self.s, lambda r: pytest.fail("unit profile evaluated")))
        (got,) = nodes.stats([Dyadic(0.5)], [(2.0, False), (3.0, True), (np.inf, False), (np.inf, True)], 2)
        got = [out[nodes.orbit] for out in got]
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
            nodes.stats([Pow(0.3)], [(2.0, False), (0.0, True)])
        with pytest.raises(WeightError):
            nodes.means(Pow(0.3), -np.inf)
        with pytest.raises(WeightError):
            nodes.stats([Pow(0.3)], [(-np.inf, False)])

    def test_close_weights_keep_their_own_entries(self):
        # key() prints floats to 6 digits, so these pairs share a key
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 3))
        for w, v in ((Pow(0.3), Pow(0.3000001)), (AltPow(0.3), AltPow(0.3000001))):
            assert w.key() == v.key()
            nodes.means(w, 2.0, 1)
            assert np.array_equal(nodes.means(v, 2.0, 1)[nodes.orbit], per_cube_stat(nodes, v, 2.0, 1))

    @pytest.mark.parametrize(
        "R,n,family",
        [(8.0, 1, CubeFamily(-4, 9)), (2.0, 2, CubeFamily(-1, 4)), (2.0, 2, CubeFamily(-1, 4, max_per_level=8))],
        ids=["1d", "2d", "2d-capped"],
    )
    def test_meta_equals_former_tuples(self, R, n, family):
        nodes = FamilyNodes(R, n, family)
        meta = family_cubes(nodes)
        assert meta == former_meta(nodes)
        assert len(meta) == nodes.n_cubes
        assert all(type(v) is int and all(type(x) is int for x in m) and type(t) is bool for v, m, t in meta)

    @pytest.mark.parametrize(
        "R,n,family",
        [(8.0, 1, CubeFamily(-4, 9)), (8.0, 1, CubeFamily(-4, 9, max_per_level=8)),
         (2.0, 2, CubeFamily(-1, 4)), (2.0, 2, CubeFamily(-1, 4, max_per_level=8))],
        ids=["1d", "1d-capped", "2d", "2d-capped"],
    )
    def test_cube_lookup_equals_meta(self, R, n, family):
        nodes = FamilyNodes(R, n, family)
        cubes = family_cubes(nodes)
        assert cubes == former_meta(nodes)
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
            (got,) = nodes.stats([w], _REQUESTS, k)
            for (r, inverse), out in zip(_REQUESTS, got):
                assert np.array_equal(out[nodes.orbit], per_cube_stat(nodes, w.power(-1.0) if inverse else w, r, k)), (w, r, inverse)

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
        nodes.stats([Pow(0.3)], [(2.0, False), (3.0, True), (np.inf, False)])
        assert sum(rows for rows, _ in seen) == len(orbits)
        assert sum(rows * K for rows, K in seen) == sum(b.radius.size for b in nodes.batches)

    def test_mirror_images_have_equal_means(self):
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 4))
        index = {cube: i for i, cube in enumerate(family_cubes(nodes))}
        v, (m1, m2) = 3, (5, -3)  # a regular cube and its images under the flips and the swap
        images = [(m1, m2), (-m1 - 1, m2), (m1, -m2 - 1), (-m1 - 1, -m2 - 1), (m2, m1), (-m2 - 1, m1)]
        for w, k in _CHUNK_WEIGHTS:
            for r, inverse in _REQUESTS:
                out = nodes.stats([w], [(r, inverse)], k)[0][0]
                got = {float(out[nodes.orbit[index[(v, m, False)]]]) for m in images}
                assert len(got) == 1, (w, r, inverse, got)
        # and in 1D, a translated cube and its mirror image
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 9))
        index = {cube: i for i, cube in enumerate(family_cubes(nodes))}
        i, j = index[(4, (7,), True)], index[(4, (-9,), True)]  # [7.5, 8.5) and [-8.5, -7.5) / 16
        for r in (0.5, 2.0, np.inf):
            out = nodes.means(ShiftPow(-0.3, 2.0), r)[nodes.orbit]
            assert out[i] == out[j]

    def test_negative_zero_shares_the_orbit(self):
        # [-s, 0) folds to [-0.0, s), which must key as [0, s)
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        index = {cube: i for i, cube in enumerate(family_cubes(nodes))}
        for v in nodes.family.levels():
            assert nodes.orbit[index[(v, (-1,), False)]] == nodes.orbit[index[(v, (0,), False)]]
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 3))
        index = {cube: i for i, cube in enumerate(family_cubes(nodes))}
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

    def test_verify_2d_family_holds_no_mesh(self):
        # the batches keep interval ends and per-axis node coordinates; a
        # 6.77M-node radius would take 51.7 MiB alone
        import tracemalloc

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 6))
            held = tracemalloc.get_traced_memory()[0] - before
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sum(b.radius.size for b in nodes.batches) > 6_000_000
        assert held < 15 * 2**20
        # each (level, shift) group folds to its distinct keys before the
        # family-wide sort, which keyed all 174,760 cubes at once (20.4 MiB)
        assert peak < 14 * 2**20

    @pytest.mark.parametrize("family", _ORBIT_FAMILIES, ids=_ORBIT_IDS)
    def test_radius_rows_equal_eager_mesh(self, family):
        nodes = FamilyNodes(*family)
        for b, want in zip(nodes.batches, eager_radius(nodes), strict=True):
            rows = b.radius.shape[0]
            assert b.radius.shape == want.shape and b.radius.size == want.size
            assert np.array_equal(b.radius[0:rows], want)
            cut = max(1, rows // 3)
            assert np.array_equal(np.concatenate([b.radius[:cut], b.radius[cut:rows + 5]]), want)
            assert np.array_equal(b.radius[rows - 1 :], want[rows - 1 :])

    def test_special_cubes_batched_by_node_weights(self):
        # the 1,028 special representatives of the verify_2d.json family
        # fall into 35 meshes: one batch each, next to the regular batch
        nodes = FamilyNodes(2.0, 2, CubeFamily(-1, 6))
        assert len(nodes.batches) <= 36
        ends = np.cumsum([b.radius.shape[0] for b in nodes.batches])
        assert ends[-1] == nodes.orbit.max() + 1
        # per batch, the per-axis node weights of its representatives
        held = [set() for _ in nodes.batches]
        for (axes, special), row in zip(canonical_cubes(nodes), nodes.orbit.tolist()):
            if special:
                held[np.searchsorted(ends, row, side="right")].add(tuple(axis_mesh(nodes, a, b)[1].tobytes() for a, b in axes))
        assert not held[0] and all(len(h) == 1 for h in held[1:])
        assert len(set.union(*held)) == len(held) - 1
        former = former_meta(nodes)
        for i in np.linspace(0, nodes.n_cubes - 1, 97).astype(int).tolist():
            assert nodes.cube(i) == former[i], i


def former_build(R, n, family):
    """FamilyNodes as its build was when it keyed every cube of the family
    and sorted all of them together by (special, key)."""
    nodes = FamilyNodes.__new__(FamilyNodes)
    nodes.R, nodes.n, nodes.family = float(R), n, family
    nodes.core_eff = 2.0 ** (-family.v_max - _CORE_REFINE)
    nodes._cache, nodes._groups, nodes._read = {}, [], (None, None)
    lo, hi, special = [], [], []
    for v in family.levels():
        for shift in (0.0, 0.5):
            _, a, b, s = nodes._level_cubes(v, shift)
            nodes._groups.append((v, shift, s.size))
            lo.append(a)
            hi.append(b)
            special.append(s)
    special = np.concatenate(special)
    nodes.n_cubes = special.size
    keys = nodes._orbit_keys(np.concatenate(lo), np.concatenate(hi))
    by_key = np.lexsort((*keys.T[::-1], special))
    keys = keys[by_key]
    starts = np.ones(nodes.n_cubes, dtype=bool)
    starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    nodes.orbit = np.empty(nodes.n_cubes, dtype=np.intp)
    nodes.orbit[by_key] = np.cumsum(starts) - 1
    keys = keys[starts]
    n_regular = int(np.count_nonzero(~special[by_key[starts]]))
    nodes.batches = []
    nodes._append_regular(keys[:n_regular, :n], keys[:n_regular, n:])
    row = np.arange(len(keys))
    row[n_regular:] = n_regular + nodes._append_special(keys[n_regular:, :n], keys[n_regular:, n:])
    nodes.orbit = row[nodes.orbit]
    return nodes


@pytest.mark.parametrize("family", _ORBIT_FAMILIES + [(8.0, 1, CubeFamily(-5, 3)), (8.0, 2, CubeFamily(-5, 3))],
                         ids=_ORBIT_IDS + ["1d-clipped", "2d-clipped"])
def test_group_fold_equals_family_wide_build(family):
    """Folding each (level, shift) group to its distinct keys before the
    family-wide fold gives the representatives, rows and orbit map of the
    build that sorted every cube's key at once, bit for bit.  At R = 8 the
    levels -5, -4 and -3 clip to the same intervals, so their groups share
    orbits that only the family-wide fold merges."""
    got, want = FamilyNodes(*family), former_build(*family)
    assert (got.n_cubes, got._groups) == (want.n_cubes, want._groups)
    assert got.orbit.dtype == want.orbit.dtype and np.array_equal(got.orbit, want.orbit)
    assert len(got.batches) == len(want.batches)
    for a, b in zip(got.batches, want.batches):
        rows = b.radius.shape[0]
        assert a.radius.shape == b.radius.shape
        assert a.radius[0:rows].tobytes() == b.radius[0:rows].tobytes()
        assert [w.tobytes() for w in a.wts] == [w.tobytes() for w in b.wts]
    if family[2].v_min == -5:  # the unshifted groups of levels -5 and -4 hold the same orbits
        groups = np.split(got.orbit, np.cumsum([count for *_, count in got._groups])[:-1])
        assert np.array_equal(np.unique(groups[0]), np.unique(groups[2]))


@pytest.mark.parametrize("family", _ORBIT_FAMILIES, ids=_ORBIT_IDS)
def test_in_place_roots_equal_former_roots(monkeypatch, family):
    """stats takes each r-th root in place in its row sums, bit for bit as
    out ** (1.0 / r) took it in a second array; r = inf keeps the max."""
    import lpw.weights

    sums = {}

    def take(requests, outs, *args, _orig=lpw.weights._take):
        _orig(requests, outs, *args)
        sums.update((id(out), out.copy()) for out in outs)

    monkeypatch.setattr(lpw.weights, "_take", take)
    nodes = FamilyNodes(*family)
    requests = [(1.2, False), (2.0, False), (3.0, True), (np.inf, False), (2.0, True), (1.2, True)]
    for w in (Pow(0.3), AltPow(0.4), Const(1.0)):  # at level 0 each cached array is returned as it is
        (got,) = nodes.stats([w], requests)
        for (r, _), out in zip(requests, got):
            pre = sums[id(out)]
            assert out.tobytes() == (pre if r == np.inf else pre ** (1.0 / r)).tobytes(), (w, r)


@pytest.mark.parametrize("family", [(8.0, 1, CubeFamily(-4, 9)), (2.0, 2, CubeFamily(-1, 6))],
                         ids=["default-1d", "verify-2d"])
def test_per_axis_weights_multiply_out_to_former_node_weights(family):
    """Each batch keeps per-axis node weights; multiplied out, they equal bit
    for bit the (K,) node weights a batch stored before: 1 / K for the
    regular batch, and for a special one the outer product of the per-axis
    weights of each of its representatives' axis meshes."""
    nodes = FamilyNodes(*family)
    cubes = canonical_cubes(nodes)
    first = np.empty(nodes.orbit.max() + 1, dtype=int)
    first[nodes.orbit[::-1]] = np.arange(nodes.n_cubes)[::-1]
    at = 0
    for b in nodes.batches:
        got = mesh_weights(b.wts)
        for axes, special in (cubes[i] for i in first[at : at + b.radius.shape[0]].tolist()):
            if special:
                per_axis = [axis_mesh(nodes, a, c)[1] for a, c in axes]
                want = per_axis[0] if nodes.n == 1 else (per_axis[0][:, None] * per_axis[1][None, :]).ravel()
            else:
                want = np.full(_FLAT_NODES**nodes.n, 1.0 / _FLAT_NODES**nodes.n)
            assert got.tobytes() == want.tobytes()
        at += b.radius.shape[0]
    assert at == len(first)


def former_mesh_radius(axes):
    """grid.mesh_radius as the eager build called it: np.hypot folded over
    the axes from 0.0."""
    n, r = len(axes), 0.0
    for i, a in enumerate(axes):
        r = np.hypot(r, a.reshape(a.shape[:-1] + (1,) * i + a.shape[-1:] + (1,) * (n - 1 - i)))
    return r


def eager_radius(nodes):
    """Each batch's (B, K) radius as the build formed and held it when
    batches stored their meshes: per representative (the first cube of its
    orbit, in canonical orientation), the regular nodes lo + (hi - lo) * offs
    or the graded axis meshes of axis_mesh, through former_mesh_radius."""
    cubes = canonical_cubes(nodes)
    first = np.empty(nodes.orbit.max() + 1, dtype=int)
    first[nodes.orbit[::-1]] = np.arange(nodes.n_cubes)[::-1]
    out, at = [], 0
    for b in nodes.batches:
        rows = b.radius.shape[0]
        reps = [cubes[i] for i in first[at : at + rows].tolist()]
        at += rows
        if not reps[0][1]:  # the regular batch
            lo = np.array([[a for a, _ in axes] for axes, _ in reps])
            hi = np.array([[b for _, b in axes] for axes, _ in reps])
            offs = (np.arange(_FLAT_NODES) + 0.5) / _FLAT_NODES
            X = lo[:, :, None] + (hi - lo)[:, :, None] * offs
            out.append(former_mesh_radius([X[:, i] for i in range(nodes.n)]).reshape(rows, _FLAT_NODES**nodes.n))
        else:
            meshes = [[axis_mesh(nodes, a, b)[0] for a, b in axes] for axes, _ in reps]
            out.append(former_mesh_radius([np.stack(x) for x in zip(*meshes)]).reshape(rows, -1))
    return out


def twin_orbits(nodes, monkeypatch):
    """Make every odd orbit hold the statistics of the even orbit before it,
    so each maximum is attained by two orbits; returns the orbit each
    orbit reads."""
    stats = nodes.stats
    twin = np.arange(nodes.orbit.max() + 1) & ~1
    monkeypatch.setattr(nodes, "stats", lambda weights, requests, k=0:
                        [[out[twin] for out in outs] for outs in stats(weights, requests, k)])
    return twin


def ap_witness_per_cube(gamma, p, nodes):
    """ap_witness as it was taken: np.argmax over the family-order products."""
    ((mean, inv_mean),) = nodes.stats([gamma], [(1.0, False), (conjugate(p) / p, True)])
    prod = (mean * inv_mean)[nodes.orbit]
    i = int(np.argmax(prod))
    return float(prod[i]), nodes.cube(i)


def xclass_per_cube(ts, p, alpha, sigma, nodes):
    """xclass_constants as it was taken: the level statistics in family order
    and np.argmax over each product."""
    (a1, a2), (s1, s2) = alpha, sigma
    A, B, D = {}, {}, {}
    for k in ts.levels():
        (stats,) = nodes.stats([ts.spec], [(p, False), (s1, True), (s2, False)], k)
        A[k], B[k], D[k] = (out[nodes.orbit] for out in stats)
    C1 = C2 = -np.inf
    w1 = w2 = None
    for k in ts.levels():
        for j in range(k, ts.k_max + 1):
            prod1 = A[k] * B[j] * 2.0 ** (-a1 * (k - j))
            i1 = int(np.argmax(prod1))
            if prod1[i1] > C1:
                C1, w1 = float(prod1[i1]), {"k": k, "j": j, "cube": nodes.cube(i1)}
            prod2 = (D[j] / A[k]) * 2.0 ** (-a2 * (j - k))
            i2 = int(np.argmax(prod2))
            if prod2[i2] > C2:
                C2, w2 = float(prod2[i2]), {"k": k, "j": j, "cube": nodes.cube(i2)}
    return C1, C2, w1, w2


def as_cube(witness):
    cube = witness["cube"]
    return {"k": witness["k"], "j": witness["j"], "cube": (cube["v"], tuple(cube["m"]), cube["translated"])}


_WITNESS_FAMILIES = [(8.0, 1, CubeFamily(-2, 5)), (2.0, 2, CubeFamily(-1, 3))]


_CONFIGS = ("fixtures/default.json", "fixtures/smoke.json", "perfbench/configs/verify_2d.json")


@pytest.mark.parametrize("config", _CONFIGS)
def test_fit_and_constants_read_one_growth_table(config):
    # at the fitted alphas, the fit's C1 and C2 are those of xclass_constants
    # bit for bit, and the witnesses those of the former k-major pair loop,
    # for every weight of the config's matrix on its own cube family
    from lpw.cli import RunConfig

    ctx = RunConfig(json.loads((Path(__file__).resolve().parents[1] / config).read_text())).ctx
    nodes = ctx.nodes()
    p, theta = ctx.exponent_pairs[0]
    sigma = (sigma1(p, theta), p)
    seqs = [WeightSequence(w, ctx.k_min, ctx.k_max) for w in ctx.weights().values()]
    for name, ts, fit in zip(ctx.weights(), seqs, xclass_fit(seqs, p, sigma, nodes)):
        alpha = (fit["alpha1"], fit["alpha2"])
        rep = xclass_constants(ts, p, alpha, sigma, nodes)
        assert (fit["C1"], fit["C2"]) == (rep["C1"], rep["C2"]), name
        C1, C2, w1, w2 = xclass_per_cube(ts, p, alpha, sigma, nodes)
        assert (rep["C1"], rep["C2"], as_cube(rep["witness1"]), as_cube(rep["witness2"])) == (C1, C2, w1, w2), name


class TestPerOrbitStatistics:
    """Statistics hold one value per orbit; a witness is the first cube in
    family order whose orbit attains the maximum, as np.argmax over the
    family-order array names it."""

    @pytest.mark.parametrize("family", _WITNESS_FAMILIES, ids=["1d", "2d"])
    @pytest.mark.parametrize("tied", [False, True], ids=["plain", "tied"])
    def test_witnesses_equal_family_order_argmax(self, monkeypatch, family, tied):
        nodes = FamilyNodes(*family)
        if tied:
            twin_orbits(nodes, monkeypatch)
        gammas = [Pow(0.4), ShiftPow(-0.3, 2.0), Const(2.0)]
        for gamma, witness in zip(gammas, ap_witness(gammas, 2.0, nodes)):
            assert witness == ap_witness_per_cube(gamma, 2.0, nodes), gamma
        for spec in (Prod((Dyadic(1.0), Pow(0.2))), AltPow(0.3)):
            ts = WeightSequence(spec, -2, 3)
            rep = xclass_constants(ts, 2.0, (0.7, 1.2), (3.0, 2.0), nodes)
            C1, C2, w1, w2 = xclass_per_cube(ts, 2.0, (0.7, 1.2), (3.0, 2.0), nodes)
            assert (rep["C1"], rep["C2"], as_cube(rep["witness1"]), as_cube(rep["witness2"])) == (C1, C2, w1, w2), spec

    @pytest.mark.parametrize("family", _WITNESS_FAMILIES, ids=["1d", "2d"])
    def test_argmax_cube_takes_the_first_cube_of_a_tie(self, family, rng):
        nodes = FamilyNodes(*family)
        n_orbits = nodes.orbit.max() + 1
        first = np.full(n_orbits, nodes.n_cubes)
        np.minimum.at(first, nodes.orbit, np.arange(nodes.n_cubes))
        # a tie between a lower orbit and a higher one whose first cube comes
        # earlier in family order
        lo, hi = next((a, b) for a in range(n_orbits) for b in range(a + 1, n_orbits) if first[b] < first[a])
        values = rng.random(n_orbits)
        values[[lo, hi]] = 2.0
        assert nodes.argmax_cube(values) == int(np.argmax(values[nodes.orbit])) == first[hi]
        values[[lo, hi]] = np.nan
        assert nodes.argmax_cube(values) == int(np.argmax(values[nodes.orbit])) == first[hi]
        for values in (rng.random(n_orbits), np.ones(n_orbits)):
            assert nodes.argmax_cube(values) == int(np.argmax(values[nodes.orbit]))

    def test_cache_holds_one_value_per_orbit(self):
        from lpw.suites import RunContext, suite_hoelder, suite_xclassfit

        ctx = RunContext(GridSpec(2, 2.0, 32), -1, 3, CubeFamily(-1, 3), corpus_size=2)
        suite_hoelder(ctx)
        suite_xclassfit(ctx)
        nodes = ctx.nodes()
        assert nodes.n_cubes > nodes.orbit.max() + 1
        assert len(nodes._cache) > 10
        assert all(out.shape == (nodes.orbit.max() + 1,) for out in nodes._cache.values())


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
        w = {"plain": w, "inv": w.power(-1.0), "power": w.power(e), "frozen": w.frozen(j)}[derive]
        canon = _profile(w)
        s, g = canon.split()
        assert s == 0.0
        with np.errstate(all="ignore"):
            assert np.array_equal(g(_RADII), w.split()[1](_RADII), equal_nan=True)


class TestMuckenhoupt:
    def test_constant_weight(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        assert ap_constant([Const(5.0)], 2.0, nodes) == [pytest.approx(1.0, abs=1e-12)]

    def test_ap_floor(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        for c in ap_constant([Pow(0.4), ShiftPow(-0.5, 1.0), Prod((Pow(0.2), Const(3.0)))], 2.0, nodes):
            assert c >= 1.0 - 1e-12

    def test_sqrt_weight_in_class(self):
        # -1 < 1/2 < 1 = n(p-1): the estimate stays put as the family refines
        (c1,) = ap_constant([Pow(0.5)], 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 7)))
        (c2,) = ap_constant([Pow(0.5)], 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 9)))
        assert c2 <= c1 * 1.05

    def test_square_weight_outside_class(self):
        (c1,) = ap_constant([Pow(2.0)], 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 7)))
        (c2,) = ap_constant([Pow(2.0)], 2.0, FamilyNodes(8.0, 1, CubeFamily(-4, 17)))
        assert c2 > 10 * c1

    def test_rejects_p_at_most_one(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 4))
        with pytest.raises(WeightError):
            ap_constant([Pow(0.5)], 1.0, nodes)

    def test_monotone_in_p(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        ws = [Pow(0.4), ShiftPow(0.6, 1.0)]
        for cp, cq in zip(ap_constant(ws, 1.5, nodes), ap_constant(ws, 3.0, nodes)):
            assert cq <= cp * (1 + 1e-12)

    def test_power_rule(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-4, 6))
        epss = (0.25, 0.5, 1.0)
        base, *smalls = ap_constant([Pow(0.6)] + [Pow(0.6 * eps) for eps in epss], 2.0, nodes)
        for eps, small in zip(epss, smalls):
            assert small <= base**eps * (1 + 1e-12)


def witness_at(meta, witness):
    """The levels (k, j) of an xclass witness record and its cube's index in meta."""
    cube = witness["cube"]
    return witness["k"], witness["j"], meta.index((cube["v"], tuple(cube["m"]), cube["translated"]))


class TestXClass:
    def test_pure_dyadic_identity(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Dyadic(1.5), -3, 4)
        rep = xclass_constants(ts, 2.0, (1.5, 1.5), (2.0, 2.0), nodes)
        assert rep["C1"] == pytest.approx(1.0, abs=1e-12)
        assert rep["C2"] == pytest.approx(1.0, abs=1e-12)

    def test_dyadic_times_ap_weight(self):
        # 2^(k s) w with w^p in the class: finite constants at alpha = (s, s)
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 6))
        r, p = 4.0 / 3.0, 2.0
        s1 = r * conjugate(p / r)
        ts = WeightSequence(Prod((Dyadic(0.5), Pow(0.1))), -3, 4)
        rep = xclass_constants(ts, p, (0.5, 0.5), (s1, p), nodes)
        assert np.isfinite(rep["C1"]) and np.isfinite(rep["C2"])
        assert rep["C1"] < 50 and rep["C2"] < 50

    def test_witnesses_reproduce_sups(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        ts = WeightSequence(Prod((Dyadic(1.0), Pow(0.2))), -2, 3)
        rep = xclass_constants(ts, 2.0, (0.7, 1.2), (3.0, 2.0), nodes)
        meta = family_cubes(nodes)
        k, j, i = witness_at(meta, rep["witness1"])
        i = nodes.orbit[i]
        v1 = nodes.means(ts.spec, 2.0, k)[i] * nodes.means(ts.spec.power(-1.0), 3.0, j)[i]
        assert v1 * 2.0 ** (-0.7 * (k - j)) == pytest.approx(rep["C1"], rel=1e-12)
        k2, j2, i2 = witness_at(meta, rep["witness2"])
        i2 = nodes.orbit[i2]
        v2 = nodes.means(ts.spec, 2.0, j2)[i2] / nodes.means(ts.spec, 2.0, k2)[i2]
        assert v2 * 2.0 ** (-1.2 * (j2 - k2)) == pytest.approx(rep["C2"], rel=1e-12)

    def test_sigma_infinity_component(self):
        # sup-type second component: pure dyadic scaling still cancels exactly
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Dyadic(1.0), -2, 3)
        rep = xclass_constants(ts, 2.0, (1.0, 1.0), (2.0, np.inf), nodes)
        assert rep["C1"] == pytest.approx(1.0, abs=1e-12)
        assert rep["C2"] == pytest.approx(1.0, abs=1e-12)

    def test_super_geometric_blows_up(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        narrow = WeightSequence(SquaredDyadic(), 0, 3)
        wide = WeightSequence(SquaredDyadic(), 0, 7)
        r1 = xclass_constants(narrow, 2.0, (1.0, 1.0), (2.0, 2.0), nodes)
        r2 = xclass_constants(wide, 2.0, (1.0, 1.0), (2.0, 2.0), nodes)
        assert r2["C1"] * r2["C2"] > 100 * r1["C1"] * r1["C2"]

    def test_scale_invariance(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        a = WeightSequence(Prod((Dyadic(0.5), Pow(0.1))), -2, 3)
        b = WeightSequence(Prod((Const(7.0), Dyadic(0.5), Pow(0.1))), -2, 3)
        ra = xclass_constants(a, 2.0, (0.5, 0.5), (3.0, 2.0), nodes)
        rb = xclass_constants(b, 2.0, (0.5, 0.5), (3.0, 2.0), nodes)
        assert rb["C1"] == pytest.approx(ra["C1"], rel=1e-12)
        assert rb["C2"] == pytest.approx(ra["C2"], rel=1e-12)

    def test_inadmissible_rejected(self):
        # xclass_constants takes the sequence as admissible; the check that
        # precedes it in `lpw weights xclass` rejects this one
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        ts = WeightSequence(Pow(-0.6), -2, 3)  # |x|^(-1.2) not integrable
        with pytest.raises(WeightError):
            check_admissible(ts, 2.0, nodes.R, nodes.n)


class TestXClassFit:
    def test_pure_dyadic_rate(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        (fit,) = xclass_fit([WeightSequence(Dyadic(3.0), -3, 4)], 2.0, (2.0, 2.0), nodes)
        assert fit["alpha1"] == pytest.approx(3.0, abs=fit["grid_step"])
        assert fit["alpha2"] == pytest.approx(3.0, abs=fit["grid_step"])

    def test_constant_sequence(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        (fit,) = xclass_fit([WeightSequence(Const(1.0), -3, 4)], 2.0, (2.0, 2.0), nodes)
        assert fit["alpha1"] == pytest.approx(0.0, abs=fit["grid_step"])
        assert fit["alpha2"] == pytest.approx(0.0, abs=fit["grid_step"])

    def test_modulated_dyadic(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        (fit,) = xclass_fit([WeightSequence(Prod((Dyadic(0.5), Pow(0.3))), -3, 4)], 2.0, (sigma1(2.0, 1.2), 2.0), nodes)
        assert fit["alpha1"] <= fit["alpha2"] + fit["grid_step"]
        assert abs(fit["alpha1"] - 0.5) < 0.25
        assert abs(fit["alpha2"] - 0.5) < 0.25


class TestRecordLayout:
    """Each check returns the record that weights_*.json or report.json
    holds, with the keys these files have always had."""

    def test_xclass_constants(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        rep = xclass_constants(WeightSequence(Dyadic(1.0), -2, 3), 2.0, (1.0, 1.0), (2.0, np.inf), nodes)
        assert set(rep) == {"alpha", "sigma", "p", "C1", "C2", "witness1", "witness2"}
        assert rep["alpha"] == [1.0, 1.0] and rep["sigma"] == [2.0, np.inf] and rep["p"] == 2.0
        for key in ("witness1", "witness2"):
            assert set(rep[key]) == {"k", "j", "cube"}
            assert set(rep[key]["cube"]) == {"v", "m", "translated"}

    def test_xclass_fit(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 4))
        (fit,) = xclass_fit([WeightSequence(Const(1.0), -3, 4)], 2.0, (2.0, 2.0), nodes)
        assert set(fit) == {"alpha1", "alpha2", "C1", "C2", "grid_step"}


def former_domain_integral(w, R, n, p, core, k=0):
    """domain_integral as it was written, with one branch per dimension."""
    nodes, wts = _axis_nodes(-R, R, core, 16, 64)
    if n == 1:
        return float(w.eval(np.abs(nodes), k) ** p @ wts)
    rad = np.hypot(nodes[:, None], nodes[None, :]).ravel()
    ww = (wts[:, None] * wts[None, :]).ravel()
    return float(w.eval(rad, k) ** p @ ww)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("text", ["pow:0.3", "shiftpow:-0.3,2", "prod:[dyadic:1,pow:-0.4]"])
def test_domain_integral_equals_former_formula(n, text):
    # no report shows this value: check_admissible compares two of them
    w = parse_weight(text)
    for core in (2.0**-22, 2.0**-23):
        assert domain_integral(w, 8.0, n, 2.0, core, k=2) == former_domain_integral(w, 8.0, n, 2.0, core, k=2)


def level_ap_constants(ts, p, theta, nodes):
    """The A_{p/theta} constant of t_k^p at each level k of ts, through the
    level-frozen weight t_k."""
    return ap_constant([ts.spec.frozen(k).power(p) for k in ts.levels()], p / theta, nodes)


class TestSameConstant:
    """Whether the Muckenhoupt constants of t_k^p agree across levels k."""

    def test_dyadic_factor_cancels(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        ts = WeightSequence(Prod((Dyadic(0.7), Pow(0.2))), -3, 4)
        vals = level_ap_constants(ts, 2.0, 1.2, nodes)
        assert max(vals) == pytest.approx(min(vals), rel=1e-12)

    def test_level_independent(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        vals = level_ap_constants(WeightSequence(Pow(0.3), -3, 4), 2.0, 1.2, nodes)
        assert max(vals) <= 1.01 * min(vals)

    def test_alternating_exponent_fails(self):
        nodes = FamilyNodes(8.0, 1, CubeFamily(-2, 5))
        vals = level_ap_constants(WeightSequence(AltPow(0.3), -3, 4), 2.0, 1.2, nodes)
        assert max(vals) > 1.01 * min(vals)


class TestProperties:
    @given(st.floats(-0.4, 0.8), st.floats(0.1, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_power_rule_property(self, a, eps):
        nodes = _property_nodes()
        base, small = ap_constant([Pow(a), Pow(a * eps)], 2.0, nodes)
        assert small <= base**eps * (1 + 1e-12)

    @given(st.floats(1.2, 3.0), st.floats(0.0, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_class_monotone_property(self, p, dp):
        nodes = _property_nodes()
        w = ShiftPow(0.6, 0.5)
        assert ap_constant([w], p + dp, nodes)[0] <= ap_constant([w], p, nodes)[0] * (1 + 1e-12)

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
        check_admissible(WeightSequence(Pow(-0.45), -2, 3), 2.0, 8.0, 1)
        check_admissible(WeightSequence(Prod((Dyadic(1.0), Pow(0.3))), -2, 3), 2.0, 8.0, 1)

    def test_divergent_rejected(self):
        with pytest.raises(WeightError):
            check_admissible(WeightSequence(Pow(-0.6), -2, 3), 2.0, 8.0, 1)

    def test_log_divergent_rejected(self):
        with pytest.raises(WeightError):
            check_admissible(WeightSequence(Pow(-0.5), -2, 3), 2.0, 8.0, 1)

    @pytest.mark.parametrize("a", [2000.0, -2000.0])
    def test_overflow_named_as_overflow(self, a):
        # |x|^2000 is integrable on [-8, 8), but its samples overflow a double;
        # with warnings as errors the probe must still end in its WeightError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(WeightError, match=r"pow:-?2000 overflows double precision on the probe mesh at level -2"):
                check_admissible(WeightSequence(Pow(a), -2, 3), 2.0, 8.0, 1)


def per_level_weigh(ws, fs):
    """{t_k |f_k|} sampled and multiplied one level at a time."""
    return np.stack([ws.spec.on_grid(fs.spec, k).values * np.abs(fs[k]) for k in ws.levels()])


def magnitudes(fs):
    """The magnitude stack {|f_k|} that weigh takes."""
    return VectorSequence(fs.spec, fs.k_min, np.abs(fs.values))


@pytest.fixture(scope="module", params=[GridSpec(1, 8.0, 256), GridSpec(2, 2.0, 32)], ids=["1d", "2d"])
def signed_stack(request):
    spec = request.param
    values = np.random.default_rng(3).standard_normal((9, *spec.shape))
    values[0, :4] = 0.0
    return VectorSequence(spec, -3, values)


# weights with s = 0, whose t_k = 1.0 g is g on every level
_LEVEL_FREE = [
    Frozen(parse_weight("prod:[dyadic:0.5,pow:0.3]"), 2),
    Frozen(AltPow(0.4), 1),
    Pow(0.3),
    Const(2.5),
    ShiftPow(-0.3, 2.0),
    Dyadic(0.0),
    parse_weight("prod:[pow:0.3,shiftpow:0.25,1,const:2]"),
    Pow(-0.2).power(-1.0),
]
_LEVEL_FREE_IDS = ["frozen", "frozen-altpow", "pow", "const", "shiftpow", "dyadic0", "prod", "powof"]
# weights whose factor-wise product depends on k; the rates of the cancelling
# product sum to 0, so under the one rule it is 1.0 on every level
_LEVEL_DEPENDENT = [
    Dyadic(0.5),
    parse_weight("prod:[dyadic:1,pow:0.3]"),
    Prod((Dyadic(0.5), Dyadic(-0.5))),
    Dyadic(0.5).power(-1.0),
    AltPow(0.4),
    AltConst(2.0),
]
_LEVEL_DEPENDENT_IDS = ["dyadic", "dyadic-prod", "cancelling-prod", "dyadic-inv", "altpow", "altconst"]


class TestWeigh:
    """weigh forms each row t_k |f_k| from t_k = 2^(k s) g, with g sampled
    once per grid for a weight that splits, and t_k sampled per level for one
    that does not; each entry is the weight's own eval times |f_k|."""

    def count_samples(self, monkeypatch):
        """The levels at which grid samples of a weight are drawn."""
        calls = []
        orig = WeightSpec.on_grid

        def counted(w, gspec, k=0):
            calls.append(k)
            return orig(w, gspec, k)

        monkeypatch.setattr(WeightSpec, "on_grid", counted)
        return calls

    @pytest.mark.parametrize("w", _LEVEL_FREE, ids=_LEVEL_FREE_IDS)
    def test_level_free_broadcast_equals_per_level(self, w, signed_stack, monkeypatch):
        assert w.split()[0] == 0
        ws = WeightSequence(w, -2, 4)
        calls = self.count_samples(monkeypatch)
        got = ws.weigh(magnitudes(signed_stack))
        assert calls == [0]  # one sample of g = t_0 serves every level
        assert got.k_min == -2 and got.values.shape == (7, *signed_stack.spec.shape)
        ws.weigh(magnitudes(signed_stack))
        assert calls == [0]
        assert (got.values == per_level_weigh(ws, signed_stack)).all()

    @pytest.mark.parametrize("w", _LEVEL_DEPENDENT, ids=_LEVEL_DEPENDENT_IDS)
    def test_level_dependent_weights_sampled_per_level(self, w, signed_stack, monkeypatch):
        ws = WeightSequence(w, -2, 4)
        calls = self.count_samples(monkeypatch)
        spec = signed_stack.spec
        got = ws.weigh(magnitudes(signed_stack))
        ws.weigh(magnitudes(signed_stack))
        samples = [ws.on_grid(spec, k).values for k in ws.levels()]
        # g once per grid for a weight that splits, across both stacks and
        # every level; only AltPow and AltConst, which do not, level by level
        assert calls == ([0] if w.separable else list(ws.levels()))
        for k, t in zip(ws.levels(), samples):
            assert (t == w.eval(spec.radius(), k)).all(), k
        assert (got.values == per_level_weigh(ws, signed_stack)).all()

    @pytest.mark.parametrize("w", [_LEVEL_FREE[0], Pow(0.3), _LEVEL_DEPENDENT[1]], ids=["frozen", "pow", "dyadic-prod"])
    def test_nonneg_stack_taken_as_it_is(self, w, signed_stack):
        ws = WeightSequence(w, -3, 5)
        mags = magnitudes(signed_stack)
        before = mags.values.copy()
        got = ws.weigh(mags)
        assert (got.values == per_level_weigh(ws, signed_stack)).all()
        assert (mags.values == before).all() and got.values is not mags.values

    def test_signed_input_left_unchanged(self, signed_stack):
        before, mags = signed_stack.values.copy(), magnitudes(signed_stack)
        mags_before = mags.values.copy()
        for w in (Pow(0.3), Dyadic(0.5)):
            WeightSequence(w, -3, 5).weigh(mags)
        assert (signed_stack.values == before).all() and (mags.values == mags_before).all()

    def test_levels_outside_the_stack_rejected(self, signed_stack):
        for k_min, k_max in ((-4, 2), (0, 6)):
            for w in (Pow(0.3), Dyadic(0.5)):
                with pytest.raises(GridError, match="leave the stack"):
                    WeightSequence(w, k_min, k_max).weigh(magnitudes(signed_stack))


class TestFamilyCount:
    """CubeFamily.n_cubes, the count the cube budget reads, is the number of
    cubes FamilyNodes builds, taken without forming a position."""

    @pytest.mark.parametrize("R, n, family", [
        (8.0, 1, CubeFamily(-4, 19)),  # default.json's deepest (muckenhoupt) family, 192,516 cubes
        (8.0, 1, CubeFamily(-4, 16, max_per_level=2048)),
        (2.0, 2, CubeFamily(-1, 5, max_per_level=8)),
        (0.5, 1, CubeFamily(-1, 14, max_per_level=9)),
    ], ids=["default-muckenhoupt", "smoke-muckenhoupt", "2d-capped", "odd-cap"])
    def test_equals_the_built_family(self, R, n, family):
        assert family.n_cubes(R, n) == FamilyNodes(R, n, family).n_cubes

    @pytest.mark.parametrize("cap", [8, 9, 13, 100, 2047, 2048, 8192, 8193])
    @pytest.mark.parametrize("R", [0.5, 2.0, 8.0])
    def test_each_level_counts_its_positions(self, R, cap):
        # exact while R 2^v < 2^50: here up to 2^48, capped or not
        for v in range(-1, 46):
            family = CubeFamily(v, v, max_per_level=cap)
            assert family.n_cubes(R, 1) == 2 * family.positions(R, v).size, v
            assert family.n_cubes(R, 2) == 2 * family.positions(R, v).size ** 2
