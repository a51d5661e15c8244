"""Weighted Besov / Triebel-Lizorkin quasi-norms, their sequence-space
counterparts, BMO, and a grand-maximal Hardy-type norm.

Function-side norms act on the weighted bands t_k (phi_k * f) and take either
a GridFunction, which they decompose first, or a BandDecomposition built on
the request's band pair, so callers that evaluate many norms of one function
compute its bands once.  Sequence-side norms act on coefficient sets,
in both the direct form (weight evaluated pointwise) and the starred form
(weight aggregated into cube L_p norms t_{k,m}).  Level sums are truncated to the stored window, which is
exact on the band-limited corpus this package works with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    CubeFamily,
    DyadicCube,
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    _lp,
    _lp_lq_nonneg,
    _lp_nonneg,
    cube_samples,
)
from .lpaley import BandDecomposition, CoefficientSet, LPPair, band_decompose
from .weights import WeightSequence


@dataclass(frozen=True)
class NormRequest:
    """Parameters shared by the norm operations.

    space is one of B, F, F_inf, b, f, f_inf, Lp, Hardy, BMO; q may be inf
    where the definitions allow it (not in F_inf / f_inf).  family, the
    cubes of the Carleson scans, defaults to the pair's level window.
    """

    space: str
    p: float
    q: float
    weights: WeightSequence
    pair: LPPair
    family: CubeFamily | None = None

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"exponents must be positive, got p={self.p}, q={self.q}")
        if self.space in ("F", "f") and np.isinf(self.p):
            raise ValueError(f"space {self.space} needs p < inf")
        if self.space in ("F_inf", "f_inf") and np.isinf(self.q):
            raise ValueError(f"space {self.space} needs q < inf")
        ws = self.weights
        if ws.k_min < self.pair.k_min or ws.k_max > self.pair.k_max:
            raise ValueError(
                f"weight levels [{ws.k_min}, {ws.k_max}] leave the pair window "
                f"[{self.pair.k_min}, {self.pair.k_max}]"
            )
        if self.family is None:
            object.__setattr__(self, "family", CubeFamily(self.pair.k_min, self.pair.k_max))

    def levels(self) -> range:
        return self.weights.levels()


def _bands(f: GridFunction | BandDecomposition, pair: LPPair) -> VectorSequence:
    """The bands of f on `pair`: decomposed here from a GridFunction, taken
    as they are from a BandDecomposition built on the same grid and window."""
    if isinstance(f, GridFunction):
        return band_decompose(f, pair).bands
    have, want = f.pair, pair
    if (have.gspec, have.k_min, have.k_max) != (want.gspec, want.k_min, want.k_max):
        raise ValueError(
            f"band decomposition on {have.gspec}, levels [{have.k_min}, {have.k_max}], "
            f"does not match the request's pair on {want.gspec}, "
            f"levels [{want.k_min}, {want.k_max}]"
        )
    return f.bands


def weighted_bands(f: GridFunction | BandDecomposition, req: NormRequest) -> VectorSequence:
    """{ t_k * |phi_k * f| } over the request's level window; f is a
    GridFunction or its BandDecomposition on req.pair."""
    return req.weights.weigh(_bands(f, req.pair))


def besov_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """( sum_k ||t_k (phi_k * f)|L_p||^q )^(1/q), sup over k when q = inf;
    f is a GridFunction or its BandDecomposition on req.pair."""
    return _besov(weighted_bands(f, req), req)


def tl_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """|| ( sum_k t_k^q |phi_k * f|^q )^(1/q) | L_p ||; f is a GridFunction
    or its BandDecomposition on req.pair."""
    return _tl(weighted_bands(f, req), req)


def space_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """The band norm req.space names: B, F or F_inf.  It calls the named norm
    functions, which perfbench/tracer.py times by name."""
    if req.space == "B":
        return besov_norm(f, req)
    if req.space == "F":
        return tl_norm(f, req)
    if req.space == "F_inf":
        return tl_infty_norm(f, req)
    raise ValueError(f"space {req.space!r} is not one of the band norms B, F, F_inf")


def stack_norm(wb: VectorSequence, req: NormRequest) -> float:
    """space_norm from the weighted stack wb = weighted_bands(f, req), so a
    caller taking several norms under one weight sequence weighs f once."""
    if req.space == "B":
        return _besov(wb, req)
    if req.space == "F":
        return _tl(wb, req)
    if req.space == "F_inf":
        return _tl_infty(wb, req)
    raise ValueError(f"space {req.space!r} is not one of the band norms B, F, F_inf")


# The kernels take a weighted stack, which is nonnegative, as it is.


def _besov(wb: VectorSequence, req: NormRequest) -> float:
    cell = wb.spec.cell_measure
    return _lp_nonneg(np.array([_lp_nonneg(row, cell, req.p) for row in wb.values]), 1.0, req.q)


def _tl(wb: VectorSequence, req: NormRequest) -> float:
    if np.isinf(req.p):
        raise ValueError("p = inf is handled by tl_infty_norm")
    return _lp_lq_nonneg(wb.values, wb.spec.cell_measure, req.p, req.q)


# ---------------------------------------------------------------------------
# Carleson-type cube scans
# ---------------------------------------------------------------------------


def _scan_levels(spec: GridSpec, family: CubeFamily) -> range:
    v_floor, v_cap = spec.level_window()
    v_lo, v_hi = max(family.v_min, v_floor), min(family.v_max, v_cap)
    if v_lo > v_hi:
        raise GridError("cube family has no grid-resolvable levels")
    return range(v_lo, v_hi + 1)


def _blocks(a: np.ndarray, S: int, shift: int = 0) -> np.ndarray:
    """a, rolled back `shift` cells along every axis, cut into cubes of S
    cells a side: shape (M, S) in 1D and (M, S, M, S) in 2D with M = N / S,
    so the axes _in_cube(n) run inside one cube.  A view of a when shift is 0."""
    for ax in range(a.ndim) if shift else ():
        a = np.roll(a, -shift, axis=ax)
    return a.reshape((a.shape[0] // S, S) * a.ndim)


def _in_cube(n: int) -> tuple[int, ...]:
    return tuple(range(1, 2 * n, 2))


def _cube_means_all(arr: np.ndarray, spec: GridSpec, v: int, translated: bool) -> np.ndarray:
    """Means of arr over every level-v cube (tiling), optionally half-shifted."""
    S = spec.cells(v)
    return _blocks(arr, S, S // 2 if translated else 0).mean(axis=_in_cube(spec.n))


def carleson_sup(level_arrays: dict[int, np.ndarray], spec: GridSpec,
                 family: CubeFamily, q: float) -> float:
    """sup over cubes P of ( mean_P sum_{k >= level(P)} G_k )^(1/q).

    level_arrays maps k to the nonnegative integrand G_k; the level sum is
    truncated below at the stored k_min and the cube levels are clamped to
    the grid-resolvable window.
    """
    ks = sorted(level_arrays)
    suffix: dict[int, np.ndarray] = {}
    acc = np.zeros(spec.shape)
    for k in reversed(ks):
        acc = acc + level_arrays[k]
        suffix[k] = acc
    best = 0.0
    translate_flags = (False, True) if family.translates else (False,)
    for v in _scan_levels(spec, family):
        start = min((k for k in ks if k >= v), default=None)
        if start is None:
            continue
        arr = suffix[start]
        for tr in translate_flags:
            m = _cube_means_all(arr, spec, v, tr)
            best = max(best, float(m.max()))
    return best ** (1.0 / q)


def tl_infty_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """Carleson-type norm: sup over dyadic P of the cube-averaged tail
    ( (1/|P|) int_P sum_{k >= -log2 l(P)} t_k^q |phi_k * f|^q )^(1/q);
    f is a GridFunction or its BandDecomposition on req.pair."""
    return _tl_infty(weighted_bands(f, req), req)


def _tl_infty(wb: VectorSequence, req: NormRequest) -> float:
    if np.isinf(req.q):
        raise ValueError("F_inf norms need q < inf")
    arrays = {k: wb[k] ** req.q for k in wb.levels()}
    return carleson_sup(arrays, wb.spec, req.family, req.q)


# ---------------------------------------------------------------------------
# Sequence-space norms
# ---------------------------------------------------------------------------


def _paint(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """sum_m values[m] chi_{k,m}: each level-k cube's value on all its cells,
    values being one level's array of cube values, or a stack of them."""
    lead, M = values.shape[:-spec.n], values.shape[-1]
    out = np.empty(lead + spec.shape)
    out.reshape(lead + (M, spec.N // M) * spec.n)[...] = values.reshape(lead + (M, 1) * spec.n)
    return out


def cube_lp(t: GridFunction, Q: DyadicCube, p: float) -> float:
    """Non-normalized cube norm ||t|L_p(Q)|| by the midpoint rule."""
    return _lp(cube_samples(t, Q), t.spec.cell_measure, p)


def _cube_lp_all(t: GridFunction, S: int, p: float, where: np.ndarray) -> np.ndarray:
    """cube_lp(t, Q, p) for each cube Q of S cells a side where `where` holds,
    summed in the same order; 0 elsewhere."""
    n = t.spec.n
    b = _blocks(np.abs(t.values), S)
    # one row of S^n contiguous cells per cube, which is how cube_lp sums
    b = b.transpose(*range(0, 2 * n, 2), *_in_cube(n)).reshape(b.shape[::2] + (-1,))[where]
    out = np.zeros(where.shape)
    if np.isinf(p):
        out[where] = b.max(axis=-1)
    else:
        sums = t.spec.cell_measure * (b**p).sum(axis=-1)
        # numpy's array power can round apart from the scalar power cube_lp takes
        out[where] = [s ** (1.0 / p) for s in sums]
    return out


def _starred_cube_lp(t: GridFunction, k: int, S: int, p: float, where: np.ndarray) -> np.ndarray:
    """t_{k,m} for the starred f-norms, whose factor 2^(k n / p) = |Q|^(-1/p)
    must be |Q cap domain|^(-1/p) for lone coefficients to agree exactly.

    Only the coarsest level k = -log2(2R) has cubes clipped to half the
    domain; there t_{k,m} takes the measure ratio, every other level is
    _cube_lp_all as it is.
    """
    tkm = _cube_lp_all(t, S, p, where)
    side = S * t.spec.h
    if side < 2.0 ** (-k):
        tkm = tkm * (2.0 ** (-k) / side) ** (t.spec.n / p)
    return tkm


def _seq_levels(coeffs: CoefficientSet, spec: GridSpec) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """coeffs.support, once every stored level is checked to fit the grid."""
    coeffs.check_domain(spec)
    for k in coeffs.levels():
        if 2.0 ** (-k) < spec.h:
            raise ValueError(f"level {k} cubes are finer than the grid spacing h={spec.h}")
    return coeffs.support


def seq_b_norm(coeffs: CoefficientSet, spec: GridSpec, req: NormRequest) -> tuple[float, float]:
    """Besov sequence norm, (direct, starred).

    direct:  ( sum_k 2^(k n q / 2) || sum_m t_k lambda chi |L_p||^q )^(1/q)
    starred: ( sum_k 2^(k n q / 2) ( sum_m |lambda|^p t_{k,m}^p )^(q/p) )^(1/q)
    """
    n, p, q = spec.n, req.p, req.q
    terms_plain, terms_star = [], []
    for k in _seq_levels(coeffs, spec):
        t, mags, S = req.weights.on_grid(spec, k), np.abs(coeffs[k]), spec.N // len(coeffs[k])
        plain = _lp(_paint(spec, mags) * t.values, spec.cell_measure, p)
        tkm = _cube_lp_all(t, S, p, mags > 0)
        if np.isinf(p):
            star = float((mags * tkm).max())
        else:
            star = float(np.vdot(mags**p, tkm**p) ** (1.0 / p))
        terms_plain.append(2.0 ** (k * n / 2.0) * plain)
        terms_star.append(2.0 ** (k * n / 2.0) * star)
    return _lp(np.array(terms_plain), 1.0, q), _lp(np.array(terms_star), 1.0, q)


# Cells in one group's accumulator in seq_f_norms (1 MB): 16 sets at N = 8192
# in 1D, one at 512^2.  1 << 21 cells, out of cache, measured 25% slower.
_GROUP_CELLS = 1 << 17


def seq_f_norm(coeffs: CoefficientSet, spec: GridSpec, req: NormRequest) -> tuple[float, float]:
    """Triebel-Lizorkin sequence norm, (direct, starred); see seq_f_norms."""
    return seq_f_norms([coeffs], spec, req)[0]


def seq_f_norms(sets: list[CoefficientSet], spec: GridSpec, req: NormRequest) -> list[tuple[float, float]]:
    """Triebel-Lizorkin sequence norms, (direct, starred), of each set.

    direct uses the pointwise weight t_k on each cube; starred replaces it by
    the cube aggregate 2^(k n / p) t_{k,m} (so single-coefficient inputs agree
    exactly).  t_k^q and t_{k,m} are computed once per level for all sets.  A
    set adds only its nonzero cubes into its row of the accumulators (an empty
    cube adds an exact zero); the starred sum, constant on the cubes of the
    finest level held, is painted onto the grid only for the final sum.
    """
    n, p, q = spec.n, req.p, req.q
    if np.isinf(p):
        raise ValueError("f-norms need p < inf")
    by_level: dict[int, list] = {}
    for b, coeffs in enumerate(sets):
        for k, (idx, mags) in _seq_levels(coeffs, spec).items():
            by_level.setdefault(k, []).append((b, idx, mags))
    qq = 1.0 if np.isinf(q) else q
    levels = []
    for k, entries in sorted(by_level.items()):
        bs, idx, mags = zip(*entries)
        rows, idx, mags = np.repeat(bs, [i.size for i in idx]), np.concatenate(idx), np.concatenate(mags)
        M = sets[bs[0]][k].shape[0]  # cubes per axis
        t = req.weights.on_grid(spec, k)
        where = np.bincount(idx, minlength=M**n).reshape((M,) * n) > 0
        star = mags * _starred_cube_lp(t, k, spec.N // M, p, where).ravel()[idx]
        tq = t.values  # t_k^q, or t_k when q = inf
        if not np.isinf(q):
            mags, star, tq = mags**q, star**q, tq**q
        c_plain, c_star = 2.0 ** (k * n * qq / 2.0), 2.0 ** (k * n * qq * (0.5 + 1.0 / p))
        levels.append((rows, np.unravel_index(idx, (M,) * n), _blocks(tq, spec.N // M), mags * c_plain, star * c_star))
    out = []
    per_group, col = max(1, _GROUP_CELLS // spec.N**n), (-1,) + (1,) * n
    Mf = max((len(tq) for _, _, tq, _, _ in levels), default=1)
    for g0 in range(0, len(sets), per_group):
        G = min(per_group, len(sets) - g0)
        accs = (np.zeros((G,) + spec.shape), np.zeros((G,) + (Mf,) * n))  # direct, starred
        for rows, cube, tq, plain, star in levels:
            e = slice(*np.searchsorted(rows, (g0, g0 + G)))
            at = sum(((i[e], slice(None)) for i in cube), (rows[e] - g0,))
            for acc, lvl in zip(accs, (plain[e].reshape(col) * tq[at[1:]], star[e].reshape(col))):
                blk = acc.reshape((G,) + (len(tq), acc.shape[1] // len(tq)) * n)
                blk[at] = np.maximum(blk[at], lvl) if np.isinf(q) else blk[at] + lvl
        sums = []
        for acc in accs:  # lp_norm of the root; numpy's pow is slow at the empty cells' 0
            nz = acc != 0
            np.power(acc, 1.0 / qq, out=acc, where=nz)
            np.power(acc, p, out=acc, where=nz)
            acc = acc if acc.shape[1] == spec.N else _paint(spec, acc)
            sums.append(spec.cell_measure * acc.reshape(G, -1).sum(axis=-1))
        out.extend(zip(*([float(s ** (1.0 / p)) for s in r] for r in sums)))
    return out


def seq_f_infty_norm(coeffs: CoefficientSet, spec: GridSpec, req: NormRequest) -> tuple[float, float]:
    """Carleson-type sequence norm, (direct, starred)."""
    n, q = spec.n, req.q
    if np.isinf(q):
        raise ValueError("f_inf norms need q < inf")
    plain_arrays, star_arrays = {}, {}
    for k in _seq_levels(coeffs, spec):
        t, mags, S = req.weights.on_grid(spec, k), np.abs(coeffs[k]), spec.N // len(coeffs[k])
        tkmq = _starred_cube_lp(t, k, S, q, mags > 0)
        plain_arrays[k] = _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
        star_arrays[k] = _paint(spec, (mags * tkmq) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / q)))
    if not plain_arrays:
        return 0.0, 0.0
    return carleson_sup(plain_arrays, spec, req.family, q), carleson_sup(star_arrays, spec, req.family, q)


# ---------------------------------------------------------------------------
# Grand-maximal Hardy-type norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrandProfile:
    """A Gaussian-derivative test profile, rescaled so its Schwartz seminorm
    sup_{|beta|<=N} sup_x |d^beta g(x)| (1+|x|)^N is at most 1."""

    width: float
    order: int
    scale: float

    def multiplier(self, spec: GridSpec, k: int) -> np.ndarray:
        xi = spec.freq_axis()
        if spec.n == 1:
            z = 2.0 ** (-k) * xi
            rho2 = z**2
        else:
            Z1, Z2 = np.meshgrid(2.0 ** (-k) * xi, 2.0 ** (-k) * xi, indexing="ij")
            z = Z1
            rho2 = Z1**2 + Z2**2
        return self.scale * (1j * z) ** self.order * np.exp(-0.5 * self.width**2 * rho2)


@dataclass(frozen=True)
class TestFunctionDictionary:
    """Test profiles, their Schwartz seminorms, and a cache of the per-level
    multiplier stacks that hardy_grand_norm applies.

    The multipliers depend only on (spec, k), so one dictionary serves any
    number of functions and builds each level's stack once.  The cache holds
    profiles x levels x N^n complex128 values: 8 x 12 x 4096 x 16 B = 6 MB
    for the default 1D dictionary (N = 4096, 12 levels), and
    10 x 7 x 256^2 x 16 B = 73 MB for a 2D N = 256^2 grid over 7 levels.
    """

    profiles: tuple[GrandProfile, ...]
    N_order: int
    seminorms: tuple[float, ...]
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stack(self, spec: GridSpec, k: int) -> np.ndarray:
        """The level-k multipliers of all profiles, shape (profiles, *spec.shape)."""
        key = (spec, k)
        if key not in self._stacks:
            self._stacks[key] = np.stack([prof.multiplier(spec, k) for prof in self.profiles])
        return self._stacks[key]


def _seminorm(spec: GridSpec, width: float, order: int, N: int) -> float:
    """Numerical Schwartz seminorm p_N of the order-d Gaussian derivative."""
    xi = spec.freq_axis()
    if spec.n == 1:
        base = (1j * xi) ** order * np.exp(-0.5 * width**2 * xi**2)
        betas = [(b,) for b in range(N + 1)]
        xim = (xi,)
    else:
        X1, X2 = np.meshgrid(xi, xi, indexing="ij")
        base = (1j * X1) ** order * np.exp(-0.5 * width**2 * (X1**2 + X2**2))
        betas = [(b1, b2) for b1 in range(N + 1) for b2 in range(N + 1) if b1 + b2 <= N]
        xim = (X1, X2)
    from .lpaley import from_spectrum

    poly = (1.0 + spec.radius()) ** N
    best = 0.0
    for beta in betas:
        mult = base.copy()
        for ax, b in enumerate(beta):
            mult = mult * (1j * xim[ax]) ** b
        value = float((np.abs(from_spectrum(spec, mult, real=False)) * poly).max())
        # max(best, nan) is best: a NaN sample must raise, not vanish
        if not np.isfinite(value):
            raise GridError(f"seminorm p_{N} of width {width}, order {order} is not finite")
        best = max(best, value)
    return best


def build_dictionary(spec: GridSpec) -> TestFunctionDictionary:
    """Gaussian-derivative bumps of widths 0.5 and 1 and orders 0..N with
    N = n + 2, normalized in the seminorm p_N."""
    N = spec.n + 2
    profiles, norms = [], []
    for w in (0.5, 1.0):
        for d in range(N + 1):
            pn = _seminorm(spec, w, d, N)
            profiles.append(GrandProfile(w, d, 1.0 / pn))
            norms.append(pn)
    return TestFunctionDictionary(tuple(profiles), N, tuple(norms))


def hardy_grand_norm(
    f: GridFunction,
    ts: WeightSequence,
    p: float,
    dictionary: TestFunctionDictionary,
) -> float:
    """|| sup over levels and dictionary members of t_k |psi_k * f| | L_p ||.

    A lower bound for the grand-maximal norm that can only grow as the
    dictionary is enlarged.  Each level takes one inverse transform over the
    dictionary's cached multiplier stack and one max over profiles; a batched
    ifftn equals the per-profile ones bit for bit, and t > 0 commutes with
    the max, so the value is that of the per-profile loop.
    """
    spec = f.spec
    F = np.fft.fftn(f.values)
    axes = tuple(range(1, spec.n + 1))
    best = np.zeros(spec.shape)
    for k in ts.levels():
        t = ts.on_grid(spec, k).values
        conv = np.fft.ifftn(dictionary.stack(spec, k) * F, axes=axes)
        np.maximum(best, t * np.abs(conv).max(axis=0), out=best)
    return _lp(best, spec.cell_measure, p)


def bmo_norm(f: GridFunction, family: CubeFamily | None = None) -> float:
    """sup over cubes of the mean absolute deviation from the cube mean."""
    spec = f.spec
    if family is None:
        family = CubeFamily(*spec.level_window())
    best = 0.0
    translate_flags = (False, True) if family.translates else (False,)
    axes = _in_cube(spec.n)
    for v in _scan_levels(spec, family):
        S = spec.cells(v)
        for tr in translate_flags:
            blocks = _blocks(f.values, S, S // 2 if tr else 0)
            means = blocks.mean(axis=axes, keepdims=True)
            dev = np.abs(blocks - means).mean(axis=axes)
            best = max(best, float(dev.max()))
    return best
