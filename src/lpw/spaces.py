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
    cube_samples,
    lp_lq_norm,
    lp_norm,
    weighted_lp_norm,
)
from .lpaley import BandDecomposition, CoefficientSet, LPPair, band_decompose
from .weights import WeightSequence


@dataclass(frozen=True)
class NormRequest:
    """Parameters shared by the norm operations.

    space is one of B, F, F_inf, b, f, f_inf, Lp, Hardy, BMO; q may be inf
    where the definitions allow it (not in F_inf / f_inf).
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
    bands = _bands(f, req.pair)
    out = []
    for k in req.levels():
        t = req.weights.on_grid(bands.spec, k)
        out.append(GridFunction(bands.spec, t.values * np.abs(bands[k].values)))
    return VectorSequence(req.weights.k_min, tuple(out))


def besov_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """( sum_k ||t_k (phi_k * f)|L_p||^q )^(1/q), sup over k when q = inf;
    f is a GridFunction or its BandDecomposition on req.pair."""
    terms = np.array([lp_norm(g, req.p) for g in weighted_bands(f, req).entries])
    if np.isinf(req.q):
        return float(terms.max())
    return float((terms**req.q).sum() ** (1.0 / req.q))


def tl_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """|| ( sum_k t_k^q |phi_k * f|^q )^(1/q) | L_p ||; f is a GridFunction
    or its BandDecomposition on req.pair."""
    if np.isinf(req.p):
        raise ValueError("p = inf is handled by tl_infty_norm")
    return lp_lq_norm(weighted_bands(f, req), req.p, req.q)


def space_norm(f: GridFunction | BandDecomposition, req: NormRequest) -> float:
    """The band norm req.space names: B, F or F_inf."""
    if req.space == "B":
        return besov_norm(f, req)
    if req.space == "F":
        return tl_norm(f, req)
    if req.space == "F_inf":
        return tl_infty_norm(f, req)
    raise ValueError(f"space {req.space!r} is not one of the band norms B, F, F_inf")


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
    S = int(round(2.0 ** (-v) / spec.h))
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
    if np.isinf(req.q):
        raise ValueError("F_inf norms need q < inf")
    family = req.family if req.family is not None else CubeFamily(req.pair.k_min, req.pair.k_max)
    wb = weighted_bands(f, req)
    arrays = {k: wb[k].values ** req.q for k in wb.levels()}
    return carleson_sup(arrays, wb.spec, family, req.q)


# ---------------------------------------------------------------------------
# Sequence-space norms
# ---------------------------------------------------------------------------


def _paint(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """sum_m values[m] chi_{k,m}: each level-k cube's value on all its cells,
    values being one level's array of cube values."""
    out = np.empty(spec.shape)
    M = values.shape[0]
    _blocks(out, spec.N // M)[...] = values.reshape((M, 1) * spec.n)
    return out


def cube_lp(t: GridFunction, Q: DyadicCube, p: float) -> float:
    """Non-normalized cube norm ||t|L_p(Q)|| by the midpoint rule."""
    vals = np.abs(cube_samples(t, Q))
    if np.isinf(p):
        return float(vals.max())
    return float((t.spec.cell_measure * (vals**p).sum()) ** (1.0 / p))


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


def _seq_levels(coeffs: CoefficientSet, spec: GridSpec):
    """(k, |lambda_k|, cells per level-k cube side) for each stored level
    that holds a nonzero coefficient."""
    coeffs.check_domain(spec)
    for k, lam in zip(coeffs.levels(), coeffs.arrays):
        if 2.0 ** (-k) < spec.h:
            raise ValueError(f"level {k} cubes are finer than the grid spacing h={spec.h}")
        if lam.any():
            yield k, np.abs(lam), spec.N // lam.shape[0]


def seq_b_norm(coeffs: CoefficientSet, spec: GridSpec, req: NormRequest) -> tuple[float, float]:
    """Besov sequence norm, (direct, starred).

    direct:  ( sum_k 2^(k n q / 2) || sum_m t_k lambda chi |L_p||^q )^(1/q)
    starred: ( sum_k 2^(k n q / 2) ( sum_m |lambda|^p t_{k,m}^p )^(q/p) )^(1/q)
    """
    n, p, q = spec.n, req.p, req.q
    terms_plain, terms_star = [], []
    for k, mags, S in _seq_levels(coeffs, spec):
        t = req.weights.on_grid(spec, k)
        plain = weighted_lp_norm(GridFunction(spec, _paint(spec, mags)), t, p)
        tkm = _cube_lp_all(t, S, p, mags > 0)
        if np.isinf(p):
            star = float((mags * tkm).max())
        else:
            star = float(np.vdot(mags**p, tkm**p) ** (1.0 / p))
        terms_plain.append(2.0 ** (k * n / 2.0) * plain)
        terms_star.append(2.0 ** (k * n / 2.0) * star)
    return _lq(terms_plain, q), _lq(terms_star, q)


def _lq(terms, q: float) -> float:
    arr = np.array(terms, dtype=float)
    if arr.size == 0:
        return 0.0
    if np.isinf(q):
        return float(arr.max())
    return float((arr**q).sum() ** (1.0 / q))


def seq_f_norm(coeffs: CoefficientSet, spec: GridSpec, req: NormRequest) -> tuple[float, float]:
    """Triebel-Lizorkin sequence norm, (direct, starred).

    direct uses the pointwise weight t_k on each cube; starred replaces it by
    the cube aggregate 2^(k n / p) t_{k,m} (so single-coefficient inputs agree
    exactly).
    """
    n, p, q = spec.n, req.p, req.q
    if np.isinf(p):
        raise ValueError("f-norms need p < inf")
    plain_acc = np.zeros(spec.shape)
    star_acc = np.zeros(spec.shape)
    qq = 1.0 if np.isinf(q) else q
    for k, mags, S in _seq_levels(coeffs, spec):
        t = req.weights.on_grid(spec, k)
        tkm = _starred_cube_lp(t, k, S, p, mags > 0)
        if np.isinf(q):
            lvl_plain = _paint(spec, mags) * 2.0 ** (k * n / 2.0) * t.values
            lvl_star = _paint(spec, mags * tkm * 2.0 ** (k * n * (0.5 + 1.0 / p)))
            plain_acc = np.maximum(plain_acc, lvl_plain)
            star_acc = np.maximum(star_acc, lvl_star)
        else:
            plain_acc += _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
            star_acc += _paint(spec, (mags * tkm) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / p)))
    plain = lp_norm(GridFunction(spec, plain_acc ** (1.0 / qq)), p)
    star = lp_norm(GridFunction(spec, star_acc ** (1.0 / qq)), p)
    return plain, star


def seq_f_infty_norm(coeffs: CoefficientSet, spec: GridSpec, req: NormRequest) -> tuple[float, float]:
    """Carleson-type sequence norm, (direct, starred)."""
    n, q = spec.n, req.q
    if np.isinf(q):
        raise ValueError("f_inf norms need q < inf")
    family = req.family if req.family is not None else CubeFamily(req.pair.k_min, req.pair.k_max)
    plain_arrays: dict[int, np.ndarray] = {}
    star_arrays: dict[int, np.ndarray] = {}
    for k, mags, S in _seq_levels(coeffs, spec):
        t = req.weights.on_grid(spec, k)
        tkmq = _starred_cube_lp(t, k, S, q, mags > 0)
        plain_arrays[k] = _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
        star_arrays[k] = _paint(spec, (mags * tkmq) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / q)))
    if not plain_arrays:
        return 0.0, 0.0
    plain = carleson_sup(plain_arrays, spec, family, q)
    star = carleson_sup(star_arrays, spec, family, q)
    return plain, star


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
        g = from_spectrum(spec, mult, real=False).values
        best = max(best, float((np.abs(g) * poly).max()))
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
    return lp_norm(GridFunction(spec, best), p)


def bmo_norm(f: GridFunction, family: CubeFamily | None = None) -> float:
    """sup over cubes of the mean absolute deviation from the cube mean."""
    spec = f.spec
    if family is None:
        family = CubeFamily(*spec.level_window())
    best = 0.0
    translate_flags = (False, True) if family.translates else (False,)
    axes = _in_cube(spec.n)
    for v in _scan_levels(spec, family):
        S = int(round(2.0 ** (-v) / spec.h))
        for tr in translate_flags:
            blocks = _blocks(f.values, S, S // 2 if tr else 0)
            means = blocks.mean(axis=axes, keepdims=True)
            dev = np.abs(blocks - means).mean(axis=axes)
            best = max(best, float(dev.max()))
    return best
