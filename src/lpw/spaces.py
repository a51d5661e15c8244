"""Weighted Besov / Triebel-Lizorkin quasi-norms, their sequence-space
counterparts, BMO, and a grand-maximal Hardy-type norm.

The band norms read f only through its band magnitudes |phi_k * f|, held as
one stack mags = band_magnitudes(f, pair), and act on the weighted stack
wb = ws.weigh(mags) of the bands t_k |phi_k * f|, ws being the weight
sequence; callers taking many norms of one function compute its magnitudes
once.  stack_norm(wb, space, p, q, family) is the one place that picks the
kernel space names: besov_norm, tl_norm or tl_infty_norm.  Each norm takes
the arguments it reads.  Sequence-side norms act on coefficient sets, in both
the direct form (weight evaluated pointwise) and the starred form (weight
aggregated into cube L_p norms t_{k,m}).  Level sums are truncated to the
stored window, which is exact on the band-limited corpus this package works
with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    CubeFamily,
    GridError,
    GridFunction,
    GridSpec,
    VectorSequence,
    lp_lq_norm,
    lp_norm,
)
from .lpaley import CoefficientSet, LPPair, band_decompose
from .weights import WeightSequence


def band_magnitudes(f: GridFunction, pair: LPPair) -> VectorSequence:
    """|phi_k * f| on every level of the pair window, one row per level: the
    stack every band norm and maximal ratio reads."""
    bands = band_decompose(f, pair).values
    return VectorSequence(f.spec, pair.k_min, np.abs(bands, out=bands if bands.dtype == float else None))


def stack_norm(wb: VectorSequence, space: str, p: float, q: float, family: CubeFamily) -> float:
    """The band norm space names, B, F or F_inf, of the weighted stack
    wb = ws.weigh(band_magnitudes(f, pair)): the one place a band norm is
    chosen.  B and F read p and q, F_inf reads q and the cube family of its
    Carleson scan.  A caller taking several norms under one weight sequence
    weighs f once."""
    if space == "B":
        return besov_norm(wb, p, q)
    if space == "F":
        return tl_norm(wb, p, q)
    if space == "F_inf":
        return tl_infty_norm(wb, q, family)
    raise ValueError(f"space {space!r} is not one of the band norms B, F, F_inf")


# The kernels take a weighted stack wb, which is nonnegative, as it is.


def besov_norm(wb: VectorSequence, p: float, q: float) -> float:
    """( sum_k ||t_k (phi_k * f)|L_p||^q )^(1/q), sup over k when q = inf."""
    cell = wb.spec.cell_measure
    return lp_norm(np.array([lp_norm(row, cell, p) for row in wb.values]), 1.0, q)


def tl_norm(wb: VectorSequence, p: float, q: float) -> float:
    """|| ( sum_k t_k^q |phi_k * f|^q )^(1/q) | L_p ||."""
    if np.isinf(p):
        raise ValueError("p = inf is handled by tl_infty_norm")
    return lp_lq_norm(wb.values, wb.spec.cell_measure, p, q)


# ---------------------------------------------------------------------------
# Carleson-type cube scans
# ---------------------------------------------------------------------------


def _blocks(a: np.ndarray, S: int) -> np.ndarray:
    """a cut into cubes of S cells a side, as a view: shape (M, S) in 1D and
    (M, S, M, S) in 2D with M = N / S, so the axes _in_cube(n) run inside
    one cube."""
    return a.reshape((a.shape[0] // S, S) * a.ndim)


def _in_cube(n: int) -> tuple[int, ...]:
    return tuple(range(1, 2 * n, 2))


def _scan_levels(spec: GridSpec, family: CubeFamily) -> range:
    """The family's grid-resolvable levels: the cube levels a scan reads."""
    v_floor, v_cap = spec.level_window()
    levels = range(max(family.v_min, v_floor), min(family.v_max, v_cap) + 1)
    if not levels:
        raise GridError("cube family has no grid-resolvable levels")
    return levels


def _periodic(a: np.ndarray, spec: GridSpec, levels: range) -> np.ndarray:
    """A fresh copy of the (*lead, *grid) array a, continued periodically by
    W, half the coarsest scanned cube side, per grid axis, so every scanned
    cube and its half-side translate is a view (_cube_views)."""
    W = spec.cells(levels.start) // 2
    return np.pad(a, [(0, 0)] * (a.ndim - spec.n) + [(0, W)] * spec.n, mode="wrap")


def _cube_views(buf: np.ndarray, spec: GridSpec, S: int):
    """The level cubes of S cells a side in a wrapped grid array, then those
    shifted by half a side, each as a _blocks view; single cells have no
    half-side shift."""
    for shift in (0, S // 2) if S > 1 else (0,):
        yield _blocks(buf[(slice(shift, shift + spec.N),) * spec.n], S)


def _cube_sums(blocks: np.ndarray) -> np.ndarray:
    """Per cube of a _blocks view, of any strides, the sum of its cells bit
    for bit as blocks.sum(axis=_in_cube(n)) adds them.  numpy sums each run
    of S cells along the last axis, then adds the runs in order, and adds a
    run under 8 cells one cell after another; such short runs are summed
    here with one strided add per cell instead of one reduction call per
    run."""
    if blocks.shape[-1] >= 8:
        return blocks.sum(axis=_in_cube(blocks.ndim // 2))
    for ax in _in_cube(blocks.ndim // 2)[::-1]:
        first, *rest = np.moveaxis(blocks, ax, 0)
        blocks = first + rest[0] if rest else first
        for c in rest[1:]:
            blocks += c
    return blocks


def carleson_sup(G: VectorSequence, family: CubeFamily, q: float, power: float) -> float:
    """sup over cubes P of ( mean_P sum_{k >= level(P)} G_k^power )^(1/q).

    G is the (levels, *grid) stack of the nonnegative integrands G_k, raised
    to power in place in the scan's wrapped copy; the level sum is truncated
    below at G's first level and the cube levels are clamped to the
    grid-resolvable window.  A stack level below the first cube level the
    scan reads, the family's or the grid's coarsest -log2(2R), is refused:
    no cube would read it.  The mean of a cube is its sum over S^n cells,
    and the sup divides the largest sum once, which is exact because
    division is monotone.
    """
    spec, ks = G.spec, G.levels()
    levels = _scan_levels(spec, family)
    if ks.start < levels.start:
        raise GridError(f"stack level {ks.start} lies below level {levels.start}, the first cube level the scan "
                        "reads, so no cube reads it")
    # suffix[i] = G_{k_min + i} + ... + G_{k_max}, summed from the top level
    # down; a wrapped cell takes the same adds as the cell it repeats
    suffix = _periodic(G.values, spec, levels)
    if power != 1.0:
        suffix **= power
    for i in range(len(suffix) - 2, -1, -1):
        suffix[i] += suffix[i + 1]
    best = 0.0
    # a level-v cube takes the sum over k >= v, from the first stored level k >= v
    for v in levels:
        if v >= ks.stop:
            break
        S = spec.cells(v)
        for blocks in _cube_views(suffix[max(v, ks.start) - ks.start], spec, S):
            best = max(best, float(_cube_sums(blocks).max()) / S**spec.n)
    return best ** (1.0 / q)


def tl_infty_norm(wb: VectorSequence, q: float, family: CubeFamily) -> float:
    """Carleson-type norm: sup over the family's cubes P of the cube-averaged tail
    ( (1/|P|) int_P sum_{k >= -log2 l(P)} t_k^q |phi_k * f|^q )^(1/q)."""
    if not 0 < q < np.inf:
        raise ValueError(f"F_inf norms need 0 < q < inf, got q={q}")
    return carleson_sup(wb, family, q, q)


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


def cube_lp(t: GridFunction, S: int, p: float, where: np.ndarray) -> np.ndarray:
    """The non-normalized cube norm ||t|L_p(Q)|| by the midpoint rule, for
    each cube Q of S cells a side where `where` holds, 0 elsewhere: the cube
    at index i per axis covers cells [i S, (i + 1) S).  Each cube is summed
    as lp_norm sums its S^n cells, in the same order."""
    n = t.spec.n
    b = _blocks(np.abs(t.values), S)
    # one row of S^n contiguous cells per cube, which is how lp_norm sums
    b = b.transpose(*range(0, 2 * n, 2), *_in_cube(n)).reshape(b.shape[::2] + (-1,))[where]
    out = np.zeros(where.shape)
    if np.isinf(p):
        out[where] = b.max(axis=-1)
    else:
        sums = t.spec.cell_measure * (b**p).sum(axis=-1)
        # numpy's array power can round apart from the scalar power lp_norm takes
        out[where] = [s ** (1.0 / p) for s in sums]
    return out


def _starred_cube_lp(t: GridFunction, k: int, S: int, p: float, where: np.ndarray) -> np.ndarray:
    """t_{k,m} for the starred f-norms, whose factor 2^(k n / p) = |Q|^(-1/p)
    must be |Q cap domain|^(-1/p) for lone coefficients to agree exactly.

    Only the coarsest level k = -log2(2R) has cubes clipped to half the
    domain; there t_{k,m} takes the measure ratio, every other level is
    cube_lp as it is.
    """
    tkm = cube_lp(t, S, p, where)
    side = S * t.spec.h
    if side < 2.0 ** (-k):
        tkm = tkm * (2.0 ** (-k) / side) ** (t.spec.n / p)
    return tkm


def _seq_levels(coeffs: CoefficientSet, spec: GridSpec) -> dict[int, tuple[int, np.ndarray, np.ndarray]]:
    """{k: (cube side S in cells, *coeffs.support[k])}, once every stored
    level is checked to fit the grid (GridSpec.coefficient_cells)."""
    coeffs.check_domain(spec)
    sides = {k: spec.coefficient_cells(k) for k in coeffs.levels()}
    return {k: (sides[k], *at) for k, at in coeffs.support.items()}


def seq_b_norm(coeffs: CoefficientSet, ws: WeightSequence, spec: GridSpec, p: float, q: float) -> tuple[float, float]:
    """Besov sequence norm, (direct, starred), under the weights ws on the grid spec.

    direct:  ( sum_k 2^(k n q / 2) || sum_m t_k lambda chi |L_p||^q )^(1/q)
    starred: ( sum_k 2^(k n q / 2) ( sum_m |lambda|^p t_{k,m}^p )^(q/p) )^(1/q)
    """
    n = spec.n
    terms_plain, terms_star = [], []
    for k, (S, _, _) in _seq_levels(coeffs, spec).items():
        t, mags = ws.on_grid(spec, k), np.abs(coeffs[k])
        plain = lp_norm(_paint(spec, mags) * t.values, spec.cell_measure, p)
        tkm = cube_lp(t, S, p, mags > 0)
        if np.isinf(p):
            star = float((mags * tkm).max())
        else:
            star = float(np.vdot(mags**p, tkm**p) ** (1.0 / p))
        terms_plain.append(2.0 ** (k * n / 2.0) * plain)
        terms_star.append(2.0 ** (k * n / 2.0) * star)
    return lp_norm(np.array(terms_plain), 1.0, q), lp_norm(np.array(terms_star), 1.0, q)


# Cells in one group's accumulator in seq_f_norms (1 MB): 16 sets at N = 8192
# in 1D, one at 512^2.  1 << 21 cells, out of cache, measured 25% slower.
_GROUP_CELLS = 1 << 17


def seq_f_norms(sets: list[CoefficientSet], ws: WeightSequence, spec: GridSpec, p: float,
                q: float) -> list[tuple[float, float]]:
    """Triebel-Lizorkin sequence norms, (direct, starred), of each set, under
    the weights ws on the grid spec.

    direct uses the pointwise weight t_k on each cube; starred replaces it by
    the cube aggregate 2^(k n / p) t_{k,m} (so single-coefficient inputs agree
    exactly).  t_k^q and t_{k,m} are computed once per level for all sets.  A
    set adds only its nonzero cubes into its row of the accumulators (an empty
    cube adds an exact zero); the starred sum, constant on the cubes of the
    finest level held, is painted onto the grid only for the final sum.
    """
    n = spec.n
    if not (0 < p < np.inf and q > 0):
        raise ValueError(f"f-norms need 0 < p < inf and q > 0, got p={p}, q={q}")
    by_level: dict[tuple[int, int], list] = {}  # (k, S) -> entries
    for b, coeffs in enumerate(sets):
        for k, (S, idx, mags) in _seq_levels(coeffs, spec).items():
            by_level.setdefault((k, S), []).append((b, idx, mags))
    qq = 1.0 if np.isinf(q) else q
    levels = []
    for (k, S), entries in sorted(by_level.items()):
        bs, idx, mags = zip(*entries)
        rows, idx, mags = np.repeat(bs, [i.size for i in idx]), np.concatenate(idx), np.concatenate(mags)
        M = sets[bs[0]][k].shape[0]  # cubes per axis
        t = ws.on_grid(spec, k)
        where = np.bincount(idx, minlength=M**n).reshape((M,) * n) > 0
        star = mags * _starred_cube_lp(t, k, S, p, where).ravel()[idx]
        tq = t.values  # t_k^q, or t_k when q = inf
        if not np.isinf(q):
            mags, star, tq = mags**q, star**q, tq**q
        c_plain, c_star = 2.0 ** (k * n * qq / 2.0), 2.0 ** (k * n * qq * (0.5 + 1.0 / p))
        levels.append((rows, np.unravel_index(idx, (M,) * n), _blocks(tq, S), mags * c_plain, star * c_star))
    out = []
    per_group, col = max(1, _GROUP_CELLS // spec.N**n), (-1,) + (1,) * n
    Mf = max((len(tq) for _, _, tq, _, _ in levels), default=1)
    # one pair of accumulators (direct, starred), zeroed per group: a fresh pair
    # past the allocator's mmap threshold is page-faulted in anew each group
    bufs = (np.empty((per_group,) + spec.shape), np.empty((per_group,) + (Mf,) * n))
    for g0 in range(0, len(sets), per_group):
        G = min(per_group, len(sets) - g0)
        accs = tuple(buf[:G] for buf in bufs)
        for acc in accs:
            acc.fill(0.0)
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


def seq_f_infty_norm(coeffs: CoefficientSet, ws: WeightSequence, spec: GridSpec, q: float,
                     family: CubeFamily) -> tuple[float, float]:
    """Carleson-type sequence norm, (direct, starred), under the weights ws
    on the grid spec, scanned over the cubes of family."""
    n = spec.n
    if not 0 < q < np.inf:
        raise ValueError(f"f_inf norms need 0 < q < inf, got q={q}")
    levels = _seq_levels(coeffs, spec)
    if not levels:
        return 0.0, 0.0
    # a level without coefficients is a zero row, whose exact zeros leave every suffix sum as it is
    plain, star = (VectorSequence(spec, coeffs.k_min, np.zeros((len(coeffs.levels()),) + spec.shape)) for _ in range(2))
    for k, (S, _, _) in levels.items():
        t, mags = ws.on_grid(spec, k), np.abs(coeffs[k])
        tkmq = _starred_cube_lp(t, k, S, q, mags > 0)
        plain[k][...] = _paint(spec, mags**q) * 2.0 ** (k * n * q / 2.0) * t.values**q
        star[k][...] = _paint(spec, (mags * tkmq) ** q * 2.0 ** (k * n * q * (0.5 + 1.0 / q)))
    return carleson_sup(plain, family, q, 1.0), carleson_sup(star, family, q, 1.0)


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
        zs = np.meshgrid(*[2.0 ** (-k) * spec.freq_axis()] * spec.n, indexing="ij")
        rho2 = sum(z**2 for z in zs)  # 0 + a is a
        return self.scale * (1j * zs[0]) ** self.order * np.exp(-0.5 * self.width**2 * rho2)


@dataclass(frozen=True)
class TestFunctionDictionary:
    """Test profiles and a cache of the per-level multiplier stacks that
    hardy_grand_norm applies.

    The multipliers depend only on (spec, k), so one dictionary serves any
    number of functions and builds each level's stack once.  The cache holds
    profiles x levels x N^n complex128 values: 8 x 12 x 4096 x 16 B = 6 MB
    for the default 1D dictionary (N = 4096, 12 levels), and
    10 x 7 x 256^2 x 16 B = 73 MB for a 2D N = 256^2 grid over 7 levels.
    """

    profiles: tuple[GrandProfile, ...]
    _stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def stack(self, spec: GridSpec, k: int) -> np.ndarray:
        """The level-k multipliers of all profiles, shape (profiles, *spec.shape)."""
        key = (spec, k)
        if key not in self._stacks:
            self._stacks[key] = np.stack([prof.multiplier(spec, k) for prof in self.profiles])
        return self._stacks[key]


def _seminorm(spec: GridSpec, width: float, order: int, N: int) -> float:
    """Numerical Schwartz seminorm p_N of the order-d Gaussian derivative."""
    base = GrandProfile(width, order, 1.0).multiplier(spec, 0)
    xim = np.meshgrid(*[spec.freq_axis()] * spec.n, indexing="ij")
    from .lpaley import from_spectrum

    poly = (1.0 + spec.radius()) ** N
    best = 0.0
    for beta in itertools.product(range(N + 1), repeat=spec.n):
        if sum(beta) > N:
            continue
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
    return TestFunctionDictionary(tuple(GrandProfile(w, d, 1.0 / _seminorm(spec, w, d, N))
                                        for w in (0.5, 1.0) for d in range(N + 1)))


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
    return lp_norm(best, spec.cell_measure, p)


def bmo_norm(f: GridFunction, family: CubeFamily) -> float:
    """sup over the family's cubes of the mean absolute deviation from the cube mean."""
    spec = f.spec
    levels = _scan_levels(spec, family)
    buf = _periodic(f.values, spec, levels)
    best = 0.0
    for v in levels:
        S = spec.cells(v)
        for blocks in _cube_views(buf, spec, S):
            mean = np.expand_dims(_cube_sums(blocks) / S**spec.n, _in_cube(spec.n))
            best = max(best, float(_cube_sums(np.abs(blocks - mean)).max()) / S**spec.n)
    return best
