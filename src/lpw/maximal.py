"""Discrete Hardy-Littlewood maximal operators and vector-valued ratio checks.

Windows are unions of whole cells with dyadic side lengths.  The fast path
builds window sums by doubling (a sparse table, one O(N) pass per size) and
takes the sliding maximum over all window positions containing each sample;
with `include_translates` off only lattice-aligned windows enter the sup,
which gives the plain dyadic maximal operator.  A brute-force scan is kept
as the testing oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridError, GridFunction, GridSpec, VectorSequence, lp_lq_norm
from .weights import WeightSequence, same_constant_check, FamilyNodes


@dataclass(frozen=True)
class MaximalConfig:
    """Window levels v (side 2^-v) entering the sup; all-position windows
    when include_translates is set, lattice-aligned blocks otherwise."""

    v_min: int
    v_max: int
    include_translates: bool = True

    def sizes(self, spec: GridSpec) -> list[int]:
        sizes = []
        for v in range(self.v_min, self.v_max + 1):
            w = 2.0 ** (-v) / spec.h
            if w < 1 or w != int(w):
                raise GridError(f"window level {v} is not a whole number of cells")
            if int(w) > spec.N:
                raise GridError(f"window level {v} exceeds the domain")
            sizes.append(int(w))
        return sorted(sizes)

    @classmethod
    def full(cls, spec: GridSpec, include_translates: bool = True) -> "MaximalConfig":
        return cls(*spec.level_window(), include_translates)


def window_sum_table(values: np.ndarray, sizes: list[int]) -> dict[int, np.ndarray]:
    """Periodic window sums by doubling: table[w][i] = sum over cells [i, i+w).

    Axis-separable in 2D (square windows).  Doubling costs one roll+add per
    octave instead of a fresh O(N w) scan per size.
    """
    table = {}
    cur = values.copy()
    w = 1
    max_w = max(sizes)
    while True:
        if w in sizes or w == max_w:
            table[w] = cur.copy()
        if w >= max_w:
            break
        for ax in range(values.ndim):
            cur = cur + np.roll(cur, -w, axis=ax)
        w *= 2
    return {w: table[w] for w in sizes}


def _containing_max(avg: np.ndarray, w: int) -> np.ndarray:
    """max over window starts i in (c-w, c] of avg[i], per cell c, periodic.

    scipy's origin shifts the window right for negative values: the window at
    output c is [c - w//2 - origin, c + (w-1)//2 - origin], so origin
    w - 1 - w//2 pins it to [c - w + 1, c].  scipy is imported here, on
    first use, so processes that never take a maximal function do not pay
    its import.
    """
    if w == 1:
        return avg
    from scipy import ndimage

    origin = w - 1 - w // 2
    if avg.ndim == 1:
        return ndimage.maximum_filter1d(avg, size=w, mode="wrap", origin=origin)
    return ndimage.maximum_filter(avg, size=(w,) * avg.ndim, mode="wrap", origin=origin)


def _aligned_value(avg: np.ndarray, w: int) -> np.ndarray:
    """Value of the aligned window containing each cell (block broadcast)."""
    if w == 1:
        return avg
    out = avg
    for ax in range(avg.ndim):
        idx = (np.arange(out.shape[ax]) // w) * w
        out = np.take(out, idx, axis=ax)
    return out


def maximal_fn(f: GridFunction, cfg: MaximalConfig) -> GridFunction:
    """Pointwise sup of window averages of |f| over the configured windows."""
    a = np.abs(f.values)
    sizes = cfg.sizes(f.spec)
    table = window_sum_table(a, sizes)
    out = np.zeros_like(a)
    for w in sizes:
        avg = table[w] / float(w**f.spec.n)
        val = _containing_max(avg, w) if cfg.include_translates else _aligned_value(avg, w)
        np.maximum(out, val, out=out)
    return GridFunction(f.spec, out)


def maximal_fn_bruteforce(f: GridFunction, cfg: MaximalConfig) -> GridFunction:
    """Direct scan over every window; the testing oracle for maximal_fn."""
    a = np.abs(f.values)
    spec = f.spec
    sizes = cfg.sizes(spec)
    out = np.zeros_like(a)
    if spec.n == 1:
        ext = np.concatenate([a, a])
        for w in sizes:
            starts = range(spec.N) if cfg.include_translates else range(0, spec.N, w)
            for i in starts:
                avg = ext[i : i + w].mean()
                for c in range(i, i + w):
                    cc = c % spec.N
                    if avg > out[cc]:
                        out[cc] = avg
        return GridFunction(spec, out)
    ext = np.tile(a, (2, 2))
    for w in sizes:
        starts = range(spec.N) if cfg.include_translates else range(0, spec.N, w)
        for i in starts:
            for j in starts:
                avg = ext[i : i + w, j : j + w].mean()
                for c1 in range(i, i + w):
                    for c2 in range(j, j + w):
                        p1, p2 = c1 % spec.N, c2 % spec.N
                        if avg > out[p1, p2]:
                            out[p1, p2] = avg
    return GridFunction(spec, out)


def maximal_sigma(f: GridFunction, sigma: float, cfg: MaximalConfig) -> GridFunction:
    """(M(|f|^sigma))^(1/sigma)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    g = GridFunction(f.spec, np.abs(f.values) ** sigma)
    return GridFunction(f.spec, maximal_fn(g, cfg).values ** (1.0 / sigma))


def maximal_sequence(fs: VectorSequence, cfg: MaximalConfig, sigma: float = 1.0) -> VectorSequence:
    op = (lambda g: maximal_fn(g, cfg)) if sigma == 1.0 else (lambda g: maximal_sigma(g, sigma, cfg))
    return VectorSequence(fs.k_min, tuple(op(g) for g in fs.entries))


@dataclass(frozen=True)
class RatioResult:
    """A measured operator-norm ratio with any attached warnings."""

    ratio: float
    numerator: float
    denominator: float
    params: dict
    warnings: tuple[str, ...] = ()

    def __float__(self):
        return self.ratio


def fefferman_stein_ratio(
    fs: VectorSequence, p: float, q: float, sigma: float, cfg: MaximalConfig
) -> float:
    """||{M_sigma f_k}|L_p(l_q)|| / ||{f_k}|L_p(l_q)||; needs 0 < sigma < min(p, q)."""
    if not 0 < sigma < min(p, q):
        raise ValueError(f"need 0 < sigma < min(p, q), got sigma={sigma}, p={p}, q={q}")
    denom = lp_lq_norm(fs, p, q)
    if denom == 0:
        raise ZeroDivisionError("zero input norm in maximal ratio")
    num = lp_lq_norm(maximal_sequence(fs, cfg, sigma), p, q)
    return num / denom


def _weighted(fs: VectorSequence, ts: WeightSequence) -> VectorSequence:
    out = []
    for k, g in zip(fs.levels(), fs.entries):
        t = ts.on_grid(fs.spec, k)
        out.append(GridFunction(fs.spec, t.values * np.abs(g.values)))
    return VectorSequence(fs.k_min, tuple(out))


def weighted_maximal_ratio(
    fs: VectorSequence,
    ts: WeightSequence,
    p: float,
    cfg: MaximalConfig,
    q: float = np.inf,
    theta: float | None = None,
    nodes: FamilyNodes | None = None,
) -> RatioResult:
    """||{t_k M f_k}|L_p(l_q)|| / ||{t_k f_k}|L_p(l_q)||.

    When quadrature nodes are supplied the per-level Muckenhoupt constants of
    t_k^p are compared first; disagreement is attached as a warning rather
    than an error, since the ratio itself is still informative.
    """
    if p <= 1:
        raise ValueError(f"weighted maximal ratio needs p > 1, got {p}")
    warnings = []
    if nodes is not None:
        th = theta if theta is not None else (1.0 + p) / 2.0
        ok, consts = same_constant_check(ts, p, th, nodes)
        if not ok:
            lo, hi = min(consts.values()), max(consts.values())
            warnings.append(
                f"level constants differ: min {lo:.4g}, max {hi:.4g} (exponent p/theta={p/th:g})"
            )
    denom = lp_lq_norm(_weighted(fs, ts), p, q)
    if denom == 0:
        raise ZeroDivisionError("zero weighted input norm")
    num = lp_lq_norm(_weighted(maximal_sequence(fs, cfg), ts), p, q)
    return RatioResult(
        num / denom, num, denom, {"p": p, "q": q, "weight": ts.spec.key()}, tuple(warnings)
    )


def kernel_sum_ratio(
    fs: VectorSequence,
    ts: WeightSequence,
    K: float,
    v: int,
    direction: str,
    p: float,
    q: float,
    cfg: MaximalConfig,
) -> RatioResult:
    """Ratio for the cross-level kernel sums

        below: g_k = sum_{j <= k+v} 2^((j-k) K) M f_j
        above: g_k = sum_{j >= k+v} 2^((j-k) K) M f_j

    truncated to the stored level range, against the weighted input norm.
    """
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    Ms = maximal_sequence(fs, cfg)
    gs = []
    for k in fs.levels():
        acc = np.zeros(fs.spec.shape)
        if direction == "below":
            js = range(fs.k_min, min(k + v, fs.k_max) + 1)
        else:
            js = range(max(k + v, fs.k_min), fs.k_max + 1)
        for j in js:
            acc = acc + 2.0 ** ((j - k) * K) * Ms[j].values
        gs.append(GridFunction(fs.spec, acc))
    denom = lp_lq_norm(_weighted(fs, ts), p, q)
    if denom == 0:
        raise ZeroDivisionError("zero weighted input norm")
    num = lp_lq_norm(_weighted(VectorSequence(fs.k_min, tuple(gs)), ts), p, q)
    return RatioResult(
        num / denom,
        num,
        denom,
        {"K": K, "v": v, "direction": direction, "p": p, "q": q, "weight": ts.spec.key(),
         "truncation": f"j restricted to [{fs.k_min}, {fs.k_max}]"},
    )
