"""Discrete Hardy-Littlewood maximal operators and vector-valued ratio checks.

Windows are unions of whole cells with dyadic side lengths.  The fast path
builds window sums by doubling (a sparse table, one O(N) pass per size) and
takes the sliding maximum over all window positions containing each sample.
A brute-force scan is kept as the testing oracle.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, GridFunction, GridSpec, VectorSequence, lp_lq_norm
from .weights import WeightSequence


def window_sizes(spec: GridSpec) -> list[int]:
    """Window sides in cells, one per level of the grid's window: 1, 2, 4, ..., N."""
    lo, hi = spec.level_window()
    return [spec.cells(v) for v in range(hi, lo - 1, -1)]


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


def _maximal(a: np.ndarray, spec: GridSpec, sizes: list[int]) -> np.ndarray:
    """Pointwise sup of the window averages of a = |f| over the window sizes."""
    table = window_sum_table(a, sizes)
    out = np.zeros_like(a)
    for w in sizes:
        avg = table[w] / float(w**spec.n)
        np.maximum(out, _containing_max(avg, w), out=out)
    return out


def maximal_fn(f: GridFunction) -> GridFunction:
    """Pointwise sup of window averages of |f| over the windows of every size."""
    return GridFunction(f.spec, _maximal(np.abs(f.values), f.spec, window_sizes(f.spec)))


def maximal_fn_bruteforce(f: GridFunction) -> GridFunction:
    """Direct scan over every window; the testing oracle for maximal_fn."""
    a = np.abs(f.values)
    spec = f.spec
    sizes = window_sizes(spec)
    out = np.zeros_like(a)
    if spec.n == 1:
        ext = np.concatenate([a, a])
        for w in sizes:
            for i in range(spec.N):
                avg = ext[i : i + w].mean()
                for c in range(i, i + w):
                    cc = c % spec.N
                    if avg > out[cc]:
                        out[cc] = avg
        return GridFunction(spec, out)
    ext = np.tile(a, (2, 2))
    for w in sizes:
        for i in range(spec.N):
            for j in range(spec.N):
                avg = ext[i : i + w, j : j + w].mean()
                for c1 in range(i, i + w):
                    for c2 in range(j, j + w):
                        p1, p2 = c1 % spec.N, c2 % spec.N
                        if avg > out[p1, p2]:
                            out[p1, p2] = avg
    return GridFunction(spec, out)


def maximal_sequence(fs: VectorSequence) -> VectorSequence:
    sizes = window_sizes(fs.spec)
    out = np.empty(fs.values.shape)
    for row, k in zip(out, fs.levels()):
        row[...] = _maximal(np.abs(fs[k]), fs.spec, sizes)
    return VectorSequence(fs.spec, fs.k_min, out)


def _check_stack(fs: VectorSequence, Ms: VectorSequence) -> None:
    """Ms must be the maximal stack of fs: same grid, first level and depth."""
    if Ms.spec != fs.spec or Ms.k_min != fs.k_min or len(Ms.values) != len(fs.values):
        raise GridError(
            f"maximal stack on levels {Ms.levels()} of {Ms.spec} does not match "
            f"input levels {fs.levels()} of {fs.spec}"
        )


def _norm_ratio(num: VectorSequence, den: VectorSequence, p: float, q: float) -> float:
    """||num|L_p(l_q)|| / ||den|L_p(l_q)||, where den is the ratio's input."""
    denom = lp_lq_norm(den, p, q)
    if denom == 0:
        raise ZeroDivisionError("zero input norm in maximal ratio")
    return lp_lq_norm(num, p, q) / denom


def fefferman_stein_ratio(fs: VectorSequence, p: float, q: float, Ms: VectorSequence) -> float:
    """||{M f_k}|L_p(l_q)|| / ||{f_k}|L_p(l_q)||; needs 1 < min(p, q).

    Ms is maximal_sequence(fs), passed in so that one stack serves every
    ratio taken on fs."""
    if not 1 < min(p, q):
        raise ValueError(f"need 1 < min(p, q), got p={p}, q={q}")
    _check_stack(fs, Ms)
    return _norm_ratio(Ms, fs, p, q)


def weighted_maximal_ratio(
    fs: VectorSequence,
    ts: WeightSequence,
    p: float,
    Ms: VectorSequence,
    q: float = np.inf,
) -> float:
    """||{t_k M f_k}|L_p(l_q)|| / ||{t_k f_k}|L_p(l_q)|| over the levels of ts,
    with Ms = maximal_sequence(fs)."""
    if p <= 1:
        raise ValueError(f"weighted maximal ratio needs p > 1, got {p}")
    _check_stack(fs, Ms)
    return _norm_ratio(ts.weigh(Ms), ts.weigh(fs), p, q)


def kernel_sum_ratio(
    fs: VectorSequence,
    ts: WeightSequence,
    K: float,
    direction: str,
    p: float,
    q: float,
    Ms: VectorSequence,
) -> float:
    """Ratio for the cross-level kernel sums

        below: g_k = sum_{j <= k} 2^((j-k) K) M f_j
        above: g_k = sum_{j >= k} 2^((j-k) K) M f_j

    truncated to the stored level range, against the weighted input norm,
    both weighted over the levels of ts; Ms = maximal_sequence(fs).
    """
    if direction not in ("below", "above"):
        raise ValueError(f"direction must be 'below' or 'above', got {direction!r}")
    _check_stack(fs, Ms)
    ks = fs.levels()
    gs = np.zeros(Ms.values.shape)
    for g, k in zip(gs, ks):
        for j in range(ks.start, k + 1) if direction == "below" else range(k, ks.stop):
            g += 2.0 ** ((j - k) * K) * Ms[j]
    return _norm_ratio(ts.weigh(VectorSequence(fs.spec, fs.k_min, gs)), ts.weigh(fs), p, q)
