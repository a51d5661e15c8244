"""Discrete Hardy-Littlewood maximal operators and vector-valued ratio checks.

Windows are unions of whole cells with dyadic sides 2^j.  Window sums of
every size come by doubling, giving A_j, the size-2^j averages.  Let
op_j X = max(X, X shifted by 2^j), one shift per axis in 2D: op_0 ... op_{j-1}
takes the max over all 2^j window starts, so it maps A_j to its max over the
windows containing each cell.  Each op_j distributes over max, so the sup
over the sizes is the Horner fold

    M = max(A_0, op_0(max(A_1, op_1(... op_{L-1}(A_L))))),

one shifted np.maximum per octave and axis for all sizes at once.  It takes
the max over exactly the averages a per-size sliding maximum takes, and max
is exact, so the output is bit-identical to any exact sliding maximum.  A
brute-force scan is kept as the testing oracle.
"""

from __future__ import annotations

import numpy as np

from .grid import GridError, GridFunction, GridSpec, VectorSequence, lp_lq_norm
from .weights import WeightSequence

# cells per fold block: a whole stack's table outgrows the cache and is paged in afresh
# (maximal on fixtures/default.json: 0.40 s in blocks, 0.62 s whole, 2-core Xeon)
_BLOCK_CELLS = 1 << 13


def window_sizes(spec: GridSpec) -> list[int]:
    """Window sides in cells, one per level of the grid's window: 1, 2, 4, ..., N."""
    lo, hi = spec.level_window()
    return [spec.cells(v) for v in range(hi, lo - 1, -1)]


def window_sum_table(values: np.ndarray, sizes: list[int], n: int | None = None) -> dict[int, np.ndarray]:
    """Periodic window sums by doubling, one roll+add per octave and axis, over
    the trailing n axes (all by default; leading axes such as a level stack
    ride along): table[w][..., i] = sum over cells [i, i+w), square in 2D."""
    axes = range(-(values.ndim if n is None else n), 0)
    table, cur, w = {}, values.copy(), 1
    while True:
        if w in sizes:
            table[w] = cur
        if w >= max(sizes):
            return table
        for ax in axes:
            cur = _with_roll(np.add, cur, -w, ax)
        w *= 2


def _with_roll(op, x: np.ndarray, d: int, ax: int) -> np.ndarray:
    """op(x, np.roll(x, d, axis=ax)) into a new array without the rolled
    copy; ax counts from the end (-1 is the last axis)."""
    out, n, tail = np.empty_like(x), x.shape[ax], (slice(None),) * (-1 - ax)
    d %= n
    for dst, src in ((slice(d, None), slice(None, n - d)), (slice(None, d), slice(n - d, None))):
        op(x[(..., dst, *tail)], x[(..., src, *tail)], out=out[(..., dst, *tail)])
    return out


def _fold(a: np.ndarray, n: int, sizes: list[int]) -> np.ndarray:
    """The module docstring's fold on a (rows, *grid) block a = |f|: per octave
    from the widest, op_j on the trailing n axes, then the max with A_j."""
    table = window_sum_table(a, sizes, n)
    out = None
    for j in range(max(sizes).bit_length() - 1, -1, -1):
        w = 1 << j
        for ax in range(-n, 0) if out is not None else ():
            out = _with_roll(np.maximum, out, w, ax)
        if w in table:
            avg = table.pop(w)
            avg /= float(w**n)
            out = avg if out is None else np.maximum(avg, out, out=avg)
    return out


def maximal_fn(fs: VectorSequence) -> VectorSequence:
    """Pointwise sup of the window averages of each level of the magnitude
    stack fs = {|f_k|} over the windows of every size: one fold, in blocks
    of rows."""
    spec, sizes = fs.spec, window_sizes(fs.spec)
    step = max(1, _BLOCK_CELLS // fs.values[0].size)
    folds = [_fold(fs.values[i : i + step], spec.n, sizes) for i in range(0, len(fs.values), step)]
    return VectorSequence(spec, fs.k_min, np.concatenate(folds))


def maximal_fn_bruteforce(f: GridFunction) -> GridFunction:
    """Direct scan over every window; the testing oracle for maximal_fn: each
    window's mean raises every cell the window contains."""
    a, spec = np.abs(f.values), f.spec
    ext = np.tile(a, (2,) * spec.n)
    out = np.zeros_like(a)
    for w in window_sizes(spec):
        for corner in np.ndindex(*spec.shape):
            avg = ext[tuple(slice(i, i + w) for i in corner)].mean()
            cells = np.ix_(*(np.arange(i, i + w) % spec.N for i in corner))
            out[cells] = np.maximum(out[cells], avg)
    return GridFunction(spec, out)


def _check_stack(fs: VectorSequence, Ms: VectorSequence) -> None:
    """Ms must be the maximal stack of fs: same grid, first level and depth."""
    if Ms.spec != fs.spec or Ms.k_min != fs.k_min or len(Ms.values) != len(fs.values):
        raise GridError(
            f"maximal stack on levels {Ms.levels()} of {Ms.spec} does not match "
            f"input levels {fs.levels()} of {fs.spec}"
        )


def _norm_ratio(num: VectorSequence, den: VectorSequence, p: float, q: float) -> float:
    """||num|L_p(l_q)|| / ||den|L_p(l_q)|| of two nonnegative stacks, where
    den is the ratio's input."""
    cell = den.spec.cell_measure
    denom = lp_lq_norm(den.values, cell, p, q)
    if denom == 0:
        raise ZeroDivisionError("zero input norm in maximal ratio")
    return lp_lq_norm(num.values, cell, p, q) / denom


def fefferman_stein_ratio(fs: VectorSequence, p: float, q: float, Ms: VectorSequence) -> float:
    """||{M f_k}|L_p(l_q)|| / ||{f_k}|L_p(l_q)||; needs 1 < min(p, q).

    fs is the magnitude stack {|f_k|}, and Ms is maximal_fn(fs), passed
    in so that one stack serves every ratio taken on fs."""
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
    for the magnitude stack fs = {|f_k|} and Ms = maximal_fn(fs)."""
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
    both weighted over the levels of ts; fs is the magnitude stack {|f_k|}
    and Ms = maximal_fn(fs).
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
