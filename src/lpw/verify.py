"""Empirical verification: reproducible corpora, norm-equivalence reports,
and the coincidence conditions for weighted space identity.

Equivalence between two norms is measured by the spread max(B/A) / min(B/A)
over a corpus, which is scale free: the pass ceiling bounds the product of
the two comparison constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, GridSpec, lp_norm
from .lpaley import LPPair, from_spectrum
from .weights import (
    FamilyNodes,
    WeightSpec,
    ap_constant,
    sigma1,
)
from .spaces import cube_lp


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusMember:
    name: str
    f: GridFunction


def annulus_indices(spec: GridSpec, pair: LPPair) -> tuple[int, int]:
    """Positive frequency indices j with j * fundamental inside the resolved
    annulus, per axis.  The annulus is empty, a single radius 2^a (never
    pi/R times the root of an integer) or at least an octave wide, so an
    empty axis range also means no 2D frequency lies in it.  make_lp_pair
    keeps k_max in the level window, so hi / fundamental <= N / (4 pi) and
    the range depends on R and the pair's levels, not on N."""
    lo, hi = pair.annulus()
    fund = spec.fundamental
    j_lo = max(1, math.ceil(lo / fund - 1e-9))
    j_hi = min(spec.N // 2 - 1, math.floor(hi / fund + 1e-9))
    if j_hi < j_lo:
        raise ValueError(f"levels [{pair.k_min}, {pair.k_max}] resolve the annulus [{lo:g}, {hi:g}], which holds no "
                         f"positive grid frequency: the grid's fundamental frequency is pi/R = {fund:g} on R={spec.R:g}")
    return j_lo, j_hi


def _member_from_coeffs(spec: GridSpec, coeffs: dict, name: str) -> CorpusMember:
    """The real member with these Fourier coefficients, unit in L_2; a key is
    the frequency index j, an int in 1D and a pair (j1, j2) in 2D."""
    js = [key if isinstance(key, tuple) else (key,) for key in coeffs]
    for key, j in zip(coeffs, js):
        if len(j) != spec.n:
            raise ValueError(f"frequency key {key!r} does not index a {spec.n}D grid")
    # c at j, then conj(c) at -j, key by key: np.add.at adds in index order,
    # so a cell hit twice sums its terms in the order of a loop over the keys
    j = np.array(js, dtype=np.int64).reshape(-1, spec.n)
    idx = np.stack([j % spec.N, -j % spec.N], axis=1).reshape(-1, spec.n)
    c = np.array(list(coeffs.values()), dtype=complex)
    F = np.zeros(spec.shape, dtype=complex)
    np.add.at(F, tuple(idx.T), np.stack([c, np.conj(c)], axis=1).ravel())
    u = from_spectrum(spec, F, real=True)
    scale = lp_norm(np.abs(u), spec.cell_measure, 2.0)
    if scale == 0:
        raise ValueError("degenerate corpus member")
    return CorpusMember(name, GridFunction(spec, u / scale))


def make_corpus(
    spec: GridSpec,
    pair: LPPair,
    size: int,
    seed: int,
) -> list[CorpusMember]:
    """Admissible band-limited test functions: random multi-band draws,
    single-band draws, translated near-spikes over the full band and over
    [j_hi // 2^s, j_hi], s = 1, 2, 3, and modulated Gaussian envelopes.
    Coefficients are drawn on the frequency lattice of R alone, so the same
    seeds reproduce the same functions at any N that resolves them."""
    rng = np.random.default_rng(seed)
    j_lo, j_hi = annulus_indices(spec, pair)
    members: list[CorpusMember] = []
    kinds = ["multiband", "single", "spike", "gauss"]
    if spec.n == 2:
        return _make_corpus_2d(spec, pair, size, rng)
    i = 0
    while len(members) < size:
        kind = kinds[i % len(kinds)]
        idx = len(members)
        if kind == "multiband":
            count = int(rng.integers(8, 25))
            js = rng.integers(j_lo, j_hi + 1, size=count)
            coeffs = {}
            for j in js:
                coeffs[int(j)] = coeffs.get(int(j), 0) + complex(rng.normal(), rng.normal())
            members.append(_member_from_coeffs(spec, coeffs, f"multiband{idx:02d}"))
        elif kind == "single":
            # k0 in first_active + 1 .. k_max - 2, or first_active + 1 when
            # the level window is too narrow for that range
            k0 = int(rng.integers(pair.first_active + 1, max(pair.first_active + 2, pair.k_max - 1)))
            lo = max(j_lo, math.ceil(2.0**k0 / spec.fundamental))
            hi = min(j_hi, math.floor(2.0 ** (k0 + 1) / spec.fundamental))
            if hi < lo:
                lo, hi = j_lo, min(j_hi, j_lo + 4)
            js = rng.integers(lo, hi + 1, size=6)
            coeffs = {int(j): complex(rng.normal(), rng.normal()) for j in js}
            members.append(_member_from_coeffs(spec, coeffs, f"single{idx:02d}"))
        elif kind == "spike":
            step = (i // len(kinds)) % 4  # four sub-band widths
            hi = j_hi
            lo = max(j_lo, hi // 2**step if step else j_lo)
            x0 = float(rng.uniform(-spec.R, spec.R))
            js = np.arange(lo, hi + 1)
            env = np.sin(np.pi * (js - lo + 0.5) / (hi - lo + 1)) ** 2
            coeffs = dict(zip(js.tolist(), (env * np.exp(-1j * (np.pi * js / spec.R) * x0)).tolist()))
            members.append(_member_from_coeffs(spec, coeffs, f"spike{idx:02d}"))
        else:
            mid = math.sqrt(j_lo * j_hi)
            center = float(rng.uniform(mid / 2, mid * 2))
            widthj = max(2.0, center / 4)
            x0 = float(rng.uniform(-spec.R, spec.R))
            js = np.arange(j_lo, j_hi + 1)
            env = np.exp(-0.5 * ((js - center) / widthj) ** 2)
            keep = env > 1e-12
            js, env = js[keep], env[keep]
            coeffs = dict(zip(js.tolist(), (env * np.exp(-1j * (np.pi * js / spec.R) * x0)).tolist()))
            members.append(_member_from_coeffs(spec, coeffs, f"gauss{idx:02d}"))
        i += 1
    return members


def _make_corpus_2d(spec: GridSpec, pair: LPPair, size: int, rng) -> list[CorpusMember]:
    lo, hi = pair.annulus()
    fund = spec.fundamental
    j_mid = max(1, round(math.sqrt(lo * hi) / fund))
    members = []
    for idx in range(size):
        count = int(rng.integers(6, 16))
        coeffs = {}
        tries = 0
        while len(coeffs) < count and tries < 200:
            j1 = int(rng.integers(-spec.N // 2 + 1, spec.N // 2))
            j2 = int(rng.integers(-spec.N // 2 + 1, spec.N // 2))
            rad = fund * math.hypot(j1, j2)
            tries += 1
            if lo <= rad <= hi:
                coeffs[(j1, j2)] = complex(rng.normal(), rng.normal())
        if not coeffs:
            coeffs[(j_mid, 0)] = 1.0 + 0.0j
        members.append(_member_from_coeffs(spec, coeffs, f"rand2d{idx:02d}"))
    return members


def spike_family(spec: GridSpec, pair: LPPair) -> list[CorpusMember]:
    """Four band-limited bumps at the origin over sub-bands [lo, j_hi] that
    widen with the step index: lo = j_hi >> (step + 1), so the bandwidths are
    about 0.5, 0.75, 0.875 and 0.94 of j_hi (less where j_lo binds), and the
    spatial concentration grows with each step but does not double."""
    j_lo, j_hi = annulus_indices(spec, pair)
    out = []
    for step in range(4):
        hi = j_hi
        lo = max(j_lo, hi >> (step + 1))
        js = np.arange(lo, hi + 1)
        env = np.sin(np.pi * (js - lo + 0.5) / (hi - lo + 1)) ** 2
        coeffs = dict(zip(js.tolist(), env.astype(complex).tolist()))
        out.append(_member_from_coeffs(spec, coeffs, f"origin_spike{step}"))
    return out


# ---------------------------------------------------------------------------
# Equivalence reports
# ---------------------------------------------------------------------------


def ratio_report(
    members: list[str],
    values_a: list[float],
    values_b: list[float],
    ceiling: float,
    name_a: str = "A",
    name_b: str = "B",
) -> dict:
    """Per-member ratios B/A of two norms already evaluated on each member,
    with extremes and witnesses, as the record report.json holds; members on
    which either norm vanishes are excluded and reported."""
    ratios, names, excluded = [], [], []
    for name, va, vb in zip(members, values_a, values_b, strict=True):
        if va == 0 or vb == 0:
            excluded.append(name)
            continue
        ratios.append(vb / va)
        names.append(name)
    if not ratios:
        raise ValueError("all corpus members excluded: both norms vanish")
    arr = np.array(ratios)
    imin, imax = int(arr.argmin()), int(arr.argmax())
    lo, hi = float(arr[imin]), float(arr[imax])
    return {
        "norm_a": name_a,
        "norm_b": name_b,
        "ratios": ratios,
        "members": names,
        "excluded": excluded,
        "min_ratio": lo,
        "max_ratio": hi,
        "witness_min": names[imin],
        "witness_max": names[imax],
        "spread": hi / lo,
        "ceiling": ceiling,
        "pass": hi / lo <= ceiling,
    }


# ---------------------------------------------------------------------------
# Coincidence conditions
# ---------------------------------------------------------------------------


def coincidence_check(
    t1: WeightSpec,
    t2: WeightSpec,
    p: float,
    theta: float,
    nodes: FamilyNodes,
    ceiling: float,
    ap_ceiling: float,
) -> dict:
    """Two-sided comparability of cube means: M_{Q,s1}(t_i^-1) and
    M_{Q,p}(t_i) must agree across the family for the weighted spaces to
    coincide.  Requires both t_i^p inside the Muckenhoupt class at p/theta;
    violation marks the record refused and failed, with the ratio families
    still reported as diagnostics.
    """
    s1 = sigma1(p, theta)
    ap_t1, ap_t2 = ap_constant([t1.power(p), t2.power(p)], p / theta, nodes)
    hyp = {"ap_t1": ap_t1, "ap_t2": ap_t2, "ap_ceiling": ap_ceiling}
    refused = ap_t1 > ap_ceiling or ap_t2 > ap_ceiling
    (mean1, inv1), (mean2, inv2) = nodes.stats([t1, t2], [(p, False), (s1, True)])
    rho_p = mean1 / mean2
    rho_s = inv1 / inv2
    extremes = {
        "mean_p": (float(rho_p.min()), float(rho_p.max())),
        "mean_sigma1": (float(rho_s.min()), float(rho_s.max())),
    }
    all_vals = np.concatenate([rho_p, rho_s])
    spread = float(all_vals.max() / all_vals.min())
    spread_p = rho_p.max() / rho_p.min()
    spread_s = rho_s.max() / rho_s.min()
    passed = (not refused) and spread_p <= ceiling and spread_s <= ceiling
    return {"pass": bool(passed), "refused": bool(refused), "hypothesis": hyp,
            "extremes": extremes, "spread": spread, "ceiling": ceiling}


def holder_floors(weights, pairs, nodes: FamilyNodes) -> list[list[float]]:
    """Per weight t, min over cubes of M_{Q,p}(t) M_{Q,s1}(t^-1) for every
    (p, theta) in pairs, all from one pass; each is at least 1 up to rounding
    since both means share one quadrature measure."""
    requests = [req for p, theta in pairs for req in ((p, False), (sigma1(p, theta), True))]
    return [[float((means[i] * means[i + 1]).min()) for i in range(0, len(means), 2)]
            for means in nodes.stats(weights, requests)]


def delta_coefficient_check(
    t1: WeightSpec,
    t2: WeightSpec,
    p: float,
    spec: GridSpec,
    levels: range,
    ceiling: float,
) -> tuple[bool, dict]:
    """Sequence-norm ratios of single-coefficient inputs under the two
    weights.  For a lone coefficient every sequence norm, whatever its q,
    reduces to the cube norm of the weight, so uniform boundedness restates
    the coincidence condition at sequence level.  Each level takes three
    cubes on the diagonal, m = (m_1, ..., m_1) with m_1 = lo + int(r (count
    - 1)) for r = 0.5, 0.66, 0.95 over the count level positions from lo."""
    ratios = []
    for k in levels:
        S = spec.coefficient_cells(k)
        count = spec.N // S
        diag = (np.array([int(r * (count - 1)) for r in (0.5, 0.66, 0.95)]),) * spec.n
        where = np.zeros((count,) * spec.n, dtype=bool)
        where[diag] = True
        n1, n2 = (cube_lp(t.on_grid(spec, k), S, p, where) for t in (t1, t2))
        ratios.extend(n1[diag] / n2[diag])
    vals = np.array(ratios)
    spread = float(vals.max() / vals.min())
    return spread <= ceiling, {
        "spread": spread,
        "min": float(vals.min()),
        "max": float(vals.max()),
        "ceiling": ceiling,
    }


# ---------------------------------------------------------------------------
# Independent classical-path norms (dyadic weights 2^(s k))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BandMagnitudes:
    """|phi_k * f| per level k, in level order, and the cell measure of f's grid."""

    cell: float
    levels: dict[int, np.ndarray]


def classical_band_magnitudes(f: GridFunction, pair: LPPair) -> BandMagnitudes:
    """|phi_k * f| on every level of pair, from one fftn of f and one ifftn
    per level, so the classical norms of f under every s, p and q share them.

    The classical path checks the weighted one (band_decompose, weigh and the
    norm kernels in spaces) and shares only pair.phi_mult and numpy's FFT
    with it."""
    F = np.fft.fftn(f.values)
    levels = {}
    for k in pair.levels():
        bk = np.fft.ifftn(pair.phi_mult[k] * F)
        if np.isrealobj(f.values):
            bk = bk.real
        levels[k] = np.abs(bk)
    return BandMagnitudes(f.spec.cell_measure, levels)


def classical_besov_norm(bands: BandMagnitudes, s: float, p: float, q: float) -> float:
    """( sum_k 2^(s k q) || phi_k * f |L_p||^q )^(1/q), written directly on
    the magnitudes of classical_band_magnitudes(f, pair); it calls no code of
    the weighted path it checks."""
    vals = []
    for k, a in bands.levels.items():
        if np.isinf(p):
            term = a.max()
        else:
            term = (bands.cell * (a**p).sum()) ** (1.0 / p)
        vals.append(2.0 ** (s * k) * term)
    arr = np.array(vals)
    if np.isinf(q):
        return float(arr.max())
    return float((arr**q).sum() ** (1.0 / q))


def classical_tl_norm(bands: BandMagnitudes, s: float, p: float, q: float) -> float:
    """|| ( sum_k 2^(s k q) |phi_k * f|^q )^(1/q) | L_p ||, written directly
    on the magnitudes of classical_band_magnitudes(f, pair); it calls no code
    of the weighted path it checks."""
    agg = None
    for k, a in bands.levels.items():
        a = 2.0 ** (s * k) * a
        if np.isinf(q):
            agg = a if agg is None else np.maximum(agg, a)
        else:
            agg = a**q if agg is None else agg + a**q
    if not np.isinf(q):
        agg = agg ** (1.0 / q)
    if np.isinf(p):
        return float(agg.max())
    return float((bands.cell * (agg**p).sum()) ** (1.0 / p))
