"""Dyadic band analysis on the discrete torus.

A radial C-infinity bump supported exactly on the annulus 1/2 <= |xi| <= 2
defines the analysis profile; the synthesis profile is the self-normalized
quotient, which turns the telescoping partition of unity over dyadic dilates
into an algebraic identity.  Band convolutions are exact Fourier multipliers;
band_decompose is the one forward band transform, every band of the window
from one forward FFT of f, and the coefficient transform analyze reads it.

Coefficients are samples of band convolutions on the dyadic lattice 2^-k m.
At level k the band spectrum lives in [2^(k-1), 2^(k+1)] (angular units)
while lattice sampling aliases by multiples of 2 pi 2^k, so the copies stay
clear of the synthesis support and the composition synthesize(analyze(f))
reproduces every admissible band-limited input to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import GridFunction, GridSpec, VectorSequence, level_index_range


class LevelError(ValueError):
    """Raised when a level window is not resolvable on the grid."""


# ---------------------------------------------------------------------------
# Spectral transforms on the sample lattice
# ---------------------------------------------------------------------------


def _apply_axis(vec: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    shape = [1] * arr.ndim
    shape[axis] = -1
    return arr * vec.reshape(shape)


def from_spectrum(spec: GridSpec, F: np.ndarray, real: bool = True) -> np.ndarray:
    """Samples on spec's lattice of the function with spectrum F; unchecked,
    so a caller that keeps them wraps them in a GridFunction."""
    ph = spec.dft_phase()
    G = np.asarray(F, dtype=complex)
    for ax in range(spec.n):
        G = _apply_axis(np.conj(ph), G, ax)
    u = np.fft.ifftn(G) / spec.cell_measure
    return u.real if real else u


# ---------------------------------------------------------------------------
# The band pair
# ---------------------------------------------------------------------------


def _transition(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(1 - t > 0, np.exp(-1.0 / np.maximum(1 - t, 1e-300)), 0.0)
    return a / (a + b)


def bump_profile(rho: np.ndarray) -> np.ndarray:
    """Radial bump: 0 outside [1/2, 2], 1 on [3/5, 5/3], smooth in between."""
    rho = np.asarray(rho, dtype=float)
    rise = _transition((rho - 0.5) / (0.6 - 0.5))
    fall = _transition((2.0 - rho) / (2.0 - 5.0 / 3.0))
    return rise * fall


def _partition_denominator(rho: np.ndarray) -> np.ndarray:
    """sum_j bump(rho / 2^j)^2; at most three dyadic dilates contribute."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    pos = rho > 0
    j0 = np.floor(np.log2(rho[pos]))
    acc = np.zeros(j0.shape)
    for d in (-1.0, 0.0, 1.0):
        acc += bump_profile(rho[pos] / 2.0 ** (j0 + d)) ** 2
    out[pos] = acc
    return out


def synthesis_profile(rho: np.ndarray) -> np.ndarray:
    num = bump_profile(rho)
    return np.divide(num, _partition_denominator(rho), out=np.zeros_like(num), where=num > 0)


@dataclass(frozen=True)
class LPPair:
    """Frequency profiles of the analysis/synthesis pair over a level window:
    the analysis multipliers phi_mult and the partition denominator den, from
    which psi(k) forms each synthesis multiplier when it is read."""

    gspec: GridSpec
    k_min: int
    k_max: int
    phi_mult: dict = field(repr=False)
    den: np.ndarray = field(repr=False)
    first_active: int

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def psi(self, k: int) -> np.ndarray:
        """The level-k synthesis multiplier phi_k / den where phi_k > 0, else 0."""
        m = self.phi_mult[k]
        return np.divide(m, self.den, out=np.zeros_like(m), where=m > 0)

    def annulus(self) -> tuple[float, float]:
        """Frequency range where the truncated partition of unity equals 1."""
        return 2.0 ** (self.k_min + 1), 2.0 ** (self.k_max - 1)

    def positions(self, k: int) -> np.ndarray:
        """Coefficient indices m per axis: 2^-k m in [-R, R)."""
        C = self.gspec.R * 2.0**k  # > 0, so the range is never empty
        return np.arange(math.ceil(-C), math.ceil(C))


def check_levels(spec: GridSpec, k_min: int, k_max: int) -> None:
    """Raise LevelError unless k_min..k_max is a nonempty part of spec.level_window()."""
    if k_min > k_max:
        raise LevelError("empty level window")
    k_floor, k_cap = spec.level_window()
    if k_max > k_cap or k_min < k_floor:
        raise LevelError(
            f"level window [{k_min}, {k_max}] not resolvable at N={spec.N}, R={spec.R}; "
            f"admissible window is [{k_floor}, {k_cap}]"
        )


def make_lp_pair(spec: GridSpec, k_min: int, k_max: int) -> LPPair:
    """Build the band pair for levels k_min..k_max on the given grid.

    Levels must keep the coefficient lattice on the grid (2^-k >= h) and the
    band support below the spectral cutoff.  Bands whose annulus falls below
    the lowest torus frequency are retained as exact zeros; the first level
    with nonzero grid content is published as `first_active`.

    The denominator D(rho) = sum_j bump(rho / 2^j)^2 is invariant under
    rho -> 2 rho, and scaling rho by a power of two is exact, so
    D(rho / 2^k) == D(rho) bit for bit: one D serves every level.  Each
    bump(rho / 2^k) is exactly 0 outside the annulus 2^(k-1) <= rho <= 2^(k+1),
    so it is evaluated only there, and so is D, on the levels' union.
    """
    check_levels(spec, k_min, k_max)
    rho = spec.freq_radius()
    den = np.zeros_like(rho)
    live = (rho >= 2.0 ** (k_min - 1)) & (rho <= 2.0 ** (k_max + 1))
    den[live] = _partition_denominator(rho[live])
    phi_mult = {}
    first_active = None
    for k in range(k_min, k_max + 1):
        on = (rho >= 2.0 ** (k - 1)) & (rho <= 2.0 ** (k + 1))
        phi_mult[k] = m = np.zeros_like(rho)
        m[on] = bump_profile(rho[on] / 2.0**k)
        if first_active is None and (m > 0).any():
            first_active = k
    if first_active is None:
        raise LevelError(f"no level in [{k_min}, {k_max}] meets a nonzero grid frequency")
    return LPPair(spec, k_min, k_max, phi_mult, den, first_active)


def band_decompose(f: GridFunction, pair: LPPair, lattice: bool = False) -> VectorSequence:
    """The band phi_k * f, the inverse transform of bump_profile(2^-k xi) Ff,
    of every level of the pair window, from one forward transform of f, as
    the rows of one level stack (real when f is: the multipliers are real,
    and sample-position phases cancel for multipliers).  With lattice, the
    bands are taken at the plain lattice y_i = -R + i h by the half-cell
    translation exp(-i xi h/2) per axis, exact for band-limited data."""
    F = np.fft.fftn(f.values)
    real = np.isrealobj(f.values)
    axes = range(f.spec.n) if lattice else ()
    shift = np.exp(-1j * np.pi * np.fft.fftfreq(f.spec.N, 1.0 / f.spec.N) / f.spec.N) if axes else None
    bands = np.empty((len(pair.levels()), *f.spec.shape), dtype=float if real else complex)
    for row, k in zip(bands, pair.levels()):
        Bk = pair.phi_mult[k] * F
        for ax in axes:
            Bk = _apply_axis(shift, Bk, ax)
        bk = np.fft.ifftn(Bk)
        row[...] = bk.real if real else bk
    return VectorSequence(f.spec, pair.k_min, bands)


# ---------------------------------------------------------------------------
# Coefficient transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Coefficients lambda_{k,m} on the dyadic lattices 2^-k m of [-R, R)^n.

    Level k = k_min, k_min + 1, ... holds one dense complex array of shape
    (2 C_k,)^n with C_k = ceil(R 2^k); index i stands for position
    m = i - C_k, the range of level-k cubes (grid.level_index_range).  The
    layout depends on R but not on N, so one set serves every grid of the
    domain.  Positions not set hold zero.
    """

    n: int
    R: float
    k_min: int
    arrays: tuple[np.ndarray, ...]

    @classmethod
    def from_entries(cls, n: int, R: float, entries) -> "CoefficientSet":
        """From a {(k, m): value} mapping, or an iterable of its items; m is
        an int or an n-tuple, and a repeated (k, m) keeps its last value."""
        items = list(entries.items() if hasattr(entries, "items") else entries)
        if not items:
            return cls(n, R, 0, ())
        ks = [int(k) for (k, _), _ in items]
        k_min = min(ks)
        arrays = []
        for k in range(k_min, max(ks) + 1):
            lo, hi = level_index_range(R, k)
            arrays.append(np.zeros((hi - lo,) * n, dtype=complex))
        for k, ((_, m), v) in zip(ks, items):
            lo, hi = level_index_range(R, k)
            m = tuple(int(x) for x in np.atleast_1d(m))
            if len(m) != n or not all(lo <= x < hi for x in m):
                raise ValueError(f"position m={m} is not a level-{k} position in [{lo}, {hi})^{n}")
            arrays[k - k_min][tuple(x - lo for x in m)] = v
        return cls(n, R, k_min, tuple(arrays))

    def levels(self) -> range:
        return range(self.k_min, self.k_min + len(self.arrays))

    @cached_property
    def support(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """{k: (flat indices i, |lambda_k| at i)} of the nonzero coefficients,
        gathered once: the arrays must not change afterwards."""
        mags = {k: np.abs(lam).ravel() for k, lam in zip(self.levels(), self.arrays)}
        return {k: (i, m[i]) for k, m in mags.items() if (i := np.flatnonzero(m > 0)).size}

    def check_domain(self, spec: GridSpec) -> None:
        if (self.n, self.R) != (spec.n, spec.R):
            raise ValueError(f"coefficients on [-{self.R}, {self.R})^{self.n} do not fit {spec}")

    def __getitem__(self, k: int) -> np.ndarray:
        if k not in self.levels():
            raise LevelError(f"level {k} outside the stored levels {self.levels()}")
        return self.arrays[k - self.k_min]


def analyze(f: GridFunction, pair: LPPair) -> CoefficientSet:
    """Coefficients lambda_{k,m} = 2^(-k n / 2) (f * phi~_k)(2^-k m).

    Each level's coefficients subsample, at the level's stride, the row of
    band_decompose(f, pair, lattice=True): the band on the plain lattice.
    """
    spec = f.spec
    bands = band_decompose(f, pair, lattice=True)
    arrays = []
    for k in pair.levels():
        ms = pair.positions(k)
        idx = (spec.cells(k) * ms + spec.N // 2) % spec.N
        lo, hi = level_index_range(spec.R, k)
        lam = np.zeros((hi - lo,) * spec.n, dtype=complex)
        # the lattice can be narrower than the cube range (at k = -log2(2R))
        lam[np.ix_(*[ms - lo] * spec.n)] = bands[k][np.ix_(*[idx] * spec.n)] * 2.0 ** (-k * spec.n / 2.0)
        arrays.append(lam)
    return CoefficientSet(spec.n, spec.R, pair.k_min, tuple(arrays))


def synthesize(coeffs: CoefficientSet, pair: LPPair) -> GridFunction:
    """sum_{k,m} lambda_{k,m} psi_{k,m} via one comb convolution per level."""
    spec = pair.gspec
    coeffs.check_domain(spec)
    j = np.fft.fftfreq(spec.N, 1.0 / spec.N)
    comb_phase = np.exp(1j * np.pi * j)  # lattice origin at -R
    total = np.zeros(spec.shape, dtype=complex)
    for k, lam in zip(coeffs.levels(), coeffs.arrays):
        if not lam.any():
            continue
        if not (pair.k_min <= k <= pair.k_max):
            raise LevelError(f"synthesis level {k} outside pair window")
        C = lam.shape[0] // 2
        idx = (spec.cells(k) * np.arange(-C, C) + spec.N // 2) % spec.N
        comb = np.zeros(spec.shape, dtype=complex)
        # positions -C and 0 share a sample at k = -log2(2R): add, not overwrite
        np.add.at(comb, np.ix_(*[idx] * spec.n), lam)
        F = np.fft.fftn(comb)
        for ax in range(spec.n):
            F = _apply_axis(comb_phase, F, ax)
        scale = 2.0 ** (-k * spec.n / 2.0)
        total += scale * from_spectrum(spec, F * pair.psi(k), real=False)
    real = all(np.all(np.abs(lam.imag) < 1e-300) for lam in coeffs.arrays)
    return GridFunction(spec, total.real if real else total)


# ---------------------------------------------------------------------------
# Admissibility and the reproduction residual
# ---------------------------------------------------------------------------


def calderon_residual(f: GridFunction, pair: LPPair) -> float:
    """Relative L2 error of synthesize(analyze(f)) against f.

    Requires f mean-zero and band-limited to the resolved annulus, where the
    truncated partition of unity is exactly 1: a frequency carrying more than
    1e-9 of the peak spectral magnitude outside it (DC included) raises.
    """
    F, rho, (lo, hi) = np.abs(np.fft.fftn(f.values)), f.spec.freq_radius(), pair.annulus()
    bad = (F > 1e-9 * F.max()) & ((rho < lo - 1e-12) | (rho > hi + 1e-12))
    if bad.any():
        raise LevelError(f"input spectrum leaves the resolved annulus [{lo:g}, {hi:g}] "
                         f"at |xi| in {sorted(set(np.round(rho[bad], 6).tolist()))[:8]}")

    def l2(u):
        return math.sqrt(float(np.sum(np.abs(u) ** 2)) * f.spec.cell_measure)

    norm = l2(f.values)
    return 0.0 if norm == 0 else l2(synthesize(analyze(f, pair), pair).values - f.values) / norm


def partition_sum(pair: LPPair) -> np.ndarray:
    """sum_k phi_k(xi) psi_k(xi) over the window, per grid frequency."""
    return sum(pair.phi_mult[k] * pair.psi(k) for k in pair.levels())
