"""Dyadic band analysis on the discrete torus.

A radial C-infinity bump supported exactly on the annulus 1/2 <= |xi| <= 2
defines the analysis profile; the synthesis profile is the self-normalized
quotient, which turns the telescoping partition of unity over dyadic dilates
into an algebraic identity.  Band convolutions are exact Fourier multipliers.

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
from pathlib import Path

import numpy as np

from .grid import GridFunction, GridSpec, VectorSequence, level_index_range, save_grid_function


class LevelError(ValueError):
    """Raised when a level window is not resolvable on the grid."""


# ---------------------------------------------------------------------------
# Spectral transforms on the (possibly offset) sample lattice
# ---------------------------------------------------------------------------


def _apply_axis(vec: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    shape = [1] * arr.ndim
    shape[axis] = -1
    return arr * vec.reshape(shape)


def spectrum(f: GridFunction) -> np.ndarray:
    """Continuum Fourier coefficients F(xi_j) on the FFT-ordered grid."""
    F = np.fft.fftn(np.asarray(f.values, dtype=complex))
    ph = f.spec.dft_phase()
    for ax in range(f.spec.n):
        F = _apply_axis(ph, F, ax)
    return f.spec.cell_measure * F


def from_spectrum(spec: GridSpec, F: np.ndarray, real: bool = True) -> np.ndarray:
    """Samples on spec's lattice of the function with spectrum F; unchecked,
    so a caller that keeps them wraps them in a GridFunction."""
    ph = spec.dft_phase()
    G = np.asarray(F, dtype=complex)
    for ax in range(spec.n):
        G = _apply_axis(np.conj(ph), G, ax)
    u = np.fft.ifftn(G) / spec.cell_measure
    return u.real if real else u


def _apply_to_spectrum(values: np.ndarray, F: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Samples of m(D) f given F = fftn(values), so one forward transform
    serves every multiplier applied to f."""
    out = np.fft.ifftn(mult * F)
    if np.isrealobj(values) and np.isrealobj(mult):
        out = out.real
    return out


def apply_multiplier(f: GridFunction, mult: np.ndarray) -> GridFunction:
    """Samples of m(D) f; sample-position phases cancel for multipliers."""
    return GridFunction(f.spec, _apply_to_spectrum(f.values, np.fft.fftn(f.values), mult))


def lattice_values(f: GridFunction, mult: np.ndarray) -> np.ndarray:
    """Values of (m(D) f) at the plain lattice y_i = -R + i h.

    On an offset grid this is a half-cell translation, exact for band-limited
    data; on a plain grid it is the samples themselves.
    """
    F = np.fft.fftn(np.asarray(f.values, dtype=complex)) * mult
    if f.spec.offset:
        j = np.fft.fftfreq(f.spec.N, 1.0 / f.spec.N)
        shift = np.exp(-1j * np.pi * j / f.spec.N)  # exp(-i xi h/2)
        for ax in range(f.spec.n):
            F = _apply_axis(shift, F, ax)
    out = np.fft.ifftn(F)
    if np.isrealobj(f.values):
        out = out.real
    return out


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
    rho = np.asarray(rho, dtype=float)
    num = bump_profile(rho)
    den = _partition_denominator(rho)
    out = np.zeros_like(num)
    nz = num > 0
    out[nz] = num[nz] / den[nz]
    return out


@dataclass(frozen=True)
class LPPair:
    """Frequency profiles of the analysis/synthesis pair over a level window."""

    gspec: GridSpec
    k_min: int
    k_max: int
    phi_mult: dict = field(repr=False)
    psi_mult: dict = field(repr=False)
    first_active: int
    plateau_min_phi: float
    plateau_min_psi: float

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def annulus(self) -> tuple[float, float]:
        """Frequency range where the truncated partition of unity equals 1."""
        return 2.0 ** (self.k_min + 1), 2.0 ** (self.k_max - 1)

    def positions(self, k: int) -> np.ndarray:
        """Coefficient indices m per axis: 2^-k m in [-R, R)."""
        C = self.gspec.R * 2.0**k
        lo, hi = math.ceil(-C), math.ceil(C)
        if hi <= lo:
            raise LevelError(f"level {k} has no coefficient positions in the domain")
        return np.arange(lo, hi)


def make_lp_pair(spec: GridSpec, k_min: int, k_max: int) -> LPPair:
    """Build the band pair for levels k_min..k_max on the given grid.

    Levels must keep the coefficient lattice on the grid (2^-k >= h) and the
    band support below the spectral cutoff.  Bands whose annulus falls below
    the lowest torus frequency are retained as exact zeros; the first level
    with nonzero grid content is published as `first_active`.
    """
    if k_min > k_max:
        raise LevelError("empty level window")
    k_floor, k_cap = spec.level_window()
    if k_max > k_cap or k_min < k_floor:
        raise LevelError(
            f"level window [{k_min}, {k_max}] not resolvable at N={spec.N}, R={spec.R}; "
            f"admissible window is [{k_floor}, {k_cap}]"
        )
    rho = spec.freq_radius()
    phi_mult, psi_mult = {}, {}
    first_active = None
    for k in range(k_min, k_max + 1):
        m = bump_profile(rho / 2.0**k)
        phi_mult[k] = m
        psi_mult[k] = synthesis_profile(rho / 2.0**k)
        if first_active is None and np.any(m > 0):
            first_active = k
    if first_active is None:
        raise LevelError(f"no level in [{k_min}, {k_max}] meets a nonzero grid frequency")
    probe = np.linspace(0.6, 5.0 / 3.0, 2049)
    return LPPair(
        gspec=spec,
        k_min=k_min,
        k_max=k_max,
        phi_mult=phi_mult,
        psi_mult=psi_mult,
        first_active=first_active,
        plateau_min_phi=float(bump_profile(probe).min()),
        plateau_min_psi=float(synthesis_profile(probe).min()),
    )


def band(f: GridFunction, pair: LPPair, k: int) -> GridFunction:
    """The level-k band: inverse transform of bump_profile(2^-k xi) * Ff."""
    if not (pair.k_min <= k <= pair.k_max):
        raise LevelError(f"level {k} outside pair window [{pair.k_min}, {pair.k_max}]")
    return apply_multiplier(f, pair.phi_mult[k])


@dataclass(frozen=True)
class BandDecomposition:
    pair: LPPair
    bands: VectorSequence

    def export(self, directory: str | Path) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for k in self.bands.levels():
            save_grid_function(GridFunction(self.bands.spec, self.bands[k]), directory / f"band_{k:+03d}")


def band_decompose(f: GridFunction, pair: LPPair) -> BandDecomposition:
    """Every band of the pair window from one forward transform of f, as the
    rows of one level stack (real when f is: the multipliers are real)."""
    F = np.fft.fftn(f.values)
    bands = np.empty((len(pair.levels()), *f.spec.shape), dtype=float if np.isrealobj(f.values) else complex)
    for row, k in zip(bands, pair.levels()):
        row[...] = _apply_to_spectrum(f.values, F, pair.phi_mult[k])
    return BandDecomposition(pair, VectorSequence(f.spec, pair.k_min, bands))


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

    def scaled(self, c) -> "CoefficientSet":
        return CoefficientSet(self.n, self.R, self.k_min, tuple(c * lam for lam in self.arrays))

def analyze(f: GridFunction, pair: LPPair) -> CoefficientSet:
    """Coefficients lambda_{k,m} = 2^(-k n / 2) (f * phi~_k)(2^-k m).

    The band convolution is evaluated on the plain lattice by exact spectral
    translation and subsampled at the level's stride.
    """
    spec = f.spec
    arrays = []
    for k in pair.levels():
        ms = pair.positions(k)
        idx = (spec.cells(k) * ms + spec.N // 2) % spec.N
        vals = lattice_values(f, pair.phi_mult[k])
        lo, hi = level_index_range(spec.R, k)
        lam = np.zeros((hi - lo,) * spec.n, dtype=complex)
        # the lattice can be narrower than the cube range (at k = -log2(2R))
        lam[np.ix_(*[ms - lo] * spec.n)] = vals[np.ix_(*[idx] * spec.n)] * 2.0 ** (-k * spec.n / 2.0)
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
        total += scale * from_spectrum(spec, F * pair.psi_mult[k], real=False)
    real = all(np.all(np.abs(lam.imag) < 1e-300) for lam in coeffs.arrays)
    return GridFunction(spec, total.real if real else total)


# ---------------------------------------------------------------------------
# Admissibility and the reproduction residual
# ---------------------------------------------------------------------------


def admissibility_violations(f: GridFunction, pair: LPPair):
    """Frequencies carrying more than 1e-9 of the peak spectral magnitude
    outside the resolved annulus (plus DC)."""
    F = spectrum(f)
    rho = f.spec.freq_radius()
    lo, hi = pair.annulus()
    scale = np.abs(F).max()
    if scale == 0:
        return []
    bad = (np.abs(F) > 1e-9 * scale) & ((rho < lo - 1e-12) | (rho > hi + 1e-12))
    return sorted(set(np.round(rho[bad], 6).tolist()))


def calderon_residual(f: GridFunction, pair: LPPair) -> float:
    """Relative L2 error of synthesize(analyze(f)) against f.

    Requires f mean-zero and band-limited to the resolved annulus, where the
    truncated partition of unity is exactly 1.
    """
    bad = admissibility_violations(f, pair)
    if bad:
        lo, hi = pair.annulus()
        raise LevelError(
            f"input spectrum leaves the resolved annulus [{lo:g}, {hi:g}] "
            f"at |xi| in {bad[:8]}"
        )
    norm = math.sqrt(float(np.sum(np.abs(f.values) ** 2)) * f.spec.cell_measure)
    if norm == 0:
        return 0.0
    rec = synthesize(analyze(f, pair), pair)
    diff = rec.values - f.values
    err = math.sqrt(float(np.sum(np.abs(diff) ** 2)) * f.spec.cell_measure)
    return err / norm


def partition_sum(pair: LPPair) -> np.ndarray:
    """sum_k phi_k(xi) psi_k(xi) over the window, per grid frequency."""
    total = np.zeros(pair.gspec.shape)
    for k in pair.levels():
        total = total + pair.phi_mult[k] * pair.psi_mult[k]
    return total
