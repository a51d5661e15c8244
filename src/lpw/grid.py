"""Sampled functions on a periodized box, dyadic cubes, and Lebesgue-type norms.

The computational domain is the torus [-R, R)^n sampled on a uniform lattice
of N points per axis.  With the half-cell offset enabled (the default) the
sample points are x = -R + (i + 1/2) h, so no sample ever sits at the origin
and singular expressions like |x|^a stay finite on the lattice.

All integrals are midpoint sums: integral(f) ~ h^n * sum(samples).  Dyadic
cubes Q = 2^-v ([0,1)^n + m) are mapped to whole-cell index ranges, so cube
averages nest and tile exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class GridError(ValueError):
    """Raised when an operation is incompatible with the grid layout."""


def _is_pow2(x: float) -> bool:
    if x <= 0 or not math.isfinite(x):
        return False
    m, _ = math.frexp(x)
    return m == 0.5


@dataclass(frozen=True)
class GridSpec:
    """Geometry of the sample lattice on [-R, R)^n."""

    n: int
    R: float
    N: int
    offset: bool = True

    def __post_init__(self):
        if self.n not in (1, 2):
            raise GridError(f"dimension n must be 1 or 2, got {self.n}")
        if not _is_pow2(float(self.R)):
            raise GridError(f"R must be a power of two, got {self.R}")
        if self.N < 2 or not _is_pow2(self.N):
            raise GridError(f"N must be a power of two >= 2, got {self.N}")

    @property
    def h(self) -> float:
        return 2.0 * self.R / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def cell_measure(self) -> float:
        return self.h**self.n

    def axis(self) -> np.ndarray:
        shift = 0.5 if self.offset else 0.0
        return -self.R + (np.arange(self.N) + shift) * self.h

    def radius(self) -> np.ndarray:
        """|x| at every sample point: one read-only array per spec."""
        return self._radius

    @cached_property
    def _radius(self) -> np.ndarray:
        ax = self.axis()
        if self.n == 1:
            r = np.abs(ax)
        else:
            X, Y = np.meshgrid(ax, ax, indexing="ij")
            r = np.hypot(X, Y)
        r.flags.writeable = False
        return r

    def dft_phase(self) -> np.ndarray:
        """Per-axis phase relating numpy's DFT to the continuum transform
        h * sum_i u_i exp(-i xi x_i) with x_i = -R + (i + gamma) h: one
        read-only array per spec."""
        return self._dft_phase

    @cached_property
    def _dft_phase(self) -> np.ndarray:
        j = np.fft.fftfreq(self.N, 1.0 / self.N)  # signed integer frequencies
        gamma = 0.5 if self.offset else 0.0
        ph = np.exp(1j * np.pi * j) * np.exp(-2j * np.pi * j * gamma / self.N)
        ph.flags.writeable = False
        return ph

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies pi*j/R in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    def freq_radius(self) -> np.ndarray:
        xi = self.freq_axis()
        if self.n == 1:
            return np.abs(xi)
        KX, KY = np.meshgrid(xi, xi, indexing="ij")
        return np.hypot(KX, KY)

    @property
    def fundamental(self) -> float:
        """Smallest nonzero angular frequency on the torus."""
        return np.pi / self.R

    def level_window(self) -> tuple[int, int]:
        """Admissible dyadic levels (-log2(2R), log2(1/h)): level-v cubes of
        side 2^-v no wider than the domain and no finer than the lattice.
        On these power-of-two grids the band cap log2(pi/h) - 1 floors to
        the same top level."""
        return (
            -int(math.floor(math.log2(2.0 * self.R) + 1e-9)),
            int(math.floor(math.log2(1.0 / self.h) + 1e-9)),
        )

    def cells(self, v: int) -> int:
        """Cells per side of a level-v cube, 2^-v / h, for v in level_window()."""
        lo, hi = self.level_window()
        if not lo <= v <= hi:
            raise GridError(f"level {v} is outside the grid's level window [{lo}, {hi}] of 1 to {self.N} cells a side")
        return self.N >> (v - lo)


@dataclass(frozen=True)
class GridFunction:
    """Scalar samples (real or complex) on a GridSpec lattice."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.spec.shape:
            raise GridError(f"sample shape {v.shape} != grid shape {self.spec.shape}")
        if not np.all(np.isfinite(v.real)) or (np.iscomplexobj(v) and not np.all(np.isfinite(v.imag))):
            raise GridError("grid function contains non-finite samples")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        if other.spec != self.spec:
            raise GridError("grid mismatch in addition")
        return GridFunction(self.spec, self.values + other.values)


@dataclass(frozen=True)
class DyadicCube:
    """The dyadic cube 2^-v ([0,1)^n + m), intersected with the domain."""

    v: int
    m: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.m, int):
            object.__setattr__(self, "m", (self.m,))
        else:
            object.__setattr__(self, "m", tuple(int(x) for x in self.m))

    @property
    def side(self) -> float:
        return 2.0 ** (-self.v)

    def bounds(self) -> list[tuple[float, float]]:
        return [(mi * self.side, (mi + 1) * self.side) for mi in self.m]

    def clipped_bounds(self, R: float) -> list[tuple[float, float]]:
        out = []
        for lo, hi in self.bounds():
            lo, hi = max(lo, -R), min(hi, R)
            if lo >= hi:
                raise GridError(f"cube {self} does not intersect [-{R}, {R})")
            out.append((lo, hi))
        return out


def level_index_range(R: float, v: int) -> tuple[int, int]:
    """Positions m of level-v cubes meeting [-R, R): m in [-C, C)."""
    C = math.ceil(R * 2.0**v)
    return -C, C


def enumerate_cubes(spec: GridSpec, v_min: int, v_max: int) -> list[DyadicCube]:
    """All dyadic cubes of levels v_min..v_max that intersect the domain.

    Each level tiles the domain exactly once.  Both ends must lie in the
    grid's level window.
    """
    if v_min > v_max:
        raise GridError("v_min > v_max")
    spec.cells(v_min), spec.cells(v_max)  # GridError outside the level window
    cubes = []
    for v in range(v_min, v_max + 1):
        lo, hi = level_index_range(spec.R, v)
        if spec.n == 1:
            cubes.extend(DyadicCube(v, (m,)) for m in range(lo, hi))
        else:
            cubes.extend(
                DyadicCube(v, (m1, m2))
                for m1 in range(lo, hi)
                for m2 in range(lo, hi)
            )
    return cubes


def cube_cells(spec: GridSpec, Q: DyadicCube) -> list[tuple[int, int]]:
    """Per-axis clipped [start, stop) cell index ranges covered by Q."""
    ranges = []
    for lo, hi in Q.clipped_bounds(spec.R):
        start = int(round((lo + spec.R) / spec.h))
        stop = int(round((hi + spec.R) / spec.h))
        start, stop = max(start, 0), min(stop, spec.N)
        if stop <= start:
            raise GridError(f"cube {Q} contains no samples at N={spec.N}")
        ranges.append((start, stop))
    return ranges


def cube_samples(f: GridFunction, Q: DyadicCube) -> np.ndarray:
    cells = cube_cells(f.spec, Q)
    if f.spec.n == 1:
        (a, b), = cells
        return f.values[a:b]
    (a, b), (c, d) = cells
    return f.values[a:b, c:d]


def _lp(values: np.ndarray, cell_measure: float, p: float) -> float:
    """lp_norm of samples that need no GridFunction; p = inf is their max, 0 if none."""
    return _lp_nonneg(np.abs(values), cell_measure, p)


def _lp_nonneg(a: np.ndarray, cell_measure: float, p: float) -> float:
    """_lp of samples that are nonnegative already, such as a weighted stack's
    rows: the same sum, without another absolute value."""
    if p <= 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float((cell_measure * (a**p).sum()) ** (1.0 / p))


def lp_norm(f: GridFunction, p: float) -> float:
    """Plain quasi-norm ||f|L_p|| by the midpoint rule; p = inf is the sample max."""
    return _lp(f.values, f.spec.cell_measure, p)


def weighted_lp_norm(f: GridFunction, gamma: GridFunction, p: float) -> float:
    """||f * gamma | L_p|| with a nonnegative weight gamma on the same grid."""
    if gamma.spec != f.spec:
        raise GridError("weight lives on a different grid")
    if np.iscomplexobj(gamma.values) or np.any(gamma.values < 0):
        raise ValueError("weight has negative samples")
    return _lp_nonneg(np.abs(f.values) * gamma.values, f.spec.cell_measure, p)


@dataclass(frozen=True)
class VectorSequence:
    """A finite level-indexed family {f_k} on one grid, held as one array of
    shape (levels, *spec.shape) whose row i is level k_min + i."""

    spec: GridSpec
    k_min: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape[1:] != self.spec.shape or v.size == 0:
            raise GridError(f"level stack shape {v.shape} is not (levels >= 1, *{self.spec.shape})")
        object.__setattr__(self, "values", v)

    def levels(self) -> range:
        return range(self.k_min, self.k_min + len(self.values))

    def __getitem__(self, k: int) -> np.ndarray:
        if k not in self.levels():
            raise GridError(f"level {k} outside {self.levels()}")
        return self.values[k - self.k_min]


def lp_lq_norm(fs: VectorSequence, p: float, q: float) -> float:
    """|| ( sum_k |f_k|^q )^(1/q) | L_p ||, with sup over k when q = inf."""
    return _lp_lq_nonneg(np.abs(fs.values), fs.spec.cell_measure, p, q)


def _lp_lq_nonneg(a: np.ndarray, cell_measure: float, p: float, q: float) -> float:
    """lp_lq_norm of a (levels, *grid) stack that is nonnegative already, such
    as a weighted or maximal stack: the same sums, without another absolute
    value."""
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    agg = a.max(axis=0) if np.isinf(q) else (a**q).sum(axis=0) ** (1.0 / q)
    return _lp_nonneg(agg, cell_measure, p)


# ---------------------------------------------------------------------------
# Cube families: level windows plus half-side translates, with a per-level
# position cap so very deep windows stay affordable.  Capped levels keep the
# cubes nearest the origin (where the shipped weights are singular) plus a
# deterministic stride across the rest of the domain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CubeFamily:
    v_min: int
    v_max: int
    translates: bool = True
    max_per_level: int = 8192

    def __post_init__(self):
        if self.v_min > self.v_max:
            raise GridError("v_min > v_max in cube family")
        if self.max_per_level < 8:
            raise GridError("max_per_level must be at least 8")

    def levels(self) -> range:
        return range(self.v_min, self.v_max + 1)

    def positions(self, R: float, v: int) -> np.ndarray:
        """Level-v cube indices m (1D); capped deterministically."""
        lo, hi = level_index_range(R, v)
        total = hi - lo
        if total <= self.max_per_level:
            return np.arange(lo, hi)
        near = self.max_per_level // 2
        rest = self.max_per_level - near
        block = np.arange(-near // 2, near - near // 2)
        stride = max(1, total // rest)
        strided = np.arange(lo, hi, stride)
        return np.unique(np.concatenate([block, strided]))


# ---------------------------------------------------------------------------
# Import/export: flat binary of float64 plus a JSON sidecar with the spec.
# ---------------------------------------------------------------------------


def save_grid_function(f: GridFunction, prefix: str | Path) -> None:
    prefix = Path(prefix)
    v = f.values
    complex_flag = bool(np.iscomplexobj(v))
    raw = np.ascontiguousarray(
        np.stack([v.real, v.imag], axis=-1) if complex_flag else v, dtype=np.float64
    )
    raw.tofile(prefix.with_suffix(".bin"))
    sidecar = {
        "n": f.spec.n,
        "R": f.spec.R,
        "N": f.spec.N,
        "offset": f.spec.offset,
        "complex": complex_flag,
    }
    prefix.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_grid_function(prefix: str | Path) -> GridFunction:
    prefix = Path(prefix)
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    spec = GridSpec(n=sidecar["n"], R=sidecar["R"], N=sidecar["N"], offset=sidecar["offset"])
    raw = np.fromfile(prefix.with_suffix(".bin"), dtype=np.float64)
    if sidecar["complex"]:
        raw = raw.reshape(spec.shape + (2,))
        vals = raw[..., 0] + 1j * raw[..., 1]
    else:
        vals = raw.reshape(spec.shape)
    return GridFunction(spec, vals)
