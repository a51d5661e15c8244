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
        """|x| at every sample point."""
        ax = self.axis()
        if self.n == 1:
            return np.abs(ax)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        return np.hypot(X, Y)

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

    Each level tiles the domain exactly once.  Levels must satisfy
    2^-v_max >= h (cubes not finer than the lattice) and 2^-v_min <= 2R
    (cubes not wider than the domain).
    """
    if v_min > v_max:
        raise GridError("v_min > v_max")
    if 2.0 ** (-v_max) < spec.h:
        raise GridError(
            f"level v_max={v_max} is finer than the grid spacing h={spec.h}; "
            f"largest admissible level is {spec.level_window()[1]}"
        )
    if 2.0 ** (-v_min) > 2.0 * spec.R:
        raise GridError(f"level v_min={v_min} is wider than the domain [-{spec.R}, {spec.R})")
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


def lp_norm(f: GridFunction, p: float) -> float:
    """Plain quasi-norm ||f|L_p|| by the midpoint rule; p = inf is the sample max."""
    if p <= 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max())
    return float((f.spec.cell_measure * (a**p).sum()) ** (1.0 / p))


def weighted_lp_norm(f: GridFunction, gamma: GridFunction, p: float) -> float:
    """||f * gamma | L_p|| with a nonnegative weight gamma on the same grid."""
    if gamma.spec != f.spec:
        raise GridError("weight lives on a different grid")
    if np.iscomplexobj(gamma.values) or np.any(gamma.values < 0):
        raise ValueError("weight has negative samples")
    return lp_norm(GridFunction(f.spec, np.abs(f.values) * gamma.values), p)


@dataclass(frozen=True)
class VectorSequence:
    """A finite level-indexed family {f_k}, one grid function per level."""

    k_min: int
    entries: tuple[GridFunction, ...]

    def __post_init__(self):
        if not self.entries:
            raise GridError("empty level sequence")
        spec0 = self.entries[0].spec
        for g in self.entries:
            if g.spec != spec0:
                raise GridError("levels live on different grids")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def k_max(self) -> int:
        return self.k_min + len(self.entries) - 1

    @property
    def spec(self) -> GridSpec:
        return self.entries[0].spec

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def __getitem__(self, k: int) -> GridFunction:
        if not (self.k_min <= k <= self.k_max):
            raise GridError(f"level {k} outside [{self.k_min}, {self.k_max}]")
        return self.entries[k - self.k_min]

    def stack(self) -> np.ndarray:
        return np.stack([g.values for g in self.entries])


def lp_lq_norm(fs: VectorSequence, p: float, q: float) -> float:
    """|| ( sum_k |f_k|^q )^(1/q) | L_p ||, with sup over k when q = inf."""
    a = np.abs(fs.stack())
    if np.isinf(q):
        agg = a.max(axis=0)
    else:
        if q <= 0:
            raise ValueError(f"exponent q must be positive, got {q}")
        agg = (a**q).sum(axis=0) ** (1.0 / q)
    return lp_norm(GridFunction(fs.spec, agg), p)


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

    def clamped(self, spec: GridSpec) -> "CubeFamily":
        """Restrict to levels resolvable by whole grid cells (2^-v >= h)."""
        v_cap = spec.level_window()[1]
        return CubeFamily(self.v_min, min(self.v_max, v_cap), self.translates, self.max_per_level)


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
