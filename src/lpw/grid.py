"""Sampled functions on a periodized box, dyadic levels, and Lebesgue-type norms.

The computational domain is the torus [-R, R)^n sampled on a uniform lattice
of N points per axis at the cell centres x = -R + (i + 1/2) h, so no sample
ever sits at the origin and singular expressions like |x|^a stay finite on
the lattice.

All integrals are midpoint sums: integral(f) ~ h^n * sum(samples).  A level-v
dyadic cube Q = 2^-v ([0,1)^n + m), m in level_index_range(R, v), is a block
of whole cells, GridSpec.coefficient_cells(v) a side (half the domain at the
coarsest level, whose cubes the domain clips), so cube sums nest and tile exactly;
spaces.cube_lp takes them a level at a time.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
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
        return -self.R + (np.arange(self.N) + 0.5) * self.h

    def radius(self) -> np.ndarray:
        """|x| at every sample point: one read-only array per spec."""
        return self._radius

    @cached_property
    def _radius(self) -> np.ndarray:
        r = mesh_radius([self.axis()] * self.n)
        r.flags.writeable = False
        return r

    def dft_phase(self) -> np.ndarray:
        """Per-axis phase relating numpy's DFT to the continuum transform
        h * sum_i u_i exp(-i xi x_i) with x_i = -R + (i + 1/2) h: one
        read-only array per spec."""
        return self._dft_phase

    @cached_property
    def _dft_phase(self) -> np.ndarray:
        j = np.fft.fftfreq(self.N, 1.0 / self.N)  # signed integer frequencies
        ph = np.exp(1j * np.pi * j) * np.exp(-2j * np.pi * j * 0.5 / self.N)
        ph.flags.writeable = False
        return ph

    def freq_axis(self) -> np.ndarray:
        """Angular frequencies pi*j/R in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.h)

    def freq_radius(self) -> np.ndarray:
        return mesh_radius([self.freq_axis()] * self.n)

    @property
    def fundamental(self) -> float:
        """Smallest nonzero angular frequency on the torus."""
        return np.pi / self.R

    def level_window(self) -> tuple[int, int]:
        """Admissible dyadic levels (-log2(2R), log2(1/h)): level-v cubes of
        side 2^-v no wider than the domain and no finer than the lattice.
        On these power-of-two grids the band cap log2(pi/h) - 1 floors to
        the same top level."""
        return _level_window(self.R, self.N)

    def cells(self, v: int) -> int:
        """Cells per side of a level-v cube, 2^-v / h, for v in level_window()."""
        lo, hi = self.level_window()
        if not lo <= v <= hi:
            raise GridError(f"level {v} is outside the grid's level window [{lo}, {hi}] of 1 to {self.N} cells a side")
        return self.N >> (v - lo)

    def coefficient_cells(self, k: int) -> int:
        """Cells per side of the level-k cubes of level_index_range(R, k), which
        a coefficient array indexes: cells(k), or half the domain at and below
        the coarsest level; past the window's top a cube is finer than a cell."""
        hi = self.level_window()[1]
        if k > hi:
            raise GridError(f"level {k} cubes are finer than the grid spacing h={self.h}, past level {hi}")
        return self.N // (2 * level_index_range(self.R, k)[1])


@functools.cache
def _level_window(R: float, N: int) -> tuple[int, int]:
    """GridSpec.level_window, once per (R, N): seqnorm reads it per coefficient level of every set."""
    return -int(math.floor(math.log2(2.0 * R) + 1e-9)), int(math.floor(math.log2(1.0 / (2.0 * R / N)) + 1e-9))


def mesh_radius(axes: Sequence[np.ndarray]) -> np.ndarray:
    """|x| on the tensor mesh of per-axis coordinates: axes[i] has shape
    (*batch, K_i) and the result (*batch, K_1, ..., K_n).  np.hypot is folded
    over the axes from |axes[0]|, which is exact: hypot(0, a) == |a| (signed
    zeros, infinities and NaN included) and hypot(|a|, b) == hypot(a, b), so
    in 1D this is np.abs of the axis and in 2D np.hypot of its meshgrid."""
    n = len(axes)
    r = None
    for i, a in enumerate(axes):
        a = a.reshape(a.shape[:-1] + (1,) * i + a.shape[-1:] + (1,) * (n - 1 - i))
        r = np.abs(a) if r is None else np.hypot(r, a)
    return r


def mesh_weights(weights: Sequence[np.ndarray]) -> np.ndarray:
    """The tensor product of per-axis node weights, flattened in the order of
    mesh_radius(...).ravel()."""
    return functools.reduce(np.multiply.outer, weights).ravel()


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


def level_index_range(R: float, v: int) -> tuple[int, int]:
    """Positions m of level-v cubes meeting [-R, R): m in [-C, C)."""
    C = math.ceil(R * 2.0**v)
    return -C, C


def lp_norm(a: np.ndarray, cell_measure: float, p: float) -> float:
    """Plain quasi-norm ||a|L_p|| of nonnegative samples a, such as |f| or a
    weighted stack's row, by the midpoint rule; p = inf is their max, 0 if none."""
    if p <= 0:
        raise ValueError(f"exponent p must be positive, got {p}")
    if np.isinf(p):
        return float(a.max(initial=0.0))
    return float((cell_measure * (a**p).sum()) ** (1.0 / p))


def weighted_lp_norm(f: GridFunction, gamma: GridFunction, p: float) -> float:
    """||f * gamma | L_p|| with a nonnegative weight gamma on the same grid."""
    if gamma.spec != f.spec:
        raise GridError("weight lives on a different grid")
    if np.iscomplexobj(gamma.values) or np.any(gamma.values < 0):
        raise ValueError("weight has negative samples")
    return lp_norm(np.abs(f.values) * gamma.values, f.spec.cell_measure, p)


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


def lp_lq_norm(a: np.ndarray, cell_measure: float, p: float, q: float) -> float:
    """|| ( sum_k a_k^q )^(1/q) | L_p || of a nonnegative (levels, *grid) stack
    a, such as a weighted or maximal stack, with sup over k when q = inf."""
    if q <= 0:
        raise ValueError(f"exponent q must be positive, got {q}")
    agg = a.max(axis=0) if np.isinf(q) else (a**q).sum(axis=0) ** (1.0 / q)
    return lp_norm(agg, cell_measure, p)


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

    def n_cubes(self, R: float, n: int) -> int:
        """The number of cubes FamilyNodes builds for the family over
        [-R, R)^n, without forming a position."""
        near = self.max_per_level // 2
        a, b = -near // 2, near - near // 2  # positions' block [a, b)
        cubes = 0
        for lo, hi in (level_index_range(R, v) for v in self.levels()):
            s = max(1, (hi - lo) // (self.max_per_level - near))  # the stride of positions lo + i s below hi
            # every position, or the block and the strided positions outside it
            m = hi - lo if hi - lo <= self.max_per_level else b - a - (lo - hi) // s + (lo - b) // s - (lo - a) // s
            cubes += m**n
        return 2 * cubes  # each cube and its half-side translate


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
        "offset": True,
        "complex": complex_flag,
    }
    prefix.with_suffix(".json").write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_grid_function(prefix: str | Path) -> GridFunction:
    prefix = Path(prefix)
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    if sidecar["offset"] is not True:  # samples at -R + i h, read as cell centres, would move half a cell
        raise GridError(f"the sidecar's offset is {sidecar['offset']!r}: only cell-centred samples load")
    spec = GridSpec(n=sidecar["n"], R=sidecar["R"], N=sidecar["N"])
    raw = np.fromfile(prefix.with_suffix(".bin"), dtype=np.float64)
    if sidecar["complex"]:
        raw = raw.reshape(spec.shape + (2,))
        vals = raw[..., 0] + 1j * raw[..., 1]
    else:
        vals = raw.reshape(spec.shape)
    return GridFunction(spec, vals)
