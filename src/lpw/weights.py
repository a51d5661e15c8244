"""Closed-form weights, Muckenhoupt constants, and the two-sided growth class.

Weights are expression trees over radial primitives

    pow:a       |x|^a
    const:c     c > 0
    dyadic:s    2^(k s)          (level dependent)
    shiftpow:a,c  (c + |x|)^a
    prod:[...]  product composition

evaluated at arbitrary points and levels.  Cube means M_{Q,r}(w) are computed
by midpoint quadrature on a per-cube mesh that is graded dyadically toward
the origin (the only singular point the grammar can produce), down to a core
scale tied to the finest level of the cube family.  Integrable singularities
then converge as the family deepens, while non-integrable ones blow up at
the core rate, which is exactly the divergence the Muckenhoupt criteria are
probed for.

Every weight in the grammar is radial, so a cube's means equal those of its
images under the coordinate sign flips and, in 2D, the axis swap.
FamilyNodes meshes one representative per such orbit, in a canonical
orientation, and keeps one value per orbit for every statistic: the 2D
family of 174,760 cubes at levels -1..6 on R = 2 holds 23,112 orbits.
Family order is used only to name a witness cube.

FamilyNodes caches the means per (radial profile, exponent, inverse): a
separable weight 2^(k s) g(|x|) is reduced once per canonical level-free
profile g and rescaled per level, so dyadic:s and const:1, or
prod:[dyadic:1,pow:0.3] and pow:0.3, share one reduction.  No node mesh
is stored: one pass over cache-sized row chunks forms each chunk's radius,
evaluates on it the g of every weight asked for together, and feeds each
statistic asked for (r-means of g and of 1/g, node max).  Each row is
summed by numpy's own loops, not BLAS, so a cube's mean does not depend on
the chunk size, the batch size or the BLAS thread count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import CubeFamily, GridError, GridFunction, GridSpec, VectorSequence, mesh_radius, mesh_weights


class WeightError(ValueError):
    """Raised for ill-formed weights or inadmissible weight sequences."""


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


class WeightSpec:
    """Base class: a strictly positive radial weight w(x, k)."""

    def eval(self, r: np.ndarray, k: int = 0) -> np.ndarray:
        """t_k(r) = 2^(k s) g(r), the one rule wherever split() gives (s, g);
        only a weight holding AltPow or AltConst, outside the config grammar,
        does not split and is evaluated factor by factor."""
        s, g = self.split()
        return 2.0 ** (k * s) * g(r)

    def split(self):
        """Return (s, g) with w(x,k) = 2^(k s) g(|x|); None if not separable."""
        raise NotImplementedError

    @property
    def separable(self) -> bool:
        """Whether w(x,k) = 2^(k s) g(|x|), as split() finds."""
        return self.split() is not None

    def key(self) -> str:
        raise NotImplementedError

    def power(self, e: float) -> "WeightSpec":
        return PowOf(self, e)

    def frozen(self, j: int) -> "WeightSpec":
        return Frozen(self, j)

    def __mul__(self, other: "WeightSpec") -> "WeightSpec":
        return Prod((self, other))

    def on_grid(self, spec: GridSpec, k: int = 0) -> GridFunction:
        with np.errstate(divide="ignore"):
            vals = self.eval(spec.radius(), k)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise WeightError(f"weight {self.key()} is not positive finite on the grid")
        return GridFunction(spec, vals)


@dataclass(frozen=True)
class Const(WeightSpec):
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise WeightError(f"const weight must be positive, got {self.c}")

    def split(self):
        return 0.0, lambda r: np.full_like(np.asarray(r, dtype=float), self.c)

    def key(self):
        return f"const:{self.c:g}"


@dataclass(frozen=True)
class Pow(WeightSpec):
    a: float

    def split(self):
        return 0.0, lambda r: np.asarray(r, dtype=float) ** self.a

    def key(self):
        return f"pow:{self.a:g}"


@dataclass(frozen=True)
class Dyadic(WeightSpec):
    s: float

    def split(self):
        return self.s, lambda r: np.ones_like(np.asarray(r, dtype=float))

    def key(self):
        return f"dyadic:{self.s:g}"


@dataclass(frozen=True)
class ShiftPow(WeightSpec):
    a: float
    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise WeightError(f"shiftpow offset must be positive, got {self.c}")

    def split(self):
        return 0.0, lambda r: (self.c + np.asarray(r, dtype=float)) ** self.a

    def key(self):
        return f"shiftpow:{self.a:g},{self.c:g}"


@dataclass(frozen=True)
class Prod(WeightSpec):
    factors: tuple[WeightSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise WeightError("empty product weight")

    def split(self):
        parts = [f.split() for f in self.factors]
        if any(part is None for part in parts):
            return None
        s = sum(p[0] for p in parts)

        def g(r, _parts=parts):
            out = np.ones_like(np.asarray(r, dtype=float))
            for _, gi in _parts:
                out = out * gi(r)
            return out

        return s, g

    def eval(self, r, k=0):
        if self.separable:
            return super().eval(r, k)
        out = np.ones_like(np.asarray(r, dtype=float))
        for f in self.factors:
            out = out * f.eval(r, k)
        return out

    def key(self):
        return "prod:[" + ",".join(f.key() for f in self.factors) + "]"


@dataclass(frozen=True)
class PowOf(WeightSpec):
    base: WeightSpec
    e: float

    def split(self):
        sp = self.base.split()
        if sp is None:
            return None
        s, g = sp
        return s * self.e, lambda r: g(r) ** self.e

    def eval(self, r, k=0):
        if self.separable:
            return super().eval(r, k)
        return self.base.eval(r, k) ** self.e

    def key(self):
        return f"powof:({self.base.key()})^{self.e:g}"


@dataclass(frozen=True)
class Frozen(WeightSpec):
    """The level-independent weight t_j, s = 0 and g = t_j, whatever its base."""

    base: WeightSpec
    j: int

    def split(self):
        return 0.0, lambda r: self.base.eval(r, self.j)

    def key(self):
        return f"frozen:({self.base.key()})@{self.j}"


@dataclass(frozen=True)
class AltPow(WeightSpec):
    """|x|^(a * (-1)^k): a level-alternating exponent, outside the config grammar.

    Useful as a counterexample generator; it is deliberately not expressible
    in the serialized grammar.
    """

    a: float

    def split(self):
        return None

    def eval(self, r, k=0):
        sign = -1.0 if k % 2 else 1.0
        return np.asarray(r, dtype=float) ** (self.a * sign)

    def key(self):
        return f"altpow:{self.a:g}"


@dataclass(frozen=True)
class AltConst(WeightSpec):
    """c^((-1)^k): bounded level modulation, outside the config grammar."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise WeightError("altconst base must be positive")

    def split(self):
        return None

    def eval(self, r, k=0):
        val = self.c ** (-1.0 if k % 2 else 1.0)
        return np.full_like(np.asarray(r, dtype=float), val)

    def key(self):
        return f"altconst:{self.c:g}"


def _split_top_level(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    # commas also separate multi-argument primitives (shiftpow:a,c); a piece
    # without a ':' continues the previous element's argument list
    merged: list[str] = []
    for part in parts:
        if ":" not in part and merged:
            merged[-1] += "," + part
        else:
            merged.append(part)
    return merged


def parse_weight(text: str) -> WeightSpec:
    """Parse the config grammar: pow:a, const:c, dyadic:s, shiftpow:a,c, prod:[...]."""
    if not isinstance(text, str):
        raise WeightError(f"expected a weight expression such as 'pow:0.3', got {text!r}")
    text = text.strip()
    if ":" not in text:
        raise WeightError(f"cannot parse weight {text!r}")
    head, body = text.split(":", 1)
    head = head.strip().lower()

    def number(x: str) -> float:
        # float() also reads nan and inf
        if not np.isfinite(value := float(x)):
            raise ValueError(f"{x.strip()!r} is not a finite number")
        return value

    try:
        if head == "pow":
            return Pow(number(body))
        if head == "const":
            return Const(number(body))
        if head == "dyadic":
            return Dyadic(number(body))
        if head == "shiftpow":
            a, c = (number(x) for x in body.split(","))
            return ShiftPow(a, c)
        if head == "prod":
            body = body.strip()
            if not (body.startswith("[") and body.endswith("]")):
                raise WeightError(f"prod body must be bracketed: {text!r}")
            return Prod(tuple(parse_weight(p) for p in _split_top_level(body[1:-1])))
    except WeightError:
        raise
    except Exception as exc:
        raise WeightError(f"cannot parse weight {text!r}: {exc}") from None
    raise WeightError(f"unknown weight primitive {head!r} in {text!r}")


@dataclass(frozen=True)
class WeightSequence:
    """A level-indexed weight family {t_k}, k_min <= k <= k_max."""

    spec: WeightSpec
    k_min: int
    k_max: int

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise WeightError("empty level range in weight sequence")
        split = self.spec.split()
        object.__setattr__(self, "_rate", None if split is None else split[0])
        object.__setattr__(self, "_samples", {})

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def frozen(self, j: int) -> "WeightSequence":
        return WeightSequence(self.spec.frozen(j), self.k_min, self.k_max)

    def _level(self, gspec: GridSpec, k: int) -> tuple[float, GridFunction]:
        """(c, g) with t_k = c g on the grid, a level outside levels()
        refused: c = 2^(k s) and g = t_0 = 1.0 g, which is g exactly, sampled
        once per grid, for a weight that splits; c = 1.0 and g = t_k, sampled
        once per (grid, level), for any other.  g is checked positive and
        finite as it is sampled; rounding is monotone, so a level checks only
        c min g and c max g."""
        if not self.k_min <= k <= self.k_max:
            raise GridError(f"level {k} lies outside the weight levels {self.levels()}")
        at, c = (k, 1.0) if self._rate is None else (0, 2.0 ** (k * self._rate))
        if (gspec, at) not in self._samples:
            g = self.spec.on_grid(gspec, at)
            self._samples[gspec, at] = g, float(g.values.min()), float(g.values.max())
        g, lo, hi = self._samples[gspec, at]
        if not (0 < c * lo and c * hi < np.inf):
            raise WeightError(f"weight {self.spec.key()} is not positive finite on the grid at level {k}")
        return c, g

    def on_grid(self, gspec: GridSpec, k: int) -> GridFunction:
        """t_k on the grid; a level outside levels() is refused."""
        c, g = self._level(gspec, k)
        return g if c == 1.0 else GridFunction(gspec, c * g.values)

    def weigh(self, mags: VectorSequence) -> VectorSequence:
        """{t_k |f_k|} over this sequence's levels, which the magnitude stack
        mags = {|f_k|} must hold: the weighted stack that every weighted band
        norm and maximal ratio is a functional of.  The product goes into a
        fresh stack, each row formed as t_k = c g and then t_k |f_k|, the
        entries of on_grid(k) times |f_k|; mags is left as it is."""
        if self.k_min not in mags.levels() or self.k_max not in mags.levels():
            raise GridError(f"weight levels {self.levels()} leave the stack's {mags.levels()}")
        lo = self.k_min - mags.k_min
        rows = mags.values[lo : lo + len(self.levels())]
        out = np.empty(rows.shape)
        for row, mag, k in zip(out, rows, self.levels()):
            c, g = self._level(mags.spec, k)
            t = g.values if c == 1.0 else np.multiply(c, g.values, out=row)  # t_k, formed in its row
            np.multiply(t, mag, out=row)
        return VectorSequence(mags.spec, self.k_min, out)


# ---------------------------------------------------------------------------
# Graded midpoint quadrature over cube families
# ---------------------------------------------------------------------------


def _graded_segments(length: float, core: float) -> list[tuple[float, float]]:
    """Dyadic segments of [0, length) growing away from 0, core first."""
    if length <= 2 * core:
        return [(0.0, length)]
    segs = [(0.0, core)]
    lo = core
    while lo < length:
        hi = min(2 * lo, length)
        segs.append((lo, hi))
        lo = hi
    return segs


def _axis_nodes(lo: float, hi: float, core: float, seg_nodes: int, flat_nodes: int):
    """Midpoint nodes and weights for [lo, hi), graded toward 0 when touched.

    Weights sum to the interval length.  Intervals away from the origin get a
    single uniform panel; dyadic geometry guarantees their distance from 0 is
    at least their length, so the integrands stay smooth there.
    """
    if lo < 0 < hi:
        n1, w1 = _axis_nodes(lo, 0.0, core, seg_nodes, flat_nodes)
        n2, w2 = _axis_nodes(0.0, hi, core, seg_nodes, flat_nodes)
        return np.concatenate([n1, n2]), np.concatenate([w1, w2])
    if hi <= 0:
        n, w = _axis_nodes(-hi, -lo, core, seg_nodes, flat_nodes)
        return -n, w
    # now 0 <= lo < hi
    if lo > 0:
        step = (hi - lo) / flat_nodes
        nodes = lo + (np.arange(flat_nodes) + 0.5) * step
        return nodes, np.full(flat_nodes, step)
    nodes, wts = [], []
    for a, b in _graded_segments(hi, core):
        step = (b - a) / seg_nodes
        nodes.append(a + (np.arange(seg_nodes) + 0.5) * step)
        wts.append(np.full(seg_nodes, step))
    return np.concatenate(nodes), np.concatenate(wts)


class _Radius:
    """|x| at the nodes of a batch, shape (B, K), formed a row slice at a
    time: self[lo:hi] is mesh_radius of axes(lo, hi), the per-axis node
    coordinates of rows lo..hi, reshaped to (hi - lo, K).  No mesh is held."""

    __slots__ = ("shape", "size", "_axes")

    def __init__(self, axes, rows: int, K: int):
        self._axes = axes
        self.shape = (rows, K)
        self.size = rows * K

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(self.shape[0])
        return mesh_radius(self._axes(lo, hi)).reshape(hi - lo, self.shape[1])


@dataclass(frozen=True, eq=False)
class _Batch:
    """Representative cubes meshed alike: their radius (B, K), formed on
    demand from per-row interval ends or per-axis node coordinates, and
    normalized per-axis node weights, whose mesh_weights are the (K,) node
    weights."""

    radius: _Radius
    wts: tuple[np.ndarray, ...]


class FamilyNodes:
    """Quadrature geometry for a dyadic cube family over [-R, R)^n.

    Built once per family and reused across weights and exponents.  Every
    weight is radial, so a cube's means are those of its images under the
    coordinate sign flips and, in 2D, the axis swap: cubes fall into orbits,
    each keyed by its canonical clipped intervals, and only one representative
    per orbit is meshed.  The build folds each (level, shift) group to its
    distinct keys before the family-wide fold, which merges clipped coarse
    levels.  The batches hold the representatives (every regular one in one
    batch; those touching the origin or crossing the seam in one batch per
    distinct set of per-axis node weights), and every statistic holds one
    value per representative, in batch row order.  A batch stores no node
    mesh: the regular batch keeps its representatives' interval ends and a
    special batch their per-axis node coordinates, each keeps per-axis node
    weights, and each pass forms the radius of one row chunk at a time and the
    node weights once per batch.  orbit maps each cube of the family to its
    representative's row; it is read only to name a witness:
    argmax_cube(values) finds the first cube in family order that attains a
    maximum, and cube(i) names the i-th cube, whose (level, shift) group's
    positions it recomputes.  Min, max and the products and ratios of
    statistics need no family order.  Cube statistics are cached per (radial
    profile, exponent, inverse) for separable weights and per (weight, level,
    exponent, inverse) otherwise.  stats() is the one way in: it computes the
    statistics a list of weights needs in one pass, where the radius of each
    row chunk of about _CHUNK_NODES representative nodes is formed once, each
    weight's profile is evaluated on it once, every requested power and
    extreme is taken from that evaluation, and each row is summed against the
    node weights on its own (see _reduce).  means() is stats() for one weight
    and one exponent.
    """

    def __init__(self, R: float, n: int, family: CubeFamily):
        if n not in (1, 2):
            raise WeightError("cube quadrature supports n in {1, 2}")
        self.R = float(R)
        self.n = n
        self.family = family
        # grade a few octaves below the family scale so nearly-critical
        # singularities converge fast, while true divergences still track
        # the family depth
        self.core_eff = 2.0 ** (-family.v_max - _CORE_REFINE)
        self._cache: dict = {}
        self._groups: list[tuple[int, float, int]] = []  # (v, shift, cubes) in family order
        self._read = None, None
        keys, special, orbit = [], [], []
        for v in family.levels():
            for shift in (0.0, 0.5) if family.translates else (0.0,):
                _, lo, hi, s = self._level_cubes(v, shift)
                self._groups.append((v, shift, s.size))
                k, s, inverse = _fold(self._orbit_keys(lo, hi), s)
                orbit.append(inverse + sum(map(len, keys)))
                keys.append(k)
                special.append(s)
        self.n_cubes = sum(count for *_, count in self._groups)
        keys, special, inverse = _fold(np.concatenate(keys), np.concatenate(special))
        n_regular = int(np.count_nonzero(~special))
        self.batches: list[_Batch] = []
        self._append_regular(keys[:n_regular, :n], keys[:n_regular, n:])
        row = np.arange(len(keys))
        row[n_regular:] = n_regular + self._append_special(keys[n_regular:, :n], keys[n_regular:, n:])
        self.orbit = row[inverse][np.concatenate(orbit)]

    # -- geometry ----------------------------------------------------------

    def _intervals(self, v: int, shift: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions and per-cube axis intervals: clip to the domain first,
        then translate, so translated probes may cross the seam at +-R."""
        side = 2.0 ** (-v)
        ms = self.family.positions(self.R, v)
        lo = np.maximum(ms * side, -self.R) + shift * side
        hi = np.minimum((ms + 1) * side, self.R) + shift * side
        return ms, lo, hi

    def _level_cubes(self, v: int, shift: float):
        """The cubes of one (level, shift) in family order, as positions,
        lower and upper interval ends (B, n) and a special flag (B,):
        regular cubes first, then those where the radius is singular (every
        axis reaches the origin) or that cross the seam, each in lattice
        order."""
        ms, lo, hi = self._intervals(v, shift)
        axes = np.meshgrid(*[np.arange(ms.size)] * self.n, indexing="ij")
        idx = np.stack([a.ravel() for a in axes], axis=-1)
        lo, hi = lo[idx], hi[idx]
        special = ((lo <= 0) & (hi >= 0)).all(axis=1) | (hi > self.R).any(axis=1)
        order = np.argsort(special, kind="stable")
        return ms[idx][order], lo[order], hi[order], special[order]

    def _orbit_keys(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per cube, its intervals (lo_1..lo_n, hi_1..hi_n) in canonical
        orientation: each axis folded to lo >= -hi, with -0.0 made 0.0, and
        in 2D the axes sorted.  Seam-crossing cubes keep their own
        orientation: their mirror images lie outside the family, and
        _axis_pieces, which wraps only across +R, would mesh them wrongly."""
        keep = (hi > self.R).any(axis=1, keepdims=True)
        flip = (-hi > lo) & ~keep
        lo, hi = np.where(flip, -hi, lo) + 0.0, np.where(flip, -lo, hi) + 0.0
        if self.n == 2:
            swap = ((lo[:, 0] > lo[:, 1]) | ((lo[:, 0] == lo[:, 1]) & (hi[:, 0] > hi[:, 1]))) & ~keep[:, 0]
            lo[swap], hi[swap] = lo[swap, ::-1], hi[swap, ::-1]
        return np.concatenate([lo, hi], axis=1)

    def _append_regular(self, lo, hi):
        """One batch for the regular representatives, holding only their
        interval ends (B, n): row i's nodes on axis j are lo[i, j] + (hi[i, j]
        - lo[i, j]) * offs, offs the _FLAT_NODES cell midpoints of [0, 1)."""
        if lo.shape[0] == 0:
            return
        n, K = self.n, _FLAT_NODES
        offs = (np.arange(K) + 0.5) / K

        def axes(a, b):
            X = lo[a:b, :, None] + (hi[a:b] - lo[a:b])[:, :, None] * offs
            return [X[:, i] for i in range(n)]

        self.batches.append(_Batch(_Radius(axes, lo.shape[0], K**n), (np.full(K, 1.0 / K),) * n))

    def _axis_pieces(self, a: float, b: float):
        """Node mesh for [a, b), wrapping across the seam at +R when needed."""
        if a > self.R:  # wholly past +R, as a translate [16, 24) at R = 8: its image with a in [-R, R)
            shift = (a + self.R) // (2 * self.R) * 2 * self.R
            a, b = a - shift, b - shift
        pieces = [(a, min(b, self.R))] if b <= self.R else [(a, self.R), (-self.R, b - 2 * self.R)]
        nodes, wts = [], []
        for plo, phi in pieces:
            nn, ww = _axis_nodes(plo, phi, self.core_eff, _SEG_NODES, _FLAT_NODES)
            nodes.append(nn)
            wts.append(ww)
        return np.concatenate(nodes), np.concatenate(wts) / (b - a)

    def _append_special(self, lo, hi) -> np.ndarray:
        """Mesh the special representatives in one batch per distinct set of
        per-axis node weights, each holding its representatives' per-axis
        node coordinates (B, K_i), not their (B, K_1 ... K_n) mesh; returns
        each representative's row among them, batch after batch."""
        axis_mesh = functools.cache(self._axis_pieces)
        groups: dict = {}  # per-axis weights -> [(representative, per-axis nodes, weights)]
        for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            nodes, wts = zip(*(axis_mesh(*iv) for iv in zip(a, b)))
            groups.setdefault(tuple(w.tobytes() for w in wts), []).append((i, nodes, wts))
        rows, at = np.empty(lo.shape[0], dtype=np.intp), 0
        for members in groups.values():
            idx, nodes, wts = zip(*members)
            rows[list(idx)] = np.arange(at, at + len(idx))
            at += len(idx)
            coords = [np.stack(x) for x in zip(*nodes)]  # per axis, (B, K_i)
            radius = _Radius(lambda a, b, coords=coords: [x[a:b] for x in coords], len(idx), mesh_weights(wts[0]).size)
            self.batches.append(_Batch(radius, wts[0]))
        return rows

    def argmax_cube(self, values: np.ndarray) -> int:
        """The first cube in family order whose orbit holds the largest of
        values (one per orbit, as stats() returns them), ties and NaN
        included: int(np.argmax(values[self.orbit])) without the per-cube
        copy of values."""
        top = values.max()
        hit = values == top if top == top else np.isnan(values)
        return int(np.argmax(hit[self.orbit]))

    def cube(self, i: int) -> tuple[int, tuple[int, ...], bool]:
        """(v, m, translated) of the i-th cube in family order, 0 <= i < n_cubes."""
        if not 0 <= i < self.n_cubes:
            raise IndexError(f"cube index {i} outside the family's {self.n_cubes} cubes")
        for v, shift, count in self._groups:
            if i < count:
                if self._read[0] != (v, shift):
                    self._read = (v, shift), self._level_cubes(v, shift)[0]
                return v, tuple(self._read[1][i].tolist()), shift > 0
            i -= count

    # -- cube statistics ----------------------------------------------------

    def means(self, w: WeightSpec, r: float, k: int = 0) -> np.ndarray:
        """M_{Q,r}(t_k) per orbit, one value per representative row (index it
        by self.orbit for family order); r = inf is the node max."""
        return self.stats([w], [(r, False)], k)[0][0]

    def stats(self, weights, requests: list[tuple[float, bool]], k: int = 0) -> list[list[np.ndarray]]:
        """Per weight, one array per request (r, inverse): the cube r-means of
        t_k, or of t_k^-1 when inverse is set, one value per orbit in
        representative row order (self.orbit[i] is the row of the i-th cube in
        family order); r = inf gives the node max.  Ask for everything the
        weights need in one call: the requests not yet cached, for all of
        them, share one pass, and the weights that share a radial profile
        share its reduction.

        A separable weight 2^(k s) g is reduced once per (radial profile, r,
        inverse) and rescaled per level; any other weight once per (weight, k,
        r, inverse).  Weights are compared by value, not by key(), whose
        6-digit floats would let pow:0.3 and pow:0.3000001 share an entry.
        """
        for r, _ in requests:
            if r <= 0:
                raise WeightError(f"statistic exponent must be positive, got {r}")
        entries = [self._entry(w, k) for w in weights]
        jobs = {}
        for _, key, f in entries:
            missing = [req for req in dict.fromkeys(requests) if key + req not in self._cache]
            if missing:
                jobs.setdefault(key, (f, missing))
        if jobs:
            for key, outs in zip(jobs, self._reduce(list(jobs.values()))):
                for req, out in zip(jobs[key][1], outs):
                    self._cache[key + req] = out

        def at_level(out, e):  # t_k = 2^(k e) g; t_k^-1 has e = s * -1.0, as PowOf(w, -1).split() gives
            scale = 2.0**(k * e)
            return out if scale == 1.0 else scale * out  # x * 1.0 == x: the cached array serves as it is

        return [[at_level(self._cache[key + (r, inverse)], s * -1.0 if inverse else s) for r, inverse in requests]
                for s, key, _ in entries]

    def _entry(self, w: WeightSpec, k: int):
        """(s, cache key, f) of w at level k: a separable weight 2^(k s) g is
        keyed by its canonical profile, whose f is g (None for the unit
        profile); any other weight by (w, k), with s = 0 and f its level-k
        values."""
        if w.separable:
            s, g = w.split()
            prof = _profile(w)
            return s, (prof,), None if prof == _UNIT else g
        return 0.0, (w, k), lambda rad: w.eval(rad, k)

    def _reduce(self, jobs: list) -> list[list[np.ndarray]]:
        """Per job (f, requests), per orbit representative, one array per
        request (r, inverse): the r-mean of f over its nodes, of f ** -1.0
        when inverse is set, or the max (r = inf).  f = None is the unit
        profile: its values and their powers are exactly 1.0, so neither is
        computed, and each batch sums one row of ones for all of its
        representatives.

        The radius of each row chunk is formed once for every job, each f
        runs once on it, and every request of that job is taken from that one
        evaluation.  Each row is summed against the node weights on its own
        (_row_sums), so a cube's mean does not depend on how its rows are
        grouped into chunks or batches, nor on which jobs share the pass.
        """
        n_reps = sum(b.radius.shape[0] for b in self.batches)
        outs = [[np.empty(n_reps) for _ in requests] for _, requests in jobs]
        unit = [(requests, out) for (f, requests), out in zip(jobs, outs) if f is None]
        evaluated = [(f, requests, out, any(inverse for _, inverse in requests))
                     for (f, requests), out in zip(jobs, outs) if f is not None]
        at = 0
        for b in self.batches:
            rows, K = b.radius.shape
            ones, wts = np.ones((1, K)), mesh_weights(b.wts)
            for requests, out in unit:
                _take(requests, out, slice(at, at + rows), ones, ones, wts)
            step = max(1, _CHUNK_NODES // K)
            for lo in range(0, rows if evaluated else 0, step):
                hi = min(lo + step, rows)
                radius = b.radius[lo:hi]
                for f, requests, out, any_inverse in evaluated:
                    plain = f(radius)
                    inv = plain ** -1.0 if any_inverse else None
                    _take(requests, out, slice(at + lo, at + hi), plain, inv, wts)
            at += rows
        return [[out if r == np.inf else np.power(out, 1.0 / r, out=out) for (r, _), out in zip(requests, job_outs)]
                for (_, requests), job_outs in zip(jobs, outs)]


def _fold(keys: np.ndarray, special: np.ndarray):
    """The distinct keys sorted by (special, key), regular first, their
    flags, and each row's index among them: a key fixes its flag, so an orbit
    starts wherever the sorted key changes (np.unique(axis=0) is slower)."""
    order = np.lexsort((*keys.T[::-1], special))
    keys = keys[order]
    starts = np.concatenate([[True], (keys[1:] != keys[:-1]).any(axis=1)])
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return keys[starts], special[order[starts]], inverse


def _take(requests, outs, rows: slice, plain: np.ndarray, inv, wts: np.ndarray) -> None:
    """Write each request's row statistic of plain (of inv when inverse is
    set) into outs[i][rows]: the node max for r = inf, else the sum of the
    r-th powers against wts.  The unit profile's (1, K) row of ones
    broadcasts over rows, and its powers stay exactly 1.0."""
    for (r, inverse), out in zip(requests, outs):
        vals = inv if inverse else plain
        out[rows] = vals.max(axis=1) if r == np.inf else _row_sums(vals**r, wts)


def _row_sums(vals: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """vals @ wts computed row by row, without BLAS.

    einsum's loop sums a row almost sequentially, so its rounding grows with
    the row length: on the 2D origin cubes (up to 57,600 nodes) it drifts
    3e-14 from the exact mean of a constant.  Rows longer than _PAIRWISE_NODES
    take numpy's pairwise sum instead; they belong to the batches around
    the origin and the seam, about 2% of the representative nodes of
    a 1D family at levels -4..9 and 17% of a 2D one at levels -1..6.
    """
    if wts.size > _PAIRWISE_NODES:
        return (vals * wts).sum(axis=1)
    return np.einsum("ij,j->i", vals, wts)


# nodes per graded segment and per flat panel of a cube's axis, and the
# octaves the graded mesh reaches below the family's finest cube side
_SEG_NODES = 8
_FLAT_NODES = 16
_CORE_REFINE = 10
_CHUNK_NODES = 1 << 16
_PAIRWISE_NODES = 1 << 10
_UNIT = Const(1.0)


def _profile(w: WeightSpec) -> WeightSpec:
    """The canonical level-free radial profile of a separable weight w = 2^(k s) g:
    a weight whose g is bit-identical to w's, shared by every weight with that g
    up to the exact identities x * 1.0 == x and 1.0 ** e == 1.0.

    Unit factors drop out: dyadic:s, const:1, pow:0, powers of them, and
    frozen weights whose scale 2^(j s) is exactly 1.0.  Everything else keeps
    its own form, nesting included, since (a b) c and a (b c), or c ** e and a
    constant near it, can round apart.
    """
    if isinstance(w, Dyadic) or (isinstance(w, (Pow, ShiftPow)) and w.a == 0):
        return _UNIT
    if isinstance(w, Prod):
        factors = tuple(f for f in map(_profile, w.factors) if f != _UNIT)
        if len(factors) > 1:
            return Prod(factors)
        return factors[0] if factors else _UNIT
    if isinstance(w, PowOf):
        base = _profile(w.base)
        return _UNIT if base == _UNIT else PowOf(base, w.e)
    if isinstance(w, Frozen) and w.base.separable and 2.0 ** (w.j * w.base.split()[0]) == 1.0:
        return _profile(w.base)
    return w


def domain_integral(w: WeightSpec, R: float, n: int, p: float, core: float, k: int = 0) -> float:
    """Graded quadrature of integral over [-R,R)^n of w^p, core scale given,
    on a mesh finer than the cube families' (16 nodes per segment, 64 flat)."""
    nodes, wts = _axis_nodes(-R, R, core, 16, 64)
    return float(w.eval(mesh_radius([nodes] * n).ravel(), k) ** p @ mesh_weights([wts] * n))


def check_admissible(ts: WeightSequence, p: float, R: float, n: int) -> None:
    """Verify local p-integrability of every t_k by a refinement probe.

    The whole-domain integral of t_k^p is recomputed with the quadrature core
    halved; a relative move above 2% marks a divergent (non-integrable)
    singularity and raises WeightError.  The midpoint nodes avoid every
    singularity, so a non-finite integral is an overflow, such as |x|^2000
    on [-8, 8), and raises WeightError under its own name.
    """
    levels = list(ts.levels()) if not ts.spec.separable else [ts.k_min]
    for k in levels:
        with np.errstate(over="ignore", invalid="ignore"):
            i1 = domain_integral(ts.spec, R, n, p, core=2.0**-22, k=k)
            i2 = domain_integral(ts.spec, R, n, p, core=2.0**-23, k=k)
        if not (np.isfinite(i1) and np.isfinite(i2)):
            raise WeightError(f"weight {ts.spec.key()} overflows double precision on the probe mesh at level {k}")
        if i2 > i1 * 1.02:
            raise WeightError(
                f"weight {ts.spec.key()} fails the p-admissibility refinement probe at level {k}: "
                f"integral moved {i2 / i1 - 1.0:.3%} under core halving"
            )


# ---------------------------------------------------------------------------
# Muckenhoupt constants and the growth-class report
# ---------------------------------------------------------------------------


def conjugate(p: float) -> float:
    if p <= 1:
        raise WeightError(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0) if np.isfinite(p) else 1.0


def sigma1(p: float, theta: float) -> float:
    """The pairing exponent theta * (p/theta)' used throughout."""
    if not 0 < theta < p:
        raise WeightError(f"need 0 < theta < p, got theta={theta}, p={p}")
    return theta * conjugate(p / theta)


def ap_constant(gammas, p: float, nodes: FamilyNodes) -> list[float]:
    """Per weight, the largest cube product M_Q(gamma) * M_{Q,p'/p}(gamma^-1)
    over the family.

    A lower estimate of the Muckenhoupt constant that grows as the family
    refines exactly when the weight falls outside the class.
    """
    return [float(prod.max()) for prod in _ap_products(gammas, p, nodes)]


def ap_witness(gammas, p: float, nodes: FamilyNodes) -> list[tuple[float, tuple]]:
    """Per weight, its ap_constant and the first cube in family order that attains it."""
    return [(float(prod.max()), nodes.cube(nodes.argmax_cube(prod))) for prod in _ap_products(gammas, p, nodes)]


def _ap_pair(p: float) -> list[tuple[float, bool]]:
    """The cube statistics of the A_p products: M_Q(gamma) and M_{Q,p'/p}(gamma^-1)."""
    if p <= 1:
        raise WeightError(f"ap_constant needs p > 1, got {p}")
    return [(1.0, False), (conjugate(p) / p, True)]


def _ap_products(gammas, p: float, nodes: FamilyNodes) -> list[np.ndarray]:
    """Per weight, M_Q(gamma) * M_{Q,p'/p}(gamma^-1) per orbit, all from one pass."""
    return [mean * inv_mean for mean, inv_mean in nodes.stats(gammas, _ap_pair(p))]


def _growth_requests(p: float, sigma: tuple[float, float]) -> list[tuple[float, bool]]:
    """The cube statistics of both growth bounds at a level: M_{Q,p}(t_k), M_{Q,s1}(t_k^-1), M_{Q,s2}(t_k)."""
    s1, s2 = sigma
    return [(p, False), (s1, True), (s2, False)]


def _growth_products(A_k: np.ndarray, B_j: np.ndarray, D_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The products of both growth bounds for levels k <= j, per orbit:
    M_{Q,p}(t_k) M_{Q,s1}(t_j^-1) and M_{Q,s2}(t_j) / M_{Q,p}(t_k)."""
    return A_k * B_j, D_j / A_k


def _growth_tables(seqs, p: float, sigma: tuple[float, float], nodes: FamilyNodes) -> list[dict]:
    """Per sequence, the cube maxima of both growth products for each level
    pair k <= j, in k-major order: {(k, j): (max_Q M_{Q,p}(t_k)
    M_{Q,s1}(t_j^-1), max_Q M_{Q,s2}(t_j) / M_{Q,p}(t_k))}.  Levels are read
    in ascending order, each level's statistics of all the sequences that hold
    it in one call, and a sequence's pairs (k, j) are formed when level j is
    read, so only the M_{Q,p} of the levels read so far are kept.  Rounding is
    monotone, so an entry times a power 2^(a (j - k)) is the maximum of the
    product times it, bit for bit."""
    tables = [{} for _ in seqs]
    means = [{} for _ in seqs]  # M_{Q,p}(t_k) of each sequence's levels read so far
    for j in sorted({k for ts in seqs for k in ts.levels()}):
        held = [i for i, ts in enumerate(seqs) if j in ts.levels()]
        for i, (A_j, B_j, D_j) in zip(held, nodes.stats([seqs[i].spec for i in held], _growth_requests(p, sigma), j)):
            means[i][j] = A_j
            for k, A_k in means[i].items():
                tables[i][k, j] = tuple(float(prod.max()) for prod in _growth_products(A_k, B_j, D_j))
    return [dict(sorted(table.items())) for table in tables]


def xclass_constants(
    ts: WeightSequence,
    p: float,
    alpha: tuple[float, float],
    sigma: tuple[float, float],
    nodes: FamilyNodes,
) -> dict:
    """Sharpest constants C1, C2 in the two cross-level growth bounds

        M_{Q,p}(t_k)   M_{Q,s1}(t_j^-1) <= C1 2^(a1 (k-j))   (k <= j)
        M_{Q,s2}(t_j) / M_{Q,p}(t_k)    <= C2 2^(a2 (j-k))   (k <= j)

    over the cube family and stored levels, with argmax witnesses, as the
    record {alpha, sigma, p, C1, C2, witness1, witness2}.  A witness is the
    first cube, in family order, of the first level pair in k-major order
    that attains the constant.  ts is taken as admissible: the caller runs
    check_admissible.
    """
    a1, a2 = alpha
    s1, s2 = sigma
    if s1 <= 0 or s2 <= 0:
        raise WeightError("sigma exponents must be positive (inf allowed)")
    (table,) = _growth_tables([ts], p, sigma, nodes)
    out = {"alpha": [a1, a2], "sigma": [s1, s2], "p": p}
    bounds = (("C1", "witness1", lambda k, j: 2.0 ** (-a1 * (k - j))),
              ("C2", "witness2", lambda k, j: 2.0 ** (-a2 * (j - k))))
    for i, (C, witness, scale) in enumerate(bounds):
        out[C], at = -np.inf, None
        for (k, j), tops in table.items():
            if tops[i] * scale(k, j) > out[C]:
                out[C], at = tops[i] * scale(k, j), (k, j)
        out[witness] = None
        if at is not None:
            (A_k, _, _), (_, B_j, D_j) = (nodes.stats([ts.spec], _growth_requests(p, sigma), level)[0] for level in at)
            v, m, translated = nodes.cube(nodes.argmax_cube(_growth_products(A_k, B_j, D_j)[i] * scale(*at)))
            out[witness] = {"k": at[0], "j": at[1], "cube": {"v": v, "m": list(m), "translated": translated}}
    return out


# xclass_fit searches alpha in [-XCLASS_ALPHA_MAX, XCLASS_ALPHA_MAX]; the fit
# of a weight 2^(k s) g has its plateau edges at alpha = s, so a config whose
# rate |s| lies beyond this is refused before the fit runs.
XCLASS_ALPHA_MAX = 4.0


def xclass_fit(seqs, p: float, sigma: tuple[float, float], nodes: FamilyNodes) -> list[dict]:
    """Per sequence, growth exponents fitted by grid search over
    [-XCLASS_ALPHA_MAX, XCLASS_ALPHA_MAX] = [-4, 4] in steps of 0.05.

    C1 is nondecreasing in alpha1 and C2 nonincreasing in alpha2, so the
    minimum of each sits on a plateau; the fit reports the plateau edges
    (largest alpha1 and smallest alpha2 within 2% of the minimum), which
    recover the exact dyadic rate for weights of the form 2^(k s) g, as the
    record {alpha1, alpha2, C1, C2, grid_step}.
    """
    alpha_lo, alpha_hi, step, plateau_tol = -XCLASS_ALPHA_MAX, XCLASS_ALPHA_MAX, 0.05, 0.02
    count = int(round((alpha_hi - alpha_lo) / step)) + 1
    alphas = np.round(alpha_lo + step * np.arange(count), 12)
    fits = []
    for ts, table in zip(seqs, _growth_tables(seqs, p, sigma, nodes)):
        lags = range(0, ts.k_max - ts.k_min + 1)
        M1, M2 = {}, {}
        for d in lags:
            M1[d] = M2[d] = -np.inf
            for k in range(ts.k_min, ts.k_max + 1 - d):
                M1[d], M2[d] = max(M1[d], table[k, k + d][0]), max(M2[d], table[k, k + d][1])
        C1 = np.array([max(M1[d] * 2.0 ** (a * d) for d in lags) for a in alphas])
        C2 = np.array([max(M2[d] * 2.0 ** (-a * d) for d in lags) for a in alphas])
        i1 = int(np.max(np.nonzero(C1 <= C1.min() * (1 + plateau_tol))[0]))
        i2 = int(np.min(np.nonzero(C2 <= C2.min() * (1 + plateau_tol))[0]))
        fits.append({"alpha1": float(alphas[i1]), "alpha2": float(alphas[i2]), "C1": float(C1[i1]),
                     "C2": float(C2[i2]), "grid_step": step})
    return fits
