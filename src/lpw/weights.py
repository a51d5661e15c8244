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
orientation, and hands its statistics to every cube of the orbit: the 2D
family of 174,760 cubes at levels -1..6 on R = 2 holds 23,112 orbits.

FamilyNodes caches the means per (radial profile, exponent, inverse): a
separable weight 2^(k s) g(|x|) is reduced once per canonical level-free
profile g and rescaled per level, so dyadic:s and const:1, or
prod:[dyadic:1,pow:0.3] and pow:0.3, share one reduction.  One pass over
cache-sized row chunks evaluates g once per chunk and feeds every statistic
asked for together (r-means of g and of 1/g, node max and min).  Each row is
summed by numpy's own loops, not BLAS, so a cube's mean does not depend on
the chunk size, the batch size or the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import CubeFamily, GridError, GridFunction, GridSpec, VectorSequence


class WeightError(ValueError):
    """Raised for ill-formed weights or inadmissible weight sequences."""


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


class WeightSpec:
    """Base class: a strictly positive radial weight w(x, k)."""

    separable: bool = True  # w(x,k) = 2^(k s) * g(|x|)

    def eval(self, r: np.ndarray, k: int = 0) -> np.ndarray:
        s, g = self.split()
        return 2.0 ** (k * s) * g(r)

    def split(self):
        """Return (s, g) with w(x,k) = 2^(k s) g(|x|); None if not separable."""
        raise NotImplementedError

    @property
    def level_free(self) -> bool:
        """Whether eval(r, k) is the same array on every level k: a primitive
        with s = 0 evaluates 2.0 ** (k * 0.0) * g(r) = 1.0 * g(r) exactly."""
        return self.separable and self.split()[0] == 0

    def key(self) -> str:
        raise NotImplementedError

    def inv(self) -> "WeightSpec":
        return PowOf(self, -1.0)

    def power(self, e: float) -> "WeightSpec":
        return PowOf(self, e)

    def frozen(self, j: int) -> "WeightSpec":
        return Frozen(self, j)

    def __mul__(self, other: "WeightSpec") -> "WeightSpec":
        return Prod((self, other))

    def __repr__(self):
        return self.key()

    def on_grid(self, spec: GridSpec, k: int = 0) -> GridFunction:
        with np.errstate(divide="ignore"):
            vals = self.eval(spec.radius(), k)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise WeightError(
                f"weight {self.key()} is not positive finite on the grid "
                "(an offset grid avoids samples at the origin)"
            )
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

    @property
    def separable(self):
        return all(f.separable for f in self.factors)

    @property
    def level_free(self):
        # factor by factor: dyadic:0.5 times dyadic:-0.5 has s = 0, but its
        # product 2^(0.5 k) 2^(-0.5 k) need not round to 1.0 on every level
        return all(f.level_free for f in self.factors)

    def split(self):
        if not self.separable:
            return None
        parts = [f.split() for f in self.factors]
        s = sum(p[0] for p in parts)

        def g(r, _parts=parts):
            out = np.ones_like(np.asarray(r, dtype=float))
            for _, gi in _parts:
                out = out * gi(r)
            return out

        return s, g

    def eval(self, r, k=0):
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

    @property
    def separable(self):
        return self.base.separable

    @property
    def level_free(self):
        return self.base.level_free

    def split(self):
        sp = self.base.split()
        if sp is None:
            return None
        s, g = sp
        return s * self.e, lambda r: g(r) ** self.e

    def eval(self, r, k=0):
        return self.base.eval(r, k) ** self.e

    def key(self):
        return f"powof:({self.base.key()})^{self.e:g}"


@dataclass(frozen=True)
class Frozen(WeightSpec):
    """The level-independent weight t_j obtained by fixing the level index."""

    base: WeightSpec
    j: int
    level_free = True

    @property
    def separable(self):
        return self.base.separable

    def split(self):
        sp = self.base.split()
        if sp is None:
            return None
        s, g = sp
        scale = 2.0 ** (self.j * s)
        return 0.0, lambda r: scale * g(r)

    def eval(self, r, k=0):
        return self.base.eval(r, self.j)

    def key(self):
        return f"frozen:({self.base.key()})@{self.j}"


@dataclass(frozen=True)
class AltPow(WeightSpec):
    """|x|^(a * (-1)^k): a level-alternating exponent, outside the config grammar.

    Useful as a counterexample generator; it is deliberately not expressible
    in the serialized grammar.
    """

    a: float
    separable = False

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
    separable = False

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
    text = text.strip()
    if ":" not in text:
        raise WeightError(f"cannot parse weight {text!r}")
    head, body = text.split(":", 1)
    head = head.strip().lower()
    try:
        if head == "pow":
            return Pow(float(body))
        if head == "const":
            return Const(float(body))
        if head == "dyadic":
            return Dyadic(float(body))
        if head == "shiftpow":
            a, c = (float(x) for x in body.split(","))
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
    """A level-indexed weight family {t_k}, k_min <= k <= k_max, with its
    integrability exponent p."""

    spec: WeightSpec
    k_min: int
    k_max: int
    p: float

    def __post_init__(self):
        if self.k_min > self.k_max:
            raise WeightError("empty level range in weight sequence")
        if self.p <= 0:
            raise WeightError(f"admissibility exponent p must be positive, got {self.p}")
        object.__setattr__(self, "_grid_cache", {})

    def levels(self) -> range:
        return range(self.k_min, self.k_max + 1)

    def frozen(self, j: int) -> "WeightSequence":
        return WeightSequence(self.spec.frozen(j), self.k_min, self.k_max, self.p)

    def on_grid(self, gspec: GridSpec, k: int) -> GridFunction:
        key = (gspec, k)
        cache = self._grid_cache
        if key not in cache:
            cache[key] = self.spec.on_grid(gspec, k)
        return cache[key]

    def weigh(self, fs: VectorSequence, nonneg: bool = False) -> VectorSequence:
        """{t_k |f_k|} over this sequence's levels, which fs must hold: the
        weighted stack that every weighted band norm and maximal ratio is a
        functional of.  nonneg says that fs holds |f_k| already (a magnitude
        or maximal stack), so no absolute value is taken again.

        A level-free weight (every Frozen t_j, and pow, const, shiftpow and
        dyadic:0 with their products and powers) has one sample for all
        levels, and the stack is one broadcast multiply by it.  Dyadic and
        non-separable weights are sampled and multiplied level by level.
        Each entry is the same product t_k(x) * |f_k(x)| either way."""
        if self.k_min not in fs.levels() or self.k_max not in fs.levels():
            raise GridError(f"weight levels {self.levels()} leave the stack's {fs.levels()}")
        lo = self.k_min - fs.k_min
        rows = fs.values[lo : lo + len(self.levels())]
        mags = rows if nonneg else np.abs(rows)
        out = np.empty(rows.shape) if nonneg else mags  # np.abs made a fresh stack
        if self.spec.level_free:
            np.multiply(self.on_grid(fs.spec, self.k_min).values, mags, out=out)
        else:
            for row, mag, k in zip(out, mags, self.levels()):
                np.multiply(self.on_grid(fs.spec, k).values, mag, out=row)
        return VectorSequence(fs.spec, self.k_min, out)


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


class _Batch:
    """Representative cubes meshed alike: radius (B, K) at their nodes and
    normalized weights (K,)."""

    __slots__ = ("radius", "wts")

    def __init__(self, radius, wts):
        self.radius = radius
        self.wts = wts


class FamilyNodes:
    """Quadrature geometry for a dyadic cube family over [-R, R)^n.

    Built once per family and reused across weights and exponents.  Every
    weight is radial, so a cube's means are those of its images under the
    coordinate sign flips and, in 2D, the axis swap: cubes fall into orbits,
    each keyed by its canonical clipped intervals, and only one representative
    per orbit holds nodes.  The batches hold the representatives (every
    regular one in one batch, each cube touching the origin or the seam in a
    batch of its own), orbit maps each cube of the family to its
    representative's row, and cube(i) names the i-th cube in family order
    only when a witness is asked for (meta() lists them all).  Cube statistics are cached per (radial
    profile, exponent, inverse) for separable weights and per (weight, level,
    exponent, inverse) otherwise.  stats() computes all the statistics a
    caller asks for in one pass per profile: the profile is evaluated once
    per row chunk of about _CHUNK_NODES representative nodes, every requested
    power and extreme is taken from that evaluation, and each row is summed
    against the node weights on its own (see _reduce).
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
        self._groups: list[tuple[int, np.ndarray, bool]] = []
        lo, hi, special = [], [], []
        for v in family.levels():
            for shift in (0.0, 0.5) if family.translates else (0.0,):
                ms, a, b, s = self._level_cubes(v, shift)
                self._groups.append((v, ms, shift > 0))
                lo.append(a)
                hi.append(b)
                special.append(s)
        special = np.concatenate(special)
        self.n_cubes = special.size
        keys = self._orbit_keys(np.concatenate(lo), np.concatenate(hi))
        # cubes sorted by (special, key), so the regular representatives come
        # first; an orbit starts wherever the key changes.  np.unique(keys,
        # axis=0) finds the same orbits several times slower.
        by_key = np.lexsort((*keys.T[::-1], special))
        keys = keys[by_key]
        starts = np.ones(self.n_cubes, dtype=bool)
        starts[1:] = (keys[1:] != keys[:-1]).any(axis=1)
        self.orbit = np.empty(self.n_cubes, dtype=np.intp)
        self.orbit[by_key] = np.cumsum(starts) - 1
        keys = keys[starts]
        n_regular = int(np.count_nonzero(~special[by_key[starts]]))
        self.batches: list[_Batch] = []
        self._append_regular(keys[:n_regular, :n], keys[:n_regular, n:])
        for key in keys[n_regular:]:
            self._append_special(key[:n], key[n:])

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
        if lo.shape[0] == 0:
            return
        K = _FLAT_NODES
        offs = (np.arange(K) + 0.5) / K
        X = lo[:, :, None] + (hi - lo)[:, :, None] * offs
        if self.n == 1:
            radius = np.abs(X[:, 0])
        else:
            radius = np.hypot(X[:, 0, :, None], X[:, 1, None, :]).reshape(lo.shape[0], K * K)
        self.batches.append(_Batch(radius, np.full(K**self.n, 1.0 / K**self.n)))

    def _axis_pieces(self, a: float, b: float):
        """Node mesh for [a, b), wrapping across the seam at +R when needed."""
        pieces = [(a, min(b, self.R))] if b <= self.R else [(a, self.R), (-self.R, b - 2 * self.R)]
        nodes, wts = [], []
        for plo, phi in pieces:
            nn, ww = _axis_nodes(plo, phi, self.core_eff, _SEG_NODES, _FLAT_NODES)
            nodes.append(nn)
            wts.append(ww)
        return np.concatenate(nodes), np.concatenate(wts) / (b - a)

    def _append_special(self, lo, hi):
        axes = [self._axis_pieces(a, b) for a, b in zip(lo, hi)]
        if self.n == 1:
            radius = np.abs(axes[0][0])[None, :]
            wts = axes[0][1]
        else:
            (nx, wx), (ny, wy) = axes
            radius = np.hypot(nx[:, None], ny[None, :]).ravel()[None, :]
            wts = (wx[:, None] * wy[None, :]).ravel()
        self.batches.append(_Batch(radius, wts))

    def meta(self) -> list[tuple[int, tuple[int, ...], bool]]:
        """(v, m, translated) for every cube in family order."""
        return [(v, tuple(m), translated) for v, ms, translated in self._groups for m in ms.tolist()]

    def cube(self, i: int) -> tuple[int, tuple[int, ...], bool]:
        """meta()[i] for 0 <= i < n_cubes, found without building the list."""
        if not 0 <= i < self.n_cubes:
            raise IndexError(f"cube index {i} outside the family's {self.n_cubes} cubes")
        for v, ms, translated in self._groups:
            if i < len(ms):
                return v, tuple(ms[i].tolist()), translated
            i -= len(ms)

    # -- cube statistics ----------------------------------------------------

    def means(self, w: WeightSpec, r: float, k: int = 0) -> np.ndarray:
        """M_{Q,r}(t_k) for every cube in family order; r = inf is the node max."""
        if r != np.inf and r <= 0:
            raise WeightError(f"mean exponent must be positive, got {r}")
        return self.stats(w, [(r, False)], k)[0]

    def stats(self, w: WeightSpec, requests: list[tuple[float, bool]], k: int = 0) -> list[np.ndarray]:
        """One array per request (r, inverse): the cube r-means of t_k, or of
        t_k^-1 when inverse is set, in family order; r = +-inf gives the node
        max/min.  Ask for everything a weight needs in one call: the requests
        not yet cached share one pass.

        A separable weight 2^(k s) g is reduced once per (radial profile, r,
        inverse) and rescaled per level; any other weight once per (weight, k,
        r, inverse).  Weights are compared by value, not by key(), whose
        6-digit floats would let pow:0.3 and pow:0.3000001 share an entry.
        """
        for r, _ in requests:
            if r <= 0 and r != -np.inf:
                raise WeightError(f"statistic exponent must be positive or -inf, got {r}")
        if w.separable:
            s, g = w.split()
            prof = _profile(w)
            key, f = (prof,), None if prof == _UNIT else g
        else:
            s, key, f = 0.0, (w, k), lambda rad: w.eval(rad, k)
        missing = [req for req in dict.fromkeys(requests) if key + req not in self._cache]
        if missing:
            for req, out in zip(missing, self._reduce(f, missing)):
                self._cache[key + req] = out
        outs = []
        for r, inverse in requests:
            out = self._cache[key + (r, inverse)]
            e = s * -1.0 if inverse else s  # the exponent of PowOf(w, -1).split()
            outs.append((2.0 ** (k * e)) * out if e else out)
        return outs

    def _reduce(self, f, requests: list[tuple[float, bool]]) -> list[np.ndarray]:
        """Per cube, one array per request (r, inverse): the r-mean of f over
        its nodes, of f ** -1.0 when inverse is set, or the max (r = inf) or
        min (r = -inf).  f = None is the unit profile: its values and their
        powers are exactly 1.0, so neither is computed, and each batch sums
        one row of ones for all of its cubes.

        The statistics are taken once per orbit, on the representatives, and
        handed out to every cube in family order.  f runs once per row chunk
        and every request is taken from that one evaluation.  Each row is
        summed against the node weights on its own (_row_sums), so a cube's
        mean does not depend on how its rows are grouped into chunks or
        batches.
        """
        n_reps = sum(b.radius.shape[0] for b in self.batches)
        outs = [np.empty(n_reps) for _ in requests]
        any_inverse = any(inverse for _, inverse in requests)
        at = 0
        for b in self.batches:
            rows, K = b.radius.shape
            step = rows if f is None else max(1, _CHUNK_NODES // K)
            for lo in range(0, rows, step):
                hi = min(lo + step, rows)
                if f is None:
                    plain = inv = np.ones((1, K))
                else:
                    plain = f(b.radius[lo:hi])
                    inv = plain ** -1.0 if any_inverse else None
                for (r, inverse), out in zip(requests, outs):
                    vals = inv if inverse else plain
                    if r == np.inf:
                        out[at + lo : at + hi] = vals.max(axis=1)
                    elif r == -np.inf:
                        out[at + lo : at + hi] = vals.min(axis=1)
                    else:
                        powered = vals if f is None else vals**r
                        out[at + lo : at + hi] = _row_sums(powered, b.wts)
            at += rows
        return [(out if abs(r) == np.inf else out ** (1.0 / r))[self.orbit] for (r, _), out in zip(requests, outs)]


def _row_sums(vals: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """vals @ wts computed row by row, without BLAS.

    einsum's loop sums a row almost sequentially, so its rounding grows with
    the row length: on the 2D origin cubes (up to 57,600 nodes) it drifts
    3e-14 from the exact mean of a constant.  Rows longer than _PAIRWISE_NODES
    take numpy's pairwise sum instead; they belong to the one-cube batches
    around the origin and the seam, about 2% of the representative nodes of
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
    if isinstance(w, Frozen) and 2.0 ** (w.j * w.base.split()[0]) == 1.0:
        return _profile(w.base)
    return w


def domain_integral(w: WeightSpec, R: float, n: int, p: float, core: float, k: int = 0) -> float:
    """Graded quadrature of integral over [-R,R)^n of w^p, core scale given,
    on a mesh finer than the cube families' (16 nodes per segment, 64 flat)."""
    nodes, wts = _axis_nodes(-R, R, core, 16, 64)
    if n == 1:
        return float(w.eval(np.abs(nodes), k) ** p @ wts)
    rad = np.hypot(nodes[:, None], nodes[None, :]).ravel()
    ww = (wts[:, None] * wts[None, :]).ravel()
    return float(w.eval(rad, k) ** p @ ww)


def check_admissible(ts: WeightSequence, R: float, n: int) -> None:
    """Verify local p-integrability of every t_k by a refinement probe.

    The whole-domain integral of t_k^p is recomputed with the quadrature core
    halved; a relative move above 2% marks a divergent (non-integrable)
    singularity and raises WeightError.
    """
    levels = list(ts.levels()) if not ts.spec.separable else [ts.k_min]
    for k in levels:
        i1 = domain_integral(ts.spec, R, n, ts.p, core=2.0**-22, k=k)
        i2 = domain_integral(ts.spec, R, n, ts.p, core=2.0**-23, k=k)
        if not (np.isfinite(i1) and np.isfinite(i2)):
            raise WeightError(f"weight {ts.spec.key()} has a non-integrable p-power at level {k}")
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


def ap_constant(gamma: WeightSpec, p: float, nodes: FamilyNodes) -> float:
    """Largest cube product M_Q(gamma) * M_{Q,p'/p}(gamma^-1) over the family.

    A lower estimate of the Muckenhoupt constant that grows as the family
    refines exactly when the weight falls outside the class.
    """
    if p <= 1:
        raise WeightError(f"ap_constant needs p > 1 (use a1_constant), got {p}")
    return float(_ap_products(gamma, p, nodes).max())


def ap_witness(gamma: WeightSpec, p: float, nodes: FamilyNodes):
    prod = _ap_products(gamma, p, nodes)
    i = int(np.argmax(prod))
    return float(prod[i]), nodes.cube(i)


def _ap_products(gamma: WeightSpec, p: float, nodes: FamilyNodes) -> np.ndarray:
    """M_Q(gamma) * M_{Q,p'/p}(gamma^-1) per cube, from one pass over gamma."""
    mean, inv_mean = nodes.stats(gamma, [(1.0, False), (conjugate(p) / p, True)])
    return mean * inv_mean


def a1_constant(gamma: WeightSpec, nodes: FamilyNodes) -> float:
    """Largest cube ratio M_Q(gamma) / min_Q(gamma) over the family."""
    mean, low = nodes.stats(gamma, [(1.0, False), (-np.inf, False)])
    return float((mean / low).max())


@dataclass(frozen=True)
class RHProbe:
    best_eps: float | None
    sup_ratio: float | None
    ratios: dict
    bound: float


def reverse_holder_probe(gamma: WeightSpec, p: float, nodes: FamilyNodes, ap_ceiling: float = 1e6) -> RHProbe:
    """Largest eps in 0.05 * 2^i (i = 0..8) with
    sup_Q M_{Q,1+eps}(gamma)/M_Q(gamma) <= 1.5."""
    if ap_constant(gamma, max(p, 1.0 + 1e-9) if p <= 1 else p, nodes) > ap_ceiling:
        raise WeightError(
            f"weight {gamma.key()} exceeds the Muckenhoupt ceiling {ap_ceiling:g}; "
            "the self-improvement probe needs a class weight"
        )
    eps_grid, bound = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8), 1.5
    base, *higher = nodes.stats(gamma, [(1.0, False)] + [(1.0 + eps, False) for eps in eps_grid])
    ratios = {}
    best = None
    best_ratio = None
    for eps, mean in zip(eps_grid, higher):
        sup = float((mean / base).max())
        ratios[eps] = sup
        if sup <= bound:
            best, best_ratio = eps, sup
    return RHProbe(best, best_ratio, ratios, bound)


@dataclass(frozen=True)
class XClassReport:
    alpha: tuple[float, float]
    sigma: tuple[float, float]
    p: float
    C1: float
    C2: float
    witness1: tuple
    witness2: tuple

    def to_json(self):
        return {
            "alpha": list(self.alpha),
            "sigma": [s if np.isfinite(s) else "inf" for s in self.sigma],
            "p": self.p,
            "C1": self.C1,
            "C2": self.C2,
            "witness1": _witness_json(self.witness1),
            "witness2": _witness_json(self.witness2),
        }


def _witness_json(w):
    (k, j, (v, m, translated)) = w
    return {"k": k, "j": j, "cube": {"v": v, "m": list(m), "translated": translated}}


def _level_stats(ts: WeightSequence, nodes: FamilyNodes, sigma: tuple[float, float]):
    s1, s2 = sigma
    A, B, D = {}, {}, {}
    for k in ts.levels():
        A[k], B[k], D[k] = nodes.stats(ts.spec, [(ts.p, False), (s1, True), (s2, False)], k)
    return A, B, D


def xclass_constants(
    ts: WeightSequence,
    alpha: tuple[float, float],
    sigma: tuple[float, float],
    nodes: FamilyNodes,
    skip_admissibility: bool = False,
) -> XClassReport:
    """Sharpest constants C1, C2 in the two cross-level growth bounds

        M_{Q,p}(t_k)   M_{Q,s1}(t_j^-1) <= C1 2^(a1 (k-j))   (k <= j)
        M_{Q,s2}(t_j) / M_{Q,p}(t_k)    <= C2 2^(a2 (j-k))   (k <= j)

    over the cube family and stored levels, with argmax witnesses.
    """
    a1, a2 = alpha
    s1, s2 = sigma
    if s1 <= 0 or s2 <= 0:
        raise WeightError("sigma exponents must be positive (inf allowed)")
    if not skip_admissibility:
        check_admissible(ts, nodes.R, nodes.n)
    A, B, D = _level_stats(ts, nodes, sigma)
    C1 = -np.inf
    C2 = -np.inf
    w1 = w2 = None
    for k in ts.levels():
        for j in range(k, ts.k_max + 1):
            prod1 = A[k] * B[j] * 2.0 ** (-a1 * (k - j))
            i1 = int(np.argmax(prod1))
            if prod1[i1] > C1:
                C1, w1 = float(prod1[i1]), (k, j, nodes.cube(i1))
            prod2 = (D[j] / A[k]) * 2.0 ** (-a2 * (j - k))
            i2 = int(np.argmax(prod2))
            if prod2[i2] > C2:
                C2, w2 = float(prod2[i2]), (k, j, nodes.cube(i2))
    return XClassReport((a1, a2), (s1, s2), ts.p, C1, C2, w1, w2)


@dataclass(frozen=True)
class XClassFit:
    alpha1: float
    alpha2: float
    C1: float
    C2: float
    grid_step: float


def xclass_fit(ts: WeightSequence, sigma: tuple[float, float], nodes: FamilyNodes) -> XClassFit:
    """Fit growth exponents by grid search over [-4, 4] in steps of 0.05.

    C1 is nondecreasing in alpha1 and C2 nonincreasing in alpha2, so the
    minimum of each sits on a plateau; the fit reports the plateau edges
    (largest alpha1 and smallest alpha2 within 2% of the minimum), which
    recover the exact dyadic rate for weights of the form 2^(k s) g.
    """
    alpha_lo, alpha_hi, step, plateau_tol = -4.0, 4.0, 0.05, 0.02
    A, B, D = _level_stats(ts, nodes, sigma)
    lags = range(0, ts.k_max - ts.k_min + 1)
    M1, M2 = {}, {}
    for d in lags:
        m1 = m2 = -np.inf
        for k in ts.levels():
            j = k + d
            if j > ts.k_max:
                continue
            m1 = max(m1, float((A[k] * B[j]).max()))
            m2 = max(m2, float((D[j] / A[k]).max()))
        M1[d], M2[d] = m1, m2
    count = int(round((alpha_hi - alpha_lo) / step)) + 1
    alphas = np.round(alpha_lo + step * np.arange(count), 12)
    C1 = np.array([max(M1[d] * 2.0 ** (a * d) for d in lags) for a in alphas])
    C2 = np.array([max(M2[d] * 2.0 ** (-a * d) for d in lags) for a in alphas])
    lo1 = C1.min()
    lo2 = C2.min()
    i1 = int(np.max(np.nonzero(C1 <= lo1 * (1 + plateau_tol))[0]))
    i2 = int(np.min(np.nonzero(C2 <= lo2 * (1 + plateau_tol))[0]))
    return XClassFit(float(alphas[i1]), float(alphas[i2]), float(C1[i1]), float(C2[i2]), step)
