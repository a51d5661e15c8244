"""Named verification suites over a shared run context.

Each suite returns a JSON-able record {suite, pass, summary, records}.  All
randomness flows from the context seed, and every tolerance is pinned here,
so a configured run is reproducible byte for byte.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .grid import CubeFamily, GridFunction, GridSpec, VectorSequence, level_index_range, lp_norm, weighted_lp_norm
from .lpaley import LPPair, bump_profile, calderon_residual, check_levels, make_lp_pair, partition_sum, synthesis_profile, CoefficientSet
from .maximal import fefferman_stein_ratio, kernel_sum_ratio, maximal_fn, maximal_fn_bruteforce, weighted_maximal_ratio, window_sizes, window_sum_table
from .spaces import band_magnitudes, bmo_norm, seq_b_norm, seq_f_infty_norm, seq_f_norms, stack_norm
from .verify import (
    classical_band_magnitudes,
    classical_besov_norm,
    spike_family,
    classical_tl_norm,
    coincidence_check,
    delta_coefficient_check,
    holder_floors,
    make_corpus,
    ratio_report,
)
from .weights import (
    XCLASS_ALPHA_MAX,
    Const,
    FamilyNodes,
    Pow,
    WeightError,
    WeightSequence,
    WeightSpec,
    ap_constant,
    parse_weight,
    sigma1,
    xclass_fit,
)


DEFAULT_WEIGHT_MATRIX = {
    "w1": "const:1",
    "w2": "pow:0.3",
    "w3": "pow:-0.2",
    "w4": "shiftpow:0.4,1",
    "w5": "shiftpow:-0.3,2",
    "w6": "dyadic:0.5",
    "w7": "prod:[dyadic:1,pow:0.3]",
    "w8": "prod:[dyadic:-0.5,shiftpow:0.25,1]",
    "w9": "dyadic:2",
}

# the pass ceilings of every suite, pinned: no config sets them
CEILINGS = {
    "equivalence": 50.0,
    "coincidence": 50.0,
    "j_uniformity": 2.0,
    "ap_hypothesis": 1000.0,
    "coincidence_equivalence": 20.0,
    "seq_ratio": 20.0,
    "kernel_ratio": 100.0,
    "informational": 50.0,
}


@dataclass
class RunContext:
    """Built artifacts for one configured run.  It caches only what two or
    more suites read: the pair, the corpus, the parsed weights() matrix and
    the configured family's nodes().  An artifact one suite alone reads
    (muckenhoupt's deeper cube families; maximal's 2N pair and corpus, since
    doubled() caches nothing) is built inside that suite and freed with it.
    A member's band magnitudes are formed inside each suite's member loop and
    dropped before the next member's, and a suite that reads only the pair's
    level window takes levels(), which builds no pair."""

    spec: GridSpec
    k_min: int
    k_max: int
    family: CubeFamily
    corpus_size: int = 32
    seed: int = 20260808
    weight_matrix: dict = field(default_factory=lambda: dict(DEFAULT_WEIGHT_MATRIX))
    exponent_pairs: tuple = ((2.0, 1.2), (3.0, 1.5))

    def __post_init__(self):
        self._cache: dict = {}

    # -- lazily built artifacts, each built once ------------------------------

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def levels(self) -> tuple[int, int]:
        """(k_min, k_max) of the pair: the configured levels capped at the
        grid's window, refused (LevelError) as make_lp_pair refuses them."""
        k_max = min(self.k_max, self.spec.level_window()[1])
        check_levels(self.spec, self.k_min, k_max)
        return self.k_min, k_max

    def pair(self) -> LPPair:
        """The band pair on this grid, over levels()."""
        return self._cached("pair", lambda: make_lp_pair(self.spec, *self.levels()))

    def corpus(self):
        return self._cached("corpus", lambda: make_corpus(self.spec, self.pair(), self.corpus_size, self.seed))

    def nodes(self) -> FamilyNodes:
        """The quadrature nodes of the configured cube family."""
        return self._cached(("nodes", self.family), lambda: FamilyNodes(self.spec.R, self.spec.n, self.family))

    def doubled(self) -> "RunContext":
        """This run on the grid of 2N points per axis: a fresh context on each
        call, so what it builds lives only as long as its reader holds it."""
        return replace(self, spec=GridSpec(self.spec.n, self.spec.R, self.spec.N * 2))

    def weights(self) -> dict[str, WeightSpec]:
        """The weight matrix parsed, by name in sorted order."""
        return self._cached("weights", lambda: {name: parse_weight(self.weight_matrix[name])
                                                for name in sorted(self.weight_matrix)})


def _suite(name, summary, records, passed=None):
    """The suite's report: it passes when every record passes.  Four suites
    give passed, a verdict resting on values no record carries: selfequiv
    (its doubling ratio), partition and seqnorm (no records) and calderon
    (records without a pass); it goes when ROADMAP item 4 gives them records."""
    passed = all(rec["pass"] for rec in records) if passed is None else passed
    return {"suite": name, "pass": bool(passed), "summary": summary, "records": records}


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_selfequiv(ctx: RunContext) -> dict:
    """Sanity: a norm is equivalent to itself with all ratios exactly 1, and
    doubling a weight doubles every weighted norm."""
    corpus = ctx.corpus()
    names = [mem.name for mem in corpus]
    norms = [lp_norm(np.abs(mem.f.values), ctx.spec.cell_measure, 2.0) for mem in corpus]
    rep = ratio_report(names, norms, norms, ceiling=1.0 + 1e-12)
    w = Pow(0.3).on_grid(ctx.spec)
    w2 = GridFunction(ctx.spec, 2.0 * w.values)
    rep2 = ratio_report(
        names,
        [weighted_lp_norm(mem.f, w, 2.0) for mem in corpus],
        [weighted_lp_norm(mem.f, w2, 2.0) for mem in corpus],
        ceiling=1.0 + 1e-12,
        name_a="Lp(t)",
        name_b="Lp(2t)",
    )
    ok = rep["pass"] and rep2["pass"] and abs(rep2["min_ratio"] - 2.0) < 1e-12
    return _suite("selfequiv", {"identity_spread": rep["spread"], "doubling_ratio": rep2["min_ratio"]},
                  [rep, rep2], passed=ok)


def suite_muckenhoupt(ctx: RunContext) -> dict:
    """Power-weight criterion at p = 2: estimates stay put (<5% per two extra
    levels) strictly inside the class and grow at least 10x over ten extra
    levels outside it."""
    p = 2.0
    base = ctx.nodes()
    records = []

    def deeper(extra: int) -> FamilyNodes:
        return FamilyNodes(ctx.spec.R, ctx.spec.n, replace(ctx.family, v_max=ctx.family.v_max + extra))

    # no other suite reads the deeper families: each is built here and
    # dropped before the next, so the two never exist at once
    stable, grow = [Pow(a) for a in (-0.5, 0.0, 0.5, 0.9)], [Pow(a) for a in (1.5, 2.0)]
    c_base = ap_constant(stable + grow, p, base)  # one pass per family
    plus2 = deeper(2)
    for w, c0, c2 in zip(stable, c_base, ap_constant(stable, p, plus2)):
        drift = abs(c2 / c0 - 1.0)
        records.append({"alpha": w.a, "kind": "stable", "base": c0, "plus2": c2, "drift": drift, "pass": drift < 0.05})
    del plus2
    plus10 = deeper(SUITES["muckenhoupt"].family_depth)
    for w, c0, c10 in zip(grow, c_base[len(stable):], ap_constant(grow, p, plus10)):
        growth = c10 / c0
        records.append({"alpha": w.a, "kind": "grow", "base": c0, "plus10": c10, "growth": growth,
                        "pass": growth >= 10.0})
    return _suite("muckenhoupt", {"alphas": 6}, records)


def suite_hoelder(ctx: RunContext) -> dict:
    """Cube products M_{Q,p}(t) M_{Q,s1}(t^-1) never drop below 1."""
    nodes = ctx.nodes()
    records = []
    weights = ctx.weights()
    for name, floors in zip(weights, holder_floors(weights.values(), ctx.exponent_pairs, nodes)):
        for (p, theta), floor in zip(ctx.exponent_pairs, floors):
            records.append({"weight": name, "p": p, "theta": theta, "floor": floor, "pass": floor >= 1.0 - 1e-12})
    return _suite("hoelder", {"weights": len(ctx.weight_matrix)}, records)


def suite_partition(ctx: RunContext) -> dict:
    """Exact annulus support, plateau lower bound, and the telescoping
    partition of unity at every resolved grid frequency."""
    pair = ctx.pair()
    spec = ctx.spec
    ps = partition_sum(pair)
    rho = spec.freq_radius()
    lo, hi = pair.annulus()
    mask = (rho >= lo) & (rho <= hi)
    dev = float(np.abs(ps[mask] - 1.0).max())
    support_ok = (
        float(bump_profile(np.array([0.499]))[0]) == 0.0
        and float(bump_profile(np.array([2.001]))[0]) == 0.0
    )
    probe = np.linspace(0.6, 5.0 / 3.0, 2049)
    plateau_min_phi = float(bump_profile(probe).min())
    plateau_min_psi = float(synthesis_profile(probe).min())
    ok = dev <= 1e-12 and support_ok and plateau_min_psi > 0
    return _suite(
        "partition",
        {
            "max_deviation": dev,
            "resolved_frequencies": int(mask.sum()),
            "plateau_min_phi": plateau_min_phi,
            "plateau_min_psi": plateau_min_psi,
            "support_exact": support_ok,
        },
        [],
        passed=ok,
    )


def suite_calderon(ctx: RunContext) -> dict:
    """Reproduction residual of the coefficient transform on the corpus."""
    pair = ctx.pair()
    records = [{"member": mem.name, "residual": calderon_residual(mem.f, pair)} for mem in ctx.corpus()]
    worst = max(rec["residual"] for rec in records)
    return _suite("calderon", {"max_residual": worst, "members": len(records)}, records, passed=worst <= 1e-6)


def suite_classical(ctx: RunContext) -> dict:
    """Dyadic weight sequences reproduce the fixed-smoothness norms to 1e-12."""
    pair = ctx.pair()
    seqs = {s: WeightSequence(parse_weight(f"dyadic:{s}"), pair.k_min, pair.k_max) for s in (-1.0, 0.0, 0.5, 2.0)}
    exponents = ((2.0, 2.0), (2.0, np.inf))
    worst = {(s, p, q): [0.0, 0.0] for s in seqs for p, q in exponents}  # Besov, Triebel-Lizorkin
    # member outermost: one set of oracle magnitudes and one magnitude stack
    # per member, and one weighted stack per (member, s) serving every
    # exponent pair and space
    for mem in ctx.corpus():
        oracle = classical_band_magnitudes(mem.f, pair)
        mags = band_magnitudes(mem.f, pair)
        for s, ws in seqs.items():
            wb = ws.weigh(mags)
            for p, q in exponents:
                got_b = stack_norm(wb, "B", p, q, ctx.family)
                got_f = stack_norm(wb, "F", p, q, ctx.family)
                w = worst[s, p, q]
                w[0] = max(w[0], abs(got_b / classical_besov_norm(oracle, s, p, q) - 1.0))
                w[1] = max(w[1], abs(got_f / classical_tl_norm(oracle, s, p, q) - 1.0))
        del oracle, mags, wb  # before the next member's transform, which sets the peak
    records = [{"s": s, "p": p, "q": q, "besov_rel_err": worst_b, "tl_rel_err": worst_f,
                "pass": worst_b <= 1e-12 and worst_f <= 1e-12} for (s, p, q), (worst_b, worst_f) in worst.items()]
    return _suite("classical", {"cases": len(records)}, records)


def _random_coefficient_sets(ctx: RunContext):
    rng = np.random.default_rng(ctx.seed + 1)
    k_hi = ctx.levels()[1]  # grid-resolvable cap; shared by the doubled grid
    sets = []
    for _ in range(64):
        entries = []
        for _ in range(int(rng.integers(8, 33))):
            k = int(rng.integers(ctx.k_min, k_hi + 1))
            m = int(rng.integers(*level_index_range(ctx.spec.R, k)))
            entries.append(((k, (m,) * ctx.spec.n), complex(rng.normal(), rng.normal())))
        sets.append(CoefficientSet.from_entries(ctx.spec.n, ctx.spec.R, entries))
    return sets


def _seq_ratio_extreme(ctx: RunContext, sets) -> float:
    # p = q makes the two forms coincide identically (disjoint cube sums), so
    # the two-sided comparison runs at p != q where cross-level mixing matters
    levels = ctx.levels()
    worst = 1.0
    for w in ctx.weights().values():
        # one sequence, so one sampling per grid for both (p, q)
        ws = WeightSequence(w, *levels)
        for p, q in ((2.0, 1.0), (1.5, 3.0)):
            for plain, star in seq_f_norms(sets, ws, ctx.spec, p, q):
                r = plain / star
                worst = max(worst, r, 1.0 / r)
    return worst


# lone-coefficient cases (k, m) of suite_seqnorm, position m on every axis
SEQNORM_SINGLE_CASES = ((-2, 0), (0, 3), (3, -5), (6, 17))


def seqnorm_single_cases(R: float, k_min: int, k_max: int) -> list[tuple[int, int]]:
    """The SEQNORM_SINGLE_CASES inside the levels [k_min, k_max] whose
    position is a level-k cube meeting [-R, R)^n."""
    out = []
    for k, m in SEQNORM_SINGLE_CASES:
        lo, hi = level_index_range(R, k)
        if k_min <= k <= k_max and lo <= m < hi:
            out.append((k, m))
    return out


def suite_seqnorm(ctx: RunContext) -> dict:
    """Direct and cube-aggregated sequence norms: exact agreement on lone
    coefficients, bounded two-sided ratios on random sets, stable under grid
    doubling."""
    spec = ctx.spec
    levels = ctx.levels()
    ceiling = CEILINGS["seq_ratio"]
    ws = WeightSequence(Pow(0.3), *levels)
    family = CubeFamily(*levels)
    single_worst = 0.0
    for k, m in seqnorm_single_cases(spec.R, *levels):
        coeffs = CoefficientSet.from_entries(spec.n, spec.R, [((k, (m,) * spec.n), 1.0 + 0.5j)])
        for plain, star in (seq_b_norm(coeffs, ws, spec, 2.0, 2.0), seq_f_norms([coeffs], ws, spec, 2.0, 2.0)[0],
                            seq_f_infty_norm(coeffs, ws, spec, 2.0, family)):
            single_worst = max(single_worst, abs(plain / star - 1.0))
    sets = _random_coefficient_sets(ctx)
    c_base = _seq_ratio_extreme(ctx, sets)
    c_dbl = _seq_ratio_extreme(ctx.doubled(), sets)
    drift = c_dbl / c_base
    ok = single_worst <= 1e-12 and c_base <= ceiling and 0.5 < drift < 2.0
    return _suite(
        "seqnorm",
        {
            "single_coeff_rel_err": single_worst,
            "ratio_extreme": c_base,
            "ratio_extreme_2N": c_dbl,
            "drift": drift,
            "ceiling": ceiling,
        },
        [],
        passed=ok,
    )


def suite_newnorm(ctx: RunContext) -> dict:
    """Level-frozen weight comparison: the spread of norm({t_k}) against
    norm(t_j) stays under the equivalence ceiling, uniformly in j."""
    pair = ctx.pair()
    ceiling = CEILINGS["equivalence"]
    uniformity = CEILINGS["j_uniformity"]
    cases = [
        ("F", 2.0, 2.0),
        ("B", 2.0, 2.0),
        ("F", 2.0, np.inf),
        ("B", 2.0, np.inf),
        ("F_inf", np.inf, 2.0),
    ]
    weights = ("pow:0.3", "pow:-0.2")
    js = range(-3, 4)
    # weight outermost, so one weight's 8 sequences live at a time; each
    # member's stack is formed once per weight, weighed once per sequence,
    # and the weighted stack serves every case
    norms = {}  # (weight, j) -> per member, one norm per case; j = None is {t_k} itself
    for wtext in weights:
        ws = WeightSequence(parse_weight(wtext), pair.k_min, pair.k_max)
        seqs = {j: ws if j is None else ws.frozen(j) for j in (None, *js)}
        for j in seqs:
            norms[wtext, j] = []
        for mem in ctx.corpus():
            mags = band_magnitudes(mem.f, pair)
            for j, wj in seqs.items():
                wb = wj.weigh(mags)
                norms[wtext, j].append([stack_norm(wb, tag, p, q, ctx.family) for tag, p, q in cases])
            del mags, wb
    records = []
    for wtext in weights:
        for i, (tag, p, q) in enumerate(cases):
            seq_vals = [vals[i] for vals in norms[wtext, None]]
            spreads = {}
            for j in js:
                ratios = [sv / vals[i] for sv, vals in zip(seq_vals, norms[wtext, j]) if sv > 0]
                spreads[j] = max(ratios) / min(ratios)
            worst = max(spreads.values())
            uni = max(spreads.values()) / min(spreads.values())
            records.append(
                {
                    "weight": wtext,
                    "space": tag,
                    "p": p,
                    "q": q,
                    "spread_by_j": {str(j): s for j, s in sorted(spreads.items())},
                    "max_spread": worst,
                    "j_uniformity": uni,
                    "pass": worst <= ceiling and uni < uniformity,
                }
            )
    return _suite("newnorm", {"cases": len(records)}, records)


def suite_coincidence(ctx: RunContext) -> dict:
    """Positive fixtures (t, c t) must pass; the opposite-power fixture must
    fail in every guise: cube condition, lone-coefficient ratios, weighted
    Lebesgue comparison, and the full band-norm comparison."""
    spec = ctx.spec
    pair = ctx.pair()
    corpus = ctx.corpus()
    nodes = ctx.nodes()
    ceiling = CEILINGS["coincidence"]
    ap_ceiling = CEILINGS["ap_hypothesis"]
    records = []
    w = Pow(0.3)
    for c in (0.1, 1.0, 7.0):
        scaled = Const(c) * w if c != 1.0 else w
        res = coincidence_check(w, scaled, 2.0, 1.1, nodes, ceiling, ap_ceiling)
        dok, dinfo = delta_coefficient_check(w, scaled, 2.0, spec, range(pair.k_min, pair.k_max + 1), ceiling)
        records.append({"fixture": f"scale_{c:g}", "expected": "pass", "coincidence": res,
                        "delta": dinfo, "delta_pass": dok, "pass": res["pass"] and dok})
    t1, t2 = Pow(0.3), Pow(-0.3)
    res = coincidence_check(t1, t2, 2.0, 1.5, nodes, ceiling, ap_ceiling)
    dok, dinfo = delta_coefficient_check(t1, t2, 2.0, spec, range(pair.k_min, pair.k_max + 1), ceiling)
    g1, g2 = t1.on_grid(spec), t2.on_grid(spec)
    # origin-concentrated members are the discriminating witnesses for
    # weights that differ only in their origin behavior
    spikes = spike_family(spec, pair)
    witnesses = corpus + spikes
    names = [mem.name for mem in witnesses]
    # band-limited witnesses on this domain separate the opposite powers by
    # a factor ~40, so the norm-comparison reports get their own ceiling
    eq_ceiling = CEILINGS["coincidence_equivalence"]
    rep_lp = ratio_report(
        names,
        [weighted_lp_norm(mem.f, g1, 2.0) for mem in witnesses],
        [weighted_lp_norm(mem.f, g2, 2.0) for mem in witnesses],
        eq_ceiling, "Lp(t1)", "Lp(t2)",
    )
    seqs = [WeightSequence(t, pair.k_min, pair.k_max) for t in (t1, t2)]
    # each witness's stack, f22's argument, is dropped before the next is formed
    def f22(mags):
        return [stack_norm(ws.weigh(mags), "F", 2.0, 2.0, ctx.family) for ws in seqs]

    rep_f = ratio_report(names, *zip(*[f22(band_magnitudes(mem.f, pair)) for mem in witnesses]),
                         eq_ceiling, "F22(t1)", "F22(t2)")
    negative_ok = (
        (not res["pass"])
        and res["spread"] > 1e3
        and (not dok)
        and (not rep_lp["pass"])
        and (not rep_f["pass"])
    )
    records.append(
        {
            "fixture": "opposite_powers",
            "expected": "fail",
            "coincidence": res,
            "delta": dinfo,
            "delta_pass": dok,
            "lp_report": rep_lp,
            "band_report": rep_f,
            "pass": negative_ok,
        }
    )
    return _suite("coincidence", {"fixtures": len(records)}, records)


def suite_maximal(ctx: RunContext) -> dict:
    """Vector maximal ratios bounded and resolution-stable; cross-level kernel
    sums bounded at the predicted rates; the doubling table matches direct
    window sums."""
    spec = ctx.spec
    pair = ctx.pair()
    records = []

    s = 1.0
    kernel_ws = WeightSequence(parse_weight(f"dyadic:{s}"), pair.k_min, pair.k_max)
    kernels = (("below", s + 1.0), ("above", s - 1.0))

    def corpus_ratios(c: RunContext, kernel_members: int):
        """Member names, Fefferman-Stein and weighted ratios per member, and
        per kernel direction the ratios of the first kernel_members members.
        A member's band magnitudes and maximal stack are built once, serve
        all its ratios and are dropped before the next member's."""
        ws = WeightSequence(Pow(0.3), c.pair().k_min, c.pair().k_max)
        names, fs_ratios, wm_ratios = [], [], []
        kernel_ratios = {direction: [] for direction, _ in kernels}
        for i, mem in enumerate(c.corpus()):
            fs = band_magnitudes(mem.f, c.pair())
            Ms = maximal_fn(fs)
            names.append(mem.name)
            fs_ratios.append(fefferman_stein_ratio(fs, 2.0, 2.0, Ms))
            wm_ratios.append(weighted_maximal_ratio(fs, ws, 2.0, Ms, q=np.inf))
            if i < kernel_members:
                for direction, K in kernels:
                    kernel_ratios[direction].append(kernel_sum_ratio(fs, kernel_ws, K, direction, 2.0, 2.0, Ms))
            del fs, Ms
        return names, fs_ratios, wm_ratios, kernel_ratios

    names, fs_rows, wm_rows, kernel_rows = corpus_ratios(ctx, 8)
    _, fs_rows_2N, wm_rows_2N, _ = corpus_ratios(ctx.doubled(), 0)

    # one N-vs-2N rule: each ratio's corpus maximum moves less than 10%
    stable = (({"check": "fefferman_stein", "p": 2.0, "q": 2.0, "sigma": 1.0}, fs_rows, fs_rows_2N),
              ({"check": "weighted_maximal", "weight": "pow:0.3", "p": 2.0, "q": "inf"}, wm_rows, wm_rows_2N))
    for head, rows, rows_2N in stable:
        base, dbl = max(rows), max(rows_2N)
        drift = abs(dbl / base - 1.0)
        records.append({**head, "ratio": base, "ratio_2N": dbl, "drift": drift, "pass": drift < 0.10,
                        "members": [{"corpus_id": n, "ratio": r} for n, r in zip(names, rows)]})

    kceil = CEILINGS["kernel_ratio"]
    for direction, K in kernels:
        worst = max([0.0, *kernel_rows[direction]])
        records.append({"check": f"kernel_sum_{direction}", "K": K, "ratio": worst,
                        "ceiling": kceil, "pass": worst < kceil})

    rng = np.random.default_rng(ctx.seed + 2)
    vals = rng.normal(size=spec.shape)
    sizes = window_sizes(spec)
    table = window_sum_table(np.abs(vals), sizes)
    ext = np.tile(np.abs(vals), (2,) * spec.n)
    worst_err = 0.0
    for _ in range(1000):
        w = sizes[int(rng.integers(0, len(sizes)))]
        corner = tuple(int(rng.integers(0, spec.N)) for _ in range(spec.n))
        direct = ext[tuple(slice(i, i + w) for i in corner)].sum()
        worst_err = max(worst_err, abs(table[w][corner] - direct) / max(direct, 1e-300))
    small = GridSpec(spec.n, spec.R, 128 if spec.n == 1 else 16)
    fsmall = GridFunction(small, rng.normal(size=small.shape))
    fast = maximal_fn(VectorSequence(small, 0, np.abs(fsmall.values)[None]))[0]
    diff = np.abs(fast - maximal_fn_bruteforce(fsmall).values).max()
    records.append({"check": "fast_vs_bruteforce", "window_rel_err": worst_err,
                    "maximal_abs_err": float(diff), "pass": worst_err <= 1e-12 and diff <= 1e-12})
    return _suite("maximal", {"checks": len(records)}, records)


def suite_xclassfit(ctx: RunContext) -> dict:
    """Fitted growth exponents satisfy the order relation alpha2 >= alpha1
    (up to the fit grid step) on the admissible weight matrix."""
    nodes = ctx.nodes()
    records = []
    p, theta = 2.0, 1.2
    s1 = sigma1(p, theta)
    weights = ctx.weights()
    seqs = [WeightSequence(w, ctx.k_min, ctx.k_max) for w in weights.values()]
    for name, fit in zip(weights, xclass_fit(seqs, p, (s1, p), nodes)):
        records.append({"weight": name, **fit, "pass": fit["alpha2"] >= fit["alpha1"] - fit["grid_step"] - 1e-12})
    return _suite("xclassfit", {"weights": len(records)}, records)


def suite_bmo(ctx: RunContext) -> dict:
    """Oscillation norm against the Carleson band norm at unit weight: the
    two stay within a fixed factor on the corpus (reported, pass at the
    informational ceiling)."""
    pair = ctx.pair()
    ws = WeightSequence(Const(1.0), pair.k_min, pair.k_max)
    corpus = ctx.corpus()
    rep = ratio_report(
        [mem.name for mem in corpus],
        [bmo_norm(mem.f, ctx.family) for mem in corpus],
        [stack_norm(ws.weigh(band_magnitudes(mem.f, pair)), "F_inf", np.inf, 2.0, ctx.family) for mem in corpus],
        ceiling=CEILINGS["informational"], name_a="BMO", name_b="Finf2",
    )
    summary = {"spread": rep["spread"], "min": rep["min_ratio"], "max": rep["max_ratio"]}
    return _suite("bmo", summary, [rep])


# ---------------------------------------------------------------------------
# What each suite needs from a config, refused before the run
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")


def require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(field, message)


@contextmanager
def refused(field: str, *errors: type[Exception]):
    """Refuse field with the message of any of errors its block raises."""
    try:
        yield
    except errors as exc:
        raise ConfigError(field, str(exc)) from None


def require_level_factors(w, levels, field: str) -> None:
    """Refuse w, a weight of the config grammar, unless the level factor
    2^(k s) of its total rate s, the one factor its eval forms, is positive
    and finite in double precision, -1075 < k s < 1024, on the ascending
    levels.  k s is linear in k, so the two ends decide; s = 0 gives 1."""
    s, ends = w.split()[0], (levels[0], levels[-1])
    require(s == 0 or all(abs(k) <= sys.float_info.max and -1075 < k * s < 1024 for k in ends), field,
            f"{w.key()} forms the level factor 2^({s:g} k), which leaves double precision on levels {list(ends)}")


def require_on_grid(ws: WeightSequence, grids, field: str) -> None:
    """Refuse the weight of field unless ws.on_grid, as the run samples it,
    finds every t_k positive and finite on the grids (an overflow, say)."""
    with refused(field, WeightError), np.errstate(over="ignore", invalid="ignore"):
        for spec in grids:
            for k in ws.levels():
                ws.on_grid(spec, k)


def _refuse_seqnorm(ctx: RunContext) -> None:
    """seqnorm reads the matrix off level 0, samples it on the grid and the doubled
    grid, and needs a lone-coefficient case in the level window capped at the grid."""
    k_lo, k_hi = ctx.levels()
    for name, w in ctx.weights().items():
        require_level_factors(w, range(ctx.k_min, ctx.k_max + 1), f"weights.{name}")
        require_on_grid(WeightSequence(w, k_lo, k_hi), [ctx.spec, ctx.doubled().spec], f"weights.{name}")
    require(bool(seqnorm_single_cases(ctx.spec.R, k_lo, k_hi)), "levels", "seqnorm needs one of its "
            f"lone-coefficient cases (k, m) {SEQNORM_SINGLE_CASES} inside levels [{k_lo}, {k_hi}] with m a "
            f"level-k position on R={ctx.spec.R:g}")


def refuse_xclass(ctx: RunContext) -> None:
    """xclass_fit (xclassfit, lpw weights xclass) reads the matrix off level 0
    and searches growth exponents in [-XCLASS_ALPHA_MAX, XCLASS_ALPHA_MAX]."""
    for name, w in ctx.weights().items():
        require_level_factors(w, range(ctx.k_min, ctx.k_max + 1), f"weights.{name}")
        s = w.split()[0]
        require(abs(s) <= XCLASS_ALPHA_MAX, f"weights.{name}", f"{w.key()} grows at the dyadic rate {s:g}, "
                f"outside the exponents [-{XCLASS_ALPHA_MAX:g}, {XCLASS_ALPHA_MAX:g}] that xclass_fit searches")


@dataclass(frozen=True)
class Suite:
    """A suite and what it needs from a config, read by cli.check_runnable before the run."""

    run: Callable[[RunContext], dict]
    pair: bool = False  # it builds the corpus or the annulus mask, so a grid frequency must lie in the annulus
    family_depth: int | None = None  # it builds cube quadratures (FamilyNodes), this many levels past cubes.v_max
    scans: bool = False  # it runs Carleson scans, which sum each cube's levels from its own level up
    one_d: str | None = None  # why it has no 2D form yet
    refuse: Callable[[RunContext], None] | None = None  # a rule only it has, which raises ConfigError


SUITES = {
    "selfequiv": Suite(suite_selfequiv, pair=True),
    "hoelder": Suite(suite_hoelder, family_depth=0),
    "muckenhoupt": Suite(suite_muckenhoupt, family_depth=10, one_d="its alphas bound the 1D class: |x|^a is in "
                         "A_p(R^n) iff -n < a < n(p-1), so its 'grow' case a = 1.5 lies inside the 2D class at "
                         "p = 2, and its v_max + 10 cube family is too deep for 2D node counts"),
    "partition": Suite(suite_partition, pair=True),
    "calderon": Suite(suite_calderon, pair=True),
    "classical": Suite(suite_classical, pair=True),
    "seqnorm": Suite(suite_seqnorm, refuse=_refuse_seqnorm),
    "newnorm": Suite(suite_newnorm, pair=True, scans=True),
    "coincidence": Suite(suite_coincidence, pair=True, family_depth=0,
                         one_d="its origin spikes (verify.spike_family) are 1D members"),
    "maximal": Suite(suite_maximal, pair=True),
    "xclassfit": Suite(suite_xclassfit, family_depth=0, refuse=refuse_xclass),
    "bmo": Suite(suite_bmo, pair=True, scans=True),
}

ALL_SUITES = {name: s.run for name, s in SUITES.items()}
