"""Batch front end: validate a JSON config, run norm computations, weight
reports and verification suites, and render reports.

Exit codes: 0 success / all suites pass, 1 suite failure, 2 configuration or
usage error, 3 crash (an uncaught exception, named on stderr).  Reports are
serialized with sorted keys and fixed layout so a given config and seed
reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .grid import CubeFamily, GridError, GridFunction, GridSpec, load_grid_function, save_grid_function, weighted_lp_norm
from .lpaley import LevelError, band_decompose
from .spaces import band_magnitudes, bmo_norm, build_dictionary, hardy_grand_norm, stack_norm
from .verify import annulus_indices, make_corpus
from .suites import (
    ALL_SUITES,
    DEFAULT_WEIGHT_MATRIX,
    SUITES,
    ConfigError,
    RunContext,
    refuse_xclass,
    refused,
    require,
    require_level_factors,
    require_on_grid,
)
from .weights import (WeightError, WeightSequence, ap_witness, check_admissible, parse_weight, sigma1,
                      xclass_constants, xclass_fit)


# The most cubes a command's deepest cube family may hold: at about 0.35 kB
# of peak memory a cube (1D muckenhoupt: 188.4 MB at 510,750 cubes), 2^20
# cubes stay near 0.4 GB, 5.4 times default.json's 192,516, while cubes.v_max
# 1010 on smoke.json (4,154,410 cubes) ran out of memory at 1.8 GB.
CUBE_BUDGET = 1 << 20


def _parse_exponent(value, field: str) -> float:
    if value in ("inf", "Infinity"):
        return math.inf
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    # float() would take true as 1.0
    require(not isinstance(value, bool) and out > 0, field, f"expected a positive number or 'inf', got {value!r}")
    return out


class RunConfig:
    """Validated run configuration; every module precondition is checked here,
    the per-command ones by check_runnable, so nothing fails mid-run.  The
    grid, levels, cube family, corpus, weights and exponents live in ctx,
    the run's one context; the command options live here.  The pass
    ceilings are pinned in suites.CEILINGS, and a config that sets them is
    refused."""

    def __init__(self, raw: dict, seed_override: int | None = None):
        self.raw = raw
        self._read: dict[str | None, set[str]] = {}  # the fields read, by section; None for top-level
        require(self._flag("grid.offset", True), "grid.offset", "must be true: samples sit at the cell centres, "
                "since the plain lattice -R + i h holds the origin, where pow weights have no positive finite value")
        with refused("grid", GridError, OverflowError):  # GridSpec overflows on an N past the largest double
            spec = GridSpec(
                n=self._int("grid.n", 1),
                R=self._number("grid.R", 8.0),
                N=self._int("grid.N", 4096),
            )
        k_min = self._int("levels.k_min", -3)
        k_max = self._int("levels.k_max", 8)
        require(k_min <= k_max, "levels.k_min", "k_min exceeds k_max")
        v_min = self._int("cubes.v_min", -4)
        v_max = self._int("cubes.v_max", 9)
        require(v_min <= v_max, "cubes.v_min", "v_min exceeds v_max")
        with refused("cubes.v_min", GridError):
            spec.cells(v_min)
        max_per_level = self._int("cubes.max_per_level", 8192)
        require(self._flag("cubes.translates", True), "cubes.translates",
                "must be true: every cube family carries its half-side translates")
        with refused("cubes", GridError):
            family = CubeFamily(v_min, v_max, max_per_level)
        corpus_size = self._int("corpus.size", 32)
        require(corpus_size >= 1, "corpus.size", "must be at least 1")
        seed = self._int("corpus.seed", 20260808)
        seed = int(seed_override) if seed_override is not None else seed
        require(seed >= 0, "corpus.seed", "must be nonnegative")
        require("ceilings" not in raw, "ceilings", "the pass ceilings are pinned in suites.CEILINGS; "
                "a config cannot set them")
        weight_matrix = dict(self._table("weights", DEFAULT_WEIGHT_MATRIX))
        for name, text in weight_matrix.items():
            with refused(f"weights.{name}", WeightError):
                parse_weight(text)
        pairs = self._get("exponents", [[2.0, 1.2], [3.0, 1.5]])
        require(isinstance(pairs, list) and bool(pairs), "exponents",
                f"expected a list of one or more [p, theta] pairs, got {pairs!r}")
        exponent_pairs = []
        for i, pq in enumerate(pairs):
            require(isinstance(pq, list) and len(pq) == 2, f"exponents[{i}]", f"expected [p, theta], got {pq!r}")
            p = _parse_exponent(pq[0], f"exponents[{i}].p")
            theta = _parse_exponent(pq[1], f"exponents[{i}].theta")
            require(theta < p, f"exponents[{i}].theta", f"needs theta < p, got {theta} >= {p}")
            exponent_pairs.append((p, theta))
        suites = self._get("suites", list(ALL_SUITES))
        require(isinstance(suites, list) and bool(suites) and all(isinstance(name, str) for name in suites),
                "suites", f"expected a list of one or more suite names, got {suites!r}")
        self.suites = list(suites)
        for i, name in enumerate(self.suites):
            require(name in ALL_SUITES, "suites", f"unknown suite {name!r}")
            require(name not in self.suites[:i], "suites", f"{name!r} is named twice, so verify all would run it twice")
        self.norm_space = self._get("norm.space", "F")
        require(self.norm_space in ("B", "F", "F_inf", "Lp", "Hardy", "BMO"), "norm.space",
                f"unknown space {self.norm_space!r}")
        self.norm_p = _parse_exponent(self._get("norm.p", 2.0), "norm.p")
        self.norm_q = _parse_exponent(self._get("norm.q", 2.0), "norm.q")
        if self.norm_space == "F":
            require(math.isfinite(self.norm_p), "norm.p", "F-norms need p < inf")
        if self.norm_space == "F_inf":
            require(math.isfinite(self.norm_q), "norm.q", "F_inf norms need q < inf")
        with refused("norm.weight", WeightError):
            self.norm_weight = parse_weight(self._get("norm.weight", "pow:0.3"))
        self.frozen_level = self._int("norm.frozen_level", 0)
        self.member = self._int("decompose.member", 0)
        require(0 <= self.member < corpus_size, "decompose.member",
                f"{self.member} names no member of the corpus, whose members are 0 to {corpus_size - 1}")
        # "corpus" or the file that lpw norm or lpw decompose reads
        self.inputs = {command: self._get(f"{command}.input", "corpus") for command in ("norm", "decompose")}
        # the reads above are the one statement of the schema: a key that
        # none of them asks for, a misspelt one say, would run the defaults
        for key, value in raw.items():
            if key not in self._read[None]:
                known = sorted({*self._read[None], *filter(None, self._read)})
                require(key in self._read, key, f"no such section or field; the config has {known}")
                for name in value:
                    require(name in self._read[key], f"{key}.{name}",
                            f"no such field; {key} has {sorted(self._read[key])}")
        # the run's one context: every command takes its pair and corpus from it
        self.ctx = RunContext(spec, k_min, k_max, family, corpus_size, seed, weight_matrix, tuple(exponent_pairs))
        with refused("levels", LevelError):
            self.ctx.levels()

    def _get(self, field: str, default):
        """The value of field, "section.name" or a top-level name, or default
        where the config leaves it out; each read is recorded."""
        section, _, name = field.rpartition(".")
        self._read.setdefault(section or None, set()).add(name)
        values = self.raw.get(section, {}) if section else self.raw
        # a section given as a number would run its defaults
        require(isinstance(values, dict), section, f"expected an object of fields, got {values!r}")
        return values.get(name, default)

    def _int(self, field: str, default) -> int:
        value = self._get(field, default)
        # int() would take true as 1 and truncate 512.5 to 512
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ConfigError(field, f"expected an integer, got {value!r}")
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(field, f"expected an integer, got {value!r}") from None

    def _number(self, field: str, default) -> float:
        value = self._get(field, default)
        try:
            out = float(value)
        except (TypeError, ValueError, OverflowError):
            out = math.nan
        require(not isinstance(value, bool) and math.isfinite(out), field, f"expected a finite number, got {value!r}")
        return out

    def _flag(self, field: str, default: bool) -> bool:
        value = self._get(field, default)
        # bool("false") is True
        require(isinstance(value, bool), field, f"expected true or false, got {value!r}")
        return value

    def _table(self, field: str, default) -> dict:
        value = self._get(field, default)
        require(isinstance(value, dict) and bool(value), field,
                f"expected an object of one or more named entries, got {value!r}")
        return value

    def check_runnable(self, suites: list[str], corpus: bool = False, norm: bool = False, weights: str | None = None) -> None:
        """Reject, before anything runs, a suite that would have nothing to
        check on this grid and level window, as its suites.SUITES record says.
        corpus marks a norm or decompose request on the corpus, which needs
        what the corpus suites need: a grid frequency inside the resolved
        annulus.  norm marks a norm request, whose weight must be positive and
        finite on the grid.  weights names the op of a weights request, which
        takes the first exponent pair; ap takes the Muckenhoupt constant A_p."""
        ctx = self.ctx
        k_lo, k_hi = ctx.levels()
        records = [SUITES[name] for name in suites]
        if weights is None and (not suites or any(s.pair for s in records)):  # the pair's readers
            with refused("levels", LevelError):
                pair = ctx.pair()
        if weights:
            p = ctx.exponent_pairs[0][0]
            require(weights == "xclass" or 1 < p < math.inf, "exponents[0].p",
                    f"weights {weights} takes the Muckenhoupt constant A_p, which needs 1 < p < inf, got {p:g}")
        for name, s in zip(suites, records):
            require(ctx.spec.n == 1 or not s.one_d, "grid.n", f"suite {name} runs on 1D grids only: {s.one_d}")
        depths = [s.family_depth for s in records if s.family_depth is not None] + [0] * bool(weights)
        if depths:  # the deepest family, checked before any node is built
            family = replace(ctx.family, v_max=ctx.family.v_max + max(depths))
            # past 2^50 positions, CubeFamily.positions counts its steps in floating point;
            # R is a power of two, and an int v_max of any size compares with a float
            require(family.v_max < 50 - math.log2(ctx.spec.R), "cubes.v_max", f"{ctx.family.v_max} is too deep: "
                    f"the cube family to level {family.v_max} indexes positions to R 2^{family.v_max}; "
                    "doubles count them exactly only below 2^50")
            cubes = family.n_cubes(ctx.spec.R, ctx.spec.n)
            require(cubes <= CUBE_BUDGET, "cubes.v_max", f"{ctx.family.v_max} is too deep: the cube family "
                    f"to level {family.v_max} holds {cubes:,} cubes, past the budget of {CUBE_BUDGET:,}")
        if norm and self.norm_space == "Lp":  # the one space that reads the frozen level
            require(k_lo <= self.frozen_level <= k_hi, "norm.frozen_level",
                    f"{self.frozen_level} lies outside the level window [{k_lo}, {k_hi}]")
        if norm and self.norm_space != "BMO":  # a BMO norm takes no weight
            levels = [self.frozen_level] if self.norm_space == "Lp" else range(k_lo, k_hi + 1)
            require_level_factors(self.norm_weight, levels, "norm.weight")
            ws = WeightSequence(self.norm_weight, k_lo, k_hi)  # as cmd_norm samples it
            require_on_grid(ws.frozen(self.frozen_level) if self.norm_space == "Lp" else ws, [ctx.spec], "norm.weight")
        # a Carleson scan sums each cube's levels from its own level up, so a
        # band level below the family's first cube level would enter no cube
        scans = [name for name, s in zip(suites, records) if s.scans]
        scans += ["norm F_inf"] * (norm and self.norm_space == "F_inf")
        require(not scans or ctx.family.v_min <= ctx.k_min, "cubes.v_min",
                f"{ctx.family.v_min} lies above levels.k_min = {ctx.k_min}, so the Carleson scans of "
                f"{', '.join(scans)} would read no cube for the levels below it")
        if corpus or any(s.pair for s in records):
            with refused("levels", ValueError):
                annulus_indices(ctx.spec, pair)
        for refuse in [s.refuse for s in records if s.refuse] + [refuse_xclass] * (weights == "xclass"):
            refuse(ctx)


def _jsonify(obj):
    """obj with string keys, lists for tuples, plain numbers for numpy
    scalars and "inf" for every infinite float: the one place that spells it."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return "inf" if math.isinf(v) else v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    # a NaN raises before anything is written: it is not JSON, and no verdict may rest on one
    text = json.dumps(_jsonify(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_ratios(path: Path, report: dict) -> None:
    """The report's ratios as csv rows: suite, record, member, ratio."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "record", "member", "ratio"])
        writer.writerows(_ratio_rows(report))


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    # every field is looked up by name, so any other value would run the defaults
    require(isinstance(raw, dict), "config", f"expected a JSON object of sections, got {type(raw).__name__}")
    return raw


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load_input(cfg: RunConfig, command: str) -> tuple[str, GridFunction] | None:
    """The file the command's input field names, as (name, function) on the
    configured grid; None when the field names the corpus."""
    field, source = f"{command}.input", cfg.inputs[command]
    if source == "corpus":
        return None
    try:
        f = load_grid_function(source)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(field, f"cannot load a grid function from {source!r}: {exc!r}") from None
    spec = cfg.ctx.spec
    require(f.spec == spec, field, f"{source!r} is sampled on {f.spec}, not on the configured grid {spec}")
    return Path(source).name, f


def cmd_norm(cfg: RunConfig, out: Path, source: tuple[str, GridFunction] | None = None) -> int:
    """The configured norm of each corpus member, or of source, a loaded file input."""
    ctx = cfg.ctx
    pair = ctx.pair()
    space = cfg.norm_space
    ws = WeightSequence(cfg.norm_weight, pair.k_min, pair.k_max)
    records = []
    members = [source] if source else [(mem.name, mem.f) for mem in ctx.corpus()]
    dictionary = None
    for name, f in members:
        if space == "BMO":
            value = bmo_norm(f, ctx.family)
        elif space == "Lp":
            j = cfg.frozen_level
            value = weighted_lp_norm(f, ws.frozen(j).on_grid(ctx.spec, j), cfg.norm_p)
        elif space == "Hardy":
            if dictionary is None:
                dictionary = build_dictionary(ctx.spec)
            value = hardy_grand_norm(f, ws, cfg.norm_p, dictionary)
        else:
            value = stack_norm(ws.weigh(band_magnitudes(f, pair)), space, cfg.norm_p, cfg.norm_q, ctx.family)
        records.append(
            {
                "member": name,
                "space": space,
                "p": cfg.norm_p,
                "q": cfg.norm_q,
                "weight": cfg.norm_weight.key(),
                "value": value,
                "levels": [pair.k_min, pair.k_max],
                "truncation": f"levels outside [{pair.k_min}, {pair.k_max}] dropped",
            }
        )
    _write_json(out / "norms.json", {"records": records})
    print(f"wrote {out / 'norms.json'} ({len(records)} records)")
    return 0


def cmd_decompose(cfg: RunConfig, out: Path, source: tuple[str, GridFunction] | None = None) -> int:
    """Export the bands of the configured corpus member, or of source, a loaded file input."""
    ctx = cfg.ctx
    if source is None:
        # members are drawn in order from one generator, so the first
        # member + 1 draws end with the member ctx.corpus()[member]
        mem = make_corpus(ctx.spec, ctx.pair(), cfg.member + 1, ctx.seed)[-1]
        source = mem.name, mem.f
    name, f = source
    bands = band_decompose(f, ctx.pair())
    target = out / f"bands_{name}"
    target.mkdir(parents=True, exist_ok=True)
    for k in bands.levels():
        save_grid_function(GridFunction(bands.spec, bands[k]), target / f"band_{k:+03d}")
    print(f"wrote per-level grids under {target}")
    return 0


def cmd_weights(cfg: RunConfig, op: str, out: Path) -> int:
    ctx = cfg.ctx
    nodes = ctx.nodes()
    p, theta = ctx.exponent_pairs[0]
    weights = ctx.weights()
    heads = {name: {"weight": name, "expr": ctx.weight_matrix[name]} for name in weights}
    records = []
    # each op reduces the whole matrix in one quadrature pass: a separable
    # weight's statistics serve all of its levels
    if op == "ap":
        family = {"v_min": ctx.family.v_min, "v_max": ctx.family.v_max, "translates": True}
        for name, (const, (v, m, translated)) in zip(weights, ap_witness(weights.values(), p, nodes)):
            records.append({**heads[name], "p": p, "family": family, "constant": const,
                            "witness_cube": {"v": v, "m": list(m), "translated": translated}})
    elif op == "xclass":
        s1 = sigma1(p, theta)
        seqs, errors = {}, {}
        for name, w in weights.items():
            ts = WeightSequence(w, ctx.k_min, ctx.k_max)
            try:
                check_admissible(ts, p, ctx.spec.R, ctx.spec.n)
                seqs[name] = ts
            except WeightError as exc:
                errors[name] = str(exc)
        fits = dict(zip(seqs, xclass_fit(list(seqs.values()), p, (s1, p), nodes)))
        for name in weights:
            if name in errors:
                records.append({**heads[name], "error": errors[name]})
                continue
            fit = fits[name]
            rep = xclass_constants(seqs[name], p, (fit["alpha1"], fit["alpha2"]), (s1, p), nodes)
            # the constants at the fitted alphas add their witnesses; their C1, C2 equal the fit's bit for bit
            records.append({**heads[name], **fit, **rep})
    _write_json(out / f"weights_{op}.json", {"op": op, "records": records})
    print(f"wrote {out / f'weights_{op}.json'} ({len(records)} records)")
    return 0


def _ratio_rows(report: dict):
    """Flatten per-member ratio distributions for plotting."""
    for suite in report["suites"]:
        for i, rec in enumerate(suite.get("records", [])):
            if not isinstance(rec, dict):
                continue
            # the record's own ratios first, then those of its nested reports
            subs = [(f"rec{i}", rec)] + [(f"rec{i}.{key}", rec.get(key))
                                         for key in ("lp_report", "band_report")]
            for label, sub in subs:
                if isinstance(sub, dict) and isinstance(sub.get("ratios"), list):
                    members = sub.get("members", [str(j) for j in range(len(sub["ratios"]))])
                    for name, val in zip(members, sub["ratios"]):
                        yield suite["suite"], label, name, val


def cmd_verify(cfg: RunConfig, suite_names: list[str], out: Path) -> int:
    ctx = cfg.ctx
    results = []
    timings = {}
    for name in suite_names:
        t0 = time.perf_counter()
        results.append(ALL_SUITES[name](ctx))
        timings[name] = time.perf_counter() - t0
    report = {"pass": all(r["pass"] for r in results), "suites": results}
    report["meta"] = {
        "grid": {"n": ctx.spec.n, "R": ctx.spec.R, "N": ctx.spec.N, "offset": True},
        "levels": {"k_min": ctx.k_min, "k_max": ctx.k_max},
        "cubes": {"v_min": ctx.family.v_min, "v_max": ctx.family.v_max, "translates": True},
        "corpus": {"size": ctx.corpus_size, "seed": ctx.seed},
        # runs are single-threaded; the key is kept because report diffs
        # count a missing key as a change against earlier reports
        "threads": 1,
        "suites": suite_names,
    }
    _write_json(out / "report.json", report)
    _write_ratios(out / "ratios.csv", _jsonify(report))
    for suite in report["suites"]:
        print(f"{suite['suite']:<14} {'pass' if suite['pass'] else 'FAIL'}  ({timings[suite['suite']]:.2f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0 if report["pass"] else 1


def cmd_report(report_path: str, out: Path) -> int:
    try:
        report = json.loads(Path(report_path).read_text())
        rows = []
        for suite in report["suites"]:
            ratios = [float(r[3]) for r in _ratio_rows({"suites": [suite]})]
            lo, hi = (min(ratios), max(ratios)) if ratios else ("", "")
            rows.append((str(suite["suite"]), lo, hi, "pass" if suite["pass"] else "FAIL"))
    # JSONDecodeError is a ValueError; the others are a report of the wrong shape
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"malformed report {report_path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    header = f"{'suite':<14} {'min ratio':>12} {'max ratio':>12} {'status':>8}"
    print(header)
    print("-" * len(header))
    for name, lo, hi, status in rows:
        lo_s = f"{lo:.6g}" if lo != "" else "-"
        hi_s = f"{hi:.6g}" if hi != "" else "-"
        print(f"{name:<14} {lo_s:>12} {hi_s:>12} {status:>8}")
    _write_ratios(out / "plot_data.csv", report)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lpw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override corpus seed")

    common(sub.add_parser("norm", help="compute the configured norm over the corpus"))
    common(sub.add_parser("decompose", help="export a band decomposition"))
    pw = sub.add_parser("weights", help="weight-class reports")
    pw.add_argument("op", choices=["ap", "xclass"])
    common(pw)
    pv = sub.add_parser("verify", help="run verification suites")
    pv.add_argument("suite", help="suite name or 'all'")
    common(pv)
    pr = sub.add_parser("report", help="render a report")
    pr.add_argument("report_path")
    pr.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:
        # a crash is not a verdict: keep it apart from a failed suite (1)
        import traceback

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    if args.command == "report":
        return cmd_report(args.report_path, Path(args.out))
    if args.command == "verify" and args.suite != "all" and args.suite not in ALL_SUITES:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    try:
        cfg = RunConfig(_load_config(args.config), seed_override=args.seed)
        names = (cfg.suites if args.suite == "all" else [args.suite]) if args.command == "verify" else []
        takes_input = args.command in ("norm", "decompose")
        source = _load_input(cfg, args.command) if takes_input else None
        cfg.check_runnable(names, corpus=takes_input and source is None, norm=args.command == "norm",
                           weights=args.op if args.command == "weights" else None)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    if args.command == "norm":
        return cmd_norm(cfg, out, source)
    if args.command == "decompose":
        return cmd_decompose(cfg, out, source)
    if args.command == "weights":
        return cmd_weights(cfg, args.op, out)
    if args.command == "verify":
        return cmd_verify(cfg, names, out)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
