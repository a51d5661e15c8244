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
from pathlib import Path

import numpy as np

from .grid import CubeFamily, GridError, GridSpec, load_grid_function, weighted_lp_norm
from .lpaley import LevelError, band_decompose, make_lp_pair
from .spaces import NormRequest, bmo_norm, build_dictionary, hardy_grand_norm, space_norm
from .verify import annulus_indices, make_corpus
from .suites import (
    ALL_SUITES,
    ANNULUS_SUITES,
    DEFAULT_CEILINGS,
    DEFAULT_WEIGHT_MATRIX,
    ONE_D_SUITES,
    SEQNORM_SINGLE_CASES,
    RunContext,
    seqnorm_single_cases,
)
from .weights import (
    WeightError,
    WeightSequence,
    ap_witness,
    check_admissible,
    parse_weight,
    reverse_holder_probe,
    sigma1,
    xclass_constants,
    xclass_fit,
)


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def _require(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(field, message)


def _get(cfg: dict, field: str, default):
    cur = cfg
    for part in field.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return default
        cur = cur[part]
    return cur


def _parse_exponent(value, field: str) -> float:
    if value in ("inf", "Infinity"):
        return math.inf
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected a positive number or 'inf', got {value!r}") from None
    _require(out > 0, field, f"must be positive, got {out}")
    return out


class RunConfig:
    """Validated run configuration; every module precondition is checked here,
    the per-command ones by check_runnable, so nothing fails mid-run."""

    def __init__(self, raw: dict, seed_override: int | None = None):
        self.raw = raw
        try:
            self.spec = GridSpec(
                n=int(_get(raw, "grid.n", 1)),
                R=float(_get(raw, "grid.R", 8.0)),
                N=int(_get(raw, "grid.N", 4096)),
                offset=bool(_get(raw, "grid.offset", True)),
            )
        except GridError as exc:
            raise ConfigError("grid", str(exc)) from None
        self.k_min = int(_get(raw, "levels.k_min", -3))
        self.k_max = int(_get(raw, "levels.k_max", 8))
        _require(self.k_min <= self.k_max, "levels.k_min", "k_min exceeds k_max")
        k_cap = self.spec.level_window()[1]
        try:
            self.pair = make_lp_pair(self.spec, self.k_min, min(self.k_max, k_cap))
        except LevelError as exc:
            raise ConfigError("levels", str(exc)) from None
        v_min = int(_get(raw, "cubes.v_min", -4))
        v_max = int(_get(raw, "cubes.v_max", 9))
        _require(v_min <= v_max, "cubes.v_min", "v_min exceeds v_max")
        _require(
            2.0 ** (-v_min) <= 2.0 * self.spec.R,
            "cubes.v_min",
            f"level {v_min} cubes are wider than the domain",
        )
        self.family = CubeFamily(
            v_min,
            v_max,
            bool(_get(raw, "cubes.translates", True)),
            int(_get(raw, "cubes.max_per_level", 8192)),
        )
        self.corpus_size = int(_get(raw, "corpus.size", 32))
        _require(self.corpus_size >= 1, "corpus.size", "must be at least 1")
        self.seed = int(seed_override if seed_override is not None else _get(raw, "corpus.seed", 20260808))
        _require(self.seed >= 0, "corpus.seed", "must be nonnegative")
        self.ceilings = dict(DEFAULT_CEILINGS)
        for key, val in _get(raw, "ceilings", {}).items():
            _require(key in DEFAULT_CEILINGS, f"ceilings.{key}", "unknown ceiling")
            self.ceilings[key] = _parse_exponent(val, f"ceilings.{key}")
        self.weight_matrix = dict(_get(raw, "weights", DEFAULT_WEIGHT_MATRIX))
        for name, text in self.weight_matrix.items():
            try:
                parse_weight(text)
            except WeightError as exc:
                raise ConfigError(f"weights.{name}", str(exc)) from None
        pairs = _get(raw, "exponents", [[2.0, 1.2], [3.0, 1.5]])
        self.exponent_pairs = []
        for i, pq in enumerate(pairs):
            _require(len(pq) == 2, f"exponents[{i}]", "expected [p, theta]")
            p = _parse_exponent(pq[0], f"exponents[{i}].p")
            theta = _parse_exponent(pq[1], f"exponents[{i}].theta")
            _require(theta < p, f"exponents[{i}].theta", f"needs theta < p, got {theta} >= {p}")
            self.exponent_pairs.append((p, theta))
        self.suites = list(_get(raw, "suites", list(ALL_SUITES)))
        for name in self.suites:
            _require(name in ALL_SUITES, "suites", f"unknown suite {name!r}")
        self.norm = _get(raw, "norm", {"space": "F", "p": 2.0, "q": 2.0, "weight": "pow:0.3"})
        _require(
            self.norm.get("space", "F") in ("B", "F", "F_inf", "Lp", "Hardy", "BMO"),
            "norm.space",
            f"unknown space {self.norm.get('space')!r}",
        )
        self.norm_p = _parse_exponent(self.norm.get("p", 2.0), "norm.p")
        self.norm_q = _parse_exponent(self.norm.get("q", 2.0), "norm.q")
        if self.norm.get("space", "F") == "F":
            _require(math.isfinite(self.norm_p), "norm.p", "F-norms need p < inf")
        if self.norm.get("space") == "F_inf":
            _require(math.isfinite(self.norm_q), "norm.q", "F_inf norms need q < inf")
        try:
            self.norm_weight = parse_weight(self.norm.get("weight", "pow:0.3"))
        except WeightError as exc:
            raise ConfigError("norm.weight", str(exc)) from None

    def check_runnable(self, suites: list[str], corpus: bool = False) -> None:
        """Reject, before anything runs, a suite that would have nothing to
        check on this grid and level window.  corpus marks a norm or
        decompose request on the corpus, which needs what the corpus suites
        need: a grid frequency inside the resolved annulus."""
        for name in suites:
            if self.spec.n == 2 and name in ONE_D_SUITES:
                raise ConfigError("grid.n", f"suite {name} runs on 1D grids only: {ONE_D_SUITES[name]}")
        if corpus or any(name in ANNULUS_SUITES for name in suites):
            try:
                annulus_indices(self.spec, self.pair)
            except ValueError:
                lo, hi = self.pair.annulus()
                raise ConfigError(
                    "levels",
                    f"levels [{self.pair.k_min}, {self.pair.k_max}] resolve the annulus "
                    f"[{lo:g}, {hi:g}], which holds no positive grid frequency: the grid's "
                    f"fundamental frequency is pi/R = {self.spec.fundamental:g} on R={self.spec.R:g}",
                ) from None
        if "seqnorm" in suites:
            k_max = self.pair.k_max  # the level window capped at the grid's resolution
            _require(
                bool(seqnorm_single_cases(self.spec.R, self.k_min, k_max)),
                "levels",
                f"seqnorm needs one of its lone-coefficient cases (k, m) {SEQNORM_SINGLE_CASES} "
                f"inside levels [{self.k_min}, {k_max}] with m a level-k position on R={self.spec.R:g}",
            )

    def context(self) -> RunContext:
        return RunContext(
            spec=self.spec,
            k_min=self.k_min,
            k_max=self.k_max,
            family=self.family,
            corpus_size=self.corpus_size,
            seed=self.seed,
            weight_matrix=self.weight_matrix,
            exponent_pairs=tuple(self.exponent_pairs),
            ceilings=self.ceilings,
        )


def _jsonify(obj):
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
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n")


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_norm(cfg: RunConfig, out: Path) -> int:
    ctx = cfg.context()
    pair = ctx.pair()
    space = cfg.norm.get("space", "F")
    ws = WeightSequence(cfg.norm_weight, pair.k_min, pair.k_max, cfg.norm_p if math.isfinite(cfg.norm_p) else 2.0)
    fam = cfg.family.clamped(cfg.spec)
    records = []
    source = cfg.norm.get("input", "corpus")
    if source == "corpus":
        members = [(mem.name, mem.f) for mem in ctx.corpus()]
    else:
        members = [(Path(source).name, load_grid_function(source))]
    dictionary = None
    for name, f in members:
        if space == "BMO":
            value = bmo_norm(f, fam)
        elif space == "Lp":
            j = int(_get(cfg.raw, "norm.frozen_level", 0))
            value = weighted_lp_norm(f, ws.frozen(j).on_grid(cfg.spec, j), cfg.norm_p)
        elif space == "Hardy":
            if dictionary is None:
                dictionary = build_dictionary(cfg.spec)
            value = hardy_grand_norm(f, ws, cfg.norm_p, dictionary)
        else:
            req = NormRequest(space, cfg.norm_p, cfg.norm_q, ws, pair, family=fam)
            value = space_norm(f, req)
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


def cmd_decompose(cfg: RunConfig, out: Path) -> int:
    ctx = cfg.context()
    source = _get(cfg.raw, "decompose.input", "corpus")
    index = int(_get(cfg.raw, "decompose.member", 0))
    if source == "corpus":
        # members are drawn in order from one generator, so the first
        # index + 1 draws end with the member ctx.corpus()[index]
        mem = make_corpus(ctx.spec, ctx.pair(), index % ctx.corpus_size + 1, ctx.seed)[-1]
        name, f = mem.name, mem.f
    else:
        name, f = Path(source).name, load_grid_function(source)
    decomp = band_decompose(f, ctx.pair())
    target = out / f"bands_{name}"
    decomp.export(target)
    print(f"wrote per-level grids under {target}")
    return 0


def cmd_weights(cfg: RunConfig, op: str, out: Path) -> int:
    ctx = cfg.context()
    nodes = ctx.nodes()
    p, theta = cfg.exponent_pairs[0]
    records = []
    for name, text in sorted(cfg.weight_matrix.items()):
        w = parse_weight(text)
        if op == "ap":
            const, witness = ap_witness(w, p, nodes)
            v, m, translated = witness
            records.append(
                {
                    "weight": name,
                    "expr": text,
                    "p": p,
                    "family": {"v_min": cfg.family.v_min, "v_max": cfg.family.v_max,
                               "translates": cfg.family.translates},
                    "constant": const,
                    "witness_cube": {"v": v, "m": list(m), "translated": translated},
                }
            )
        elif op == "xclass":
            ts = ctx.sequence(w, p)
            s1 = sigma1(p, theta)
            try:
                check_admissible(ts, cfg.spec.R, cfg.spec.n)
                fit = xclass_fit(ts, (s1, p), nodes)
                rep = xclass_constants(ts, (fit.alpha1, fit.alpha2), (s1, p), nodes,
                                       skip_admissibility=True)
                records.append({"weight": name, "expr": text,
                                "alpha1": fit.alpha1, "alpha2": fit.alpha2,
                                "grid_step": fit.grid_step, **rep.to_json()})
            except WeightError as exc:
                records.append({"weight": name, "expr": text, "error": str(exc)})
        elif op == "rh":
            try:
                probe = reverse_holder_probe(w, p, nodes, ap_ceiling=cfg.ceilings["ap_hypothesis"])
                records.append(
                    {
                        "weight": name,
                        "expr": text,
                        "p": p,
                        "best_eps": probe.best_eps,
                        "sup_ratio": probe.sup_ratio,
                        "ratios": {f"{e:g}": r for e, r in sorted(probe.ratios.items())},
                        "bound": probe.bound,
                    }
                )
            except WeightError as exc:
                records.append({"weight": name, "expr": text, "error": str(exc)})
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
                                         for key in ("lp_report", "band_report", "coincidence")]
            for label, sub in subs:
                if isinstance(sub, dict) and isinstance(sub.get("ratios"), list):
                    members = sub.get("members", [str(j) for j in range(len(sub["ratios"]))])
                    for name, val in zip(members, sub["ratios"]):
                        yield suite["suite"], label, name, val


def cmd_verify(cfg: RunConfig, suite_names: list[str], out: Path) -> int:
    import time

    ctx = cfg.context()
    results = []
    timings = {}
    for name in suite_names:
        t0 = time.time()
        results.append(ALL_SUITES[name](ctx))
        timings[name] = time.time() - t0
    report = {"pass": all(r["pass"] for r in results), "suites": results}
    report["meta"] = {
        "grid": {"n": cfg.spec.n, "R": cfg.spec.R, "N": cfg.spec.N, "offset": cfg.spec.offset},
        "levels": {"k_min": cfg.k_min, "k_max": cfg.k_max},
        "cubes": {"v_min": cfg.family.v_min, "v_max": cfg.family.v_max,
                  "translates": cfg.family.translates},
        "corpus": {"size": cfg.corpus_size, "seed": cfg.seed},
        # runs are single-threaded; the key is kept because report diffs
        # count a missing key as a change against earlier reports
        "threads": 1,
        "suites": suite_names,
    }
    _write_json(out / "report.json", report)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "ratios.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "record", "member", "ratio"])
        for row in _ratio_rows(_jsonify(report)):
            writer.writerow(row)
    for suite in report["suites"]:
        print(f"{suite['suite']:<14} {'pass' if suite['pass'] else 'FAIL'}  ({timings[suite['suite']]:.2f}s)")
    print(f"wrote {out / 'report.json'}")
    return 0 if report["pass"] else 1


def cmd_report(report_path: str, out: Path) -> int:
    try:
        report = json.loads(Path(report_path).read_text())
        suites = report["suites"]
        assert isinstance(suites, list)
    except (OSError, json.JSONDecodeError, KeyError, AssertionError) as exc:
        print(f"malformed report {report_path}: {exc}", file=sys.stderr)
        return 2
    rows = []
    for suite in suites:
        ratios = [r[3] for r in _ratio_rows({"suites": [suite]})]
        lo = min(ratios) if ratios else ""
        hi = max(ratios) if ratios else ""
        rows.append((suite["suite"], lo, hi, "pass" if suite["pass"] else "FAIL"))
    header = f"{'suite':<14} {'min ratio':>12} {'max ratio':>12} {'status':>8}"
    print(header)
    print("-" * len(header))
    for name, lo, hi, status in rows:
        lo_s = f"{lo:.6g}" if lo != "" else "-"
        hi_s = f"{hi:.6g}" if hi != "" else "-"
        print(f"{name:<14} {lo_s:>12} {hi_s:>12} {status:>8}")
    out.mkdir(parents=True, exist_ok=True)
    plot_path = out / "plot_data.csv"
    with open(plot_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "record", "member", "ratio"])
        for row in _ratio_rows(report):
            writer.writerow(row)
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
    pw.add_argument("op", choices=["ap", "xclass", "rh"])
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
    try:
        cfg = RunConfig(_load_config(args.config), seed_override=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = []
    if args.command == "verify":
        if args.suite != "all" and args.suite not in ALL_SUITES:
            print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
            return 2
        names = cfg.suites if args.suite == "all" else [args.suite]
    source = {
        "norm": cfg.norm.get("input", "corpus"),
        "decompose": _get(cfg.raw, "decompose.input", "corpus"),
    }.get(args.command)
    try:
        cfg.check_runnable(names, corpus=source == "corpus")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    if args.command == "norm":
        return cmd_norm(cfg, out)
    if args.command == "decompose":
        return cmd_decompose(cfg, out)
    if args.command == "weights":
        return cmd_weights(cfg, args.op, out)
    if args.command == "verify":
        return cmd_verify(cfg, names, out)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
