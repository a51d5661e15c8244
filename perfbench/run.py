"""The lpw benchmark: drive `lpw.cli.main` on named workloads, check every
output, and print the metrics that BENCHMARK.json names.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or `all` to run each in turn. Every CLI invocation
runs in a fresh process (perfbench/invoke.py) and the next one starts only
after it ends: a closed loop with one client. `--threads` keeps its default
of 1. The seed reaches the program only as `lpw ... --seed N`.

With `--trace 0` the workload repeats until S seconds have passed and the
end-to-end metrics are medians over those repetitions. With `--trace 1` an
untraced and a traced repetition alternate for S seconds, and the per-layer
metrics come from the traced ones.

Each run appends its full record (metrics, samples, output check,
environment, known gaps) to `<out>/results.jsonl`; `perfbench/compare.py`
compares two such files. The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from tracer import aggregate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"

# The corpus seed committed in fixtures/default.json. Outputs made with it
# are compared field by field with the reference captured from this tree.
COMMITTED_SEED = 20260808
REL_TOL = 1e-12  # ROADMAP's bound on any reported number for perf changes
SETUP_SAMPLES = 5
INVOCATION_TIMEOUT_S = 170
SPACES = ("B", "F", "F_inf", "Lp", "Hardy", "BMO")

# Why each workload exists, and which later change it exercises or bypasses.
WORKLOADS = {
    "verify-1d": (
        "lpw verify all on fixtures/default.json (1D, N=4096, 32 members, 12 suites): "
        "38,880 band() calls for 816 distinct bands, so band caching, single-FFT "
        "decomposition and dense coefficients show here."
    ),
    "verify-2d": (
        "lpw verify all on a 2D N=256^2 config with a 1.7e5-cube family: cube-family "
        "quadrature and 2D FFTs carry the run; band work is a minority. Runs 8 suites; "
        "see KNOWN_GAPS for the 4 left out."
    ),
    "norm-sweep": (
        "one-shot lpw norm requests for B, F, F_inf, Lp, Hardy and BMO over 128 members, "
        "then lpw decompose: each band is needed about once per process, so caches are "
        "bypassed and set-up is paid per request."
    ),
}

KNOWN_GAPS = {
    "verify-2d_excluded_suites": {
        "seqnorm": "raises ZeroDivisionError: its hard-coded single-coefficient levels "
        "-2, 0, 3, 6 fall outside the 2D level window (ROADMAP item 4)",
        "coincidence": "raises IndexError after about 19 s: spike_family is 1D-only "
        "(ROADMAP item 4)",
        "muckenhoupt": "runs past 300 s: its v_max + 10 cube family is too deep in 2D "
        "(ROADMAP item 4)",
        "maximal": "fails on some seeds (seed 7: Fefferman-Stein drift 0.103 > 0.10): the 2D "
        "corpus draws frequencies from an N-dependent range, so the N-vs-2N drift checks "
        "compare different functions (ROADMAP item 4)",
    },
    "threads": "--threads is never varied: every run is the single-threaded baseline "
    "(default 1), and ROADMAP item 3 may delete the knob",
}

THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "LPW_THREADS",
)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    """One CLI invocation; `ops` names the operations its output is checked for."""

    label: str
    args: tuple[str, ...]
    config: dict
    ops: tuple[str, ...]


def requests(workload: str, work_dir: Path) -> list[Request]:
    if workload in ("verify-1d", "verify-2d"):
        path = ROOT / "fixtures/default.json" if workload == "verify-1d" else BENCH / "configs/verify_2d.json"
        cfg = json.loads(path.read_text())
        return [Request("verify", ("verify", "all", "--config", str(path)), cfg, tuple(cfg["suites"]))]
    base = json.loads((BENCH / "configs/norm_sweep.json").read_text())
    work_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for space in SPACES:
        cfg = {**base, "norm": {**base["norm"], "space": space}}
        path = work_dir / f"norm_{space}.json"
        path.write_text(json.dumps(cfg))
        out.append(Request(f"norm_{space}", ("norm", "--config", str(path)), cfg, (f"norm_{space}",)))
    path = BENCH / "configs/norm_sweep.json"
    out.append(Request("decompose", ("decompose", "--config", str(path)), base, ("decompose",)))
    return out


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def rel_diff(a, b) -> float:
    """Largest relative difference between numeric leaves of two JSON
    documents; inf when their structure or any other leaf differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((rel_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((rel_diff(x, y) for x, y in zip(a, b)), default=0.0)
    numeric = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (isinstance(a, numeric) and isinstance(b, numeric)):
        return 0.0 if a == b else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


@dataclass
class Op:
    name: str
    ok: bool
    diff: float = 0.0
    note: str = ""


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def band_summary(out: Path) -> dict:
    """[sum, sum of squares, max |x|] of every exported band file."""
    summary = {}
    for path in sorted(out.glob("bands_*/*.bin")):
        values = array("d")
        values.frombytes(path.read_bytes())
        summary[f"{path.parent.name}/{path.name}"] = [
            math.fsum(values), math.fsum(x * x for x in values), max(map(abs, values), default=0.0)
        ]
    return summary


def output_document(req: Request, out: Path):
    if req.label == "verify":
        return _load_json(out / "report.json")
    if req.label == "decompose":
        return band_summary(out) or None
    return _load_json(out / "norms.json")


def level_count(cfg: dict) -> int:
    grid, levels = cfg["grid"], cfg["levels"]
    h = 2.0 * grid["R"] / grid["N"]
    k_cap = int(math.floor(math.log2(1.0 / h) + 1e-9))
    return min(levels["k_max"], k_cap) - levels["k_min"] + 1


def _op(name: str, ok: bool, note: str, doc, reference) -> Op:
    diff = rel_diff(doc, reference) if reference is not None else 0.0
    if diff > REL_TOL:
        return Op(name, False, diff, "differs from reference" if ok else note)
    return Op(name, ok, diff, "" if ok else note)


def check_request(req: Request, rc: int, out: Path, reference) -> list[Op]:
    """Verdicts on every seed; on the committed seed (`reference` given) also
    every field against the reference, to a relative REL_TOL."""
    doc = output_document(req, out)
    if doc is None:
        return [Op(name, False, math.inf, f"exit code {rc}, no output") for name in req.ops]
    if req.label == "verify":
        suites = {s.get("suite"): s for s in doc.get("suites", [])}
        rest = {k: v for k, v in doc.items() if k != "suites"}
        if reference is not None:
            ref_suites = {s["suite"]: s for s in reference["suites"]}
            ref_rest = {k: v for k, v in reference.items() if k != "suites"}
        return [
            _op(name, (suites.get(name) or {}).get("pass") is True, "verdict is not pass",
                [rest, suites.get(name)], None if reference is None else [ref_rest, ref_suites.get(name)])
            for name in req.ops
        ]
    if req.label == "decompose":
        values = [x for row in doc.values() for x in row]
        ok = rc == 0 and len(doc) == level_count(req.config) and all(map(math.isfinite, values))
        note = f"exit code {rc}, {len(doc)} band files"
    else:
        records = doc.get("records", [])
        values = [r.get("value") for r in records]
        ok = (
            rc == 0
            and len(records) == req.config["corpus"]["size"]
            and all(isinstance(v, float) and math.isfinite(v) and v > 0 for v in values)
        )
        note = f"exit code {rc}, {len(records)} records, values must be finite and positive"
    return [_op(req.ops[0], ok, note, doc, reference)]


def reference_for(workload: str, req: Request, seed: int):
    if seed != COMMITTED_SEED:
        return None
    path = REFERENCE / workload / f"{req.label}.json"
    doc = _load_json(path)
    if doc is None:
        raise SystemExit(f"error: missing reference {path}; capture it with --capture-reference")
    return doc


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    stem: Path


def invoke(mode: str, req: Request, seed: int, rdir: Path) -> Invocation:
    """Run one CLI invocation in a fresh process and wait for it to end."""
    rdir.mkdir(parents=True, exist_ok=True)
    stem = rdir / "trace"
    argv = [sys.executable, str(BENCH / "invoke.py"), mode, str(stem), "--",
            *req.args, "--out", str(rdir / "out"), "--seed", str(seed)]
    with open(rdir / "log.txt", "wb") as log:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamps = _load_json(stem.with_suffix(".json")) or {}
    setup_end = stamps.get("setup_end_ns")
    return Invocation(
        rc=proc.returncode,
        wall_s=(t1 - t0) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        setup_s=(setup_end - t0) / 1e9 if setup_end is not None else None,
        stem=stem,
    )


@dataclass
class Iteration:
    mode: str
    invocations: list[Invocation] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)

    @property
    def cpu_s(self) -> float:
        return sum(i.cpu_s for i in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)


def run_iteration(reqs: list[Request], seed: int, mode: str, idir: Path, references: list) -> Iteration:
    it = Iteration(mode)
    for n, req in enumerate(reqs):
        inv = invoke(mode, req, seed, idir / f"{n}-{req.label}")
        it.invocations.append(inv)
        it.ops.extend(check_request(req, inv.rc, idir / f"{n}-{req.label}" / "out", references[n]))
    return it


def layer_values(names: list[str], invocations: list[Invocation]) -> dict:
    """Per-layer metrics of one traced repetition, summed over its invocations.

    `<span>.<stat>` reads a span's calls, self_s or wall_s (inclusive);
    `builds`/`build_s` are the calls and wall_s of a constructor span, and
    `<span>.distinct_ratio` is the span's distinct-input counter over calls."""
    stats: dict = {}
    counters: dict = {}
    for inv in invocations:
        s, c = aggregate(inv.stem)
        for span, row in s.items():
            acc = stats.setdefault(span, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
            for k, v in row.items():
                acc[k] += v
        for k, v in c.items():
            counters[k] = counters.get(k, 0) + v
    alias = {"builds": "calls", "build_s": "wall_s"}
    out = {}
    for name in names:
        if name.startswith("trace."):
            continue
        if name in counters:
            out[name] = counters[name]
            continue
        span, stat = name.rsplit(".", 1)
        row = stats.get(span, {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        if stat == "distinct_ratio":
            out[name] = counters[f"{span}.distinct"] / row["calls"] if row["calls"] else 0.0
        else:
            out[name] = row[alias.get(stat, stat)]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, runs: Path, spec: dict) -> dict:
    work_dir = runs / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    reqs = requests(workload, work_dir / "configs")
    references = [reference_for(workload, req, seed) for req in reqs]
    modes = ("plain", "trace") if trace else ("plain",)
    iterations: list[Iteration] = []
    start = time.monotonic()
    while not iterations or time.monotonic() - start < seconds:
        for mode in modes:
            iterations.append(run_iteration(reqs, seed, mode, work_dir / f"{len(iterations)}-{mode}", references))
    plain = [it for it in iterations if it.mode == "plain"]
    ops = [op for it in iterations for op in it.ops]
    failed = [op for op in ops if not op.ok]
    samples = {
        "wall_s": [it.wall_s for it in plain],
        "cpu_s": [it.cpu_s for it in plain],
        "peak_rss_mb": [it.rss_mb for it in plain],
    }
    if trace:
        traced = [it for it in iterations if it.mode == "trace"]
        names = [m["name"] for m in spec["per_layer"]]
        per_rep = [layer_values(names, it.invocations) for it in traced]
        values = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
        values["trace.wall_s"] = statistics.median(it.wall_s for it in traced)
        values["trace.overhead_ratio"] = values["trace.wall_s"] / statistics.median(samples["wall_s"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # an invocation that failed before its corpus was built has no set-up
        # sample; its operations are already counted as failed
        setup = [i.setup_s for it in plain for i in it.invocations if i.setup_s is not None]
        probe = 0
        while len(setup) < SETUP_SAMPLES:
            req = reqs[probe % len(reqs)]
            inv = invoke("setup", req, seed, work_dir / f"setup-{probe}")
            if inv.rc != 0 or inv.setup_s is None:
                raise SystemExit(f"error: set-up probe of {req.label} failed (exit code {inv.rc}); see {work_dir}")
            setup.append(inv.setup_s)
            probe += 1
        samples["setup_s"] = setup
        values = {k: statistics.median(v) for k, v in samples.items()}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    diffs = [op.diff for op in ops]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(ops),
        "reference_checked": seed == COMMITTED_SEED,
        "max_rel_diff": max(diffs),
        "failures": [f"{op.name}: {op.note}" for op in failed][:20],
        "repetitions": {mode: sum(it.mode == mode for it in iterations) for mode in modes},
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "samples": samples,
        "why": WORKLOADS[workload],
        "known_gaps": KNOWN_GAPS,
        "env": environment(),
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "thread_settings": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_commit": commit,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def capture_reference(workload: str, runs: Path) -> None:
    """Write the reference outputs of one plain repetition at the committed
    seed. Only for a change that redefines a workload."""
    work_dir = runs / workload / "reference"
    shutil.rmtree(work_dir, ignore_errors=True)
    reqs = requests(workload, work_dir / "configs")
    it = run_iteration(reqs, COMMITTED_SEED, "plain", work_dir, [None] * len(reqs))
    bad = [f"{op.name}: {op.note}" for op in it.ops if not op.ok]
    if bad:
        raise SystemExit(f"error: not capturing a failing run: {bad}")
    for n, req in enumerate(reqs):
        doc = output_document(req, work_dir / f"{n}-{req.label}" / "out")
        path = REFERENCE / workload / f"{req.label}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


def summary_lines(rec: dict) -> list[str]:
    lines = [f"{rec['workload']}: seed {rec['seed']}, trace {rec['trace']}, repetitions {rec['repetitions']}"]
    for name, m in rec["metrics"].items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"  {'fail_ratio':<40} {rec['fail_ratio']:>14.6g} 1 ({rec['failed']}/{rec['attempted']} operations)")
    checked = "every field against the reference" if rec["reference_checked"] else "verdicts only"
    lines.append(f"  output check: {checked}; largest relative difference {rec['max_rel_diff']:.3g}"
                 f" (tolerance {REL_TOL:g})")
    lines.extend(f"  FAILED {f}" for f in rec["failures"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / ".runs", help="where runs and results.jsonl go")
    parser.add_argument("--capture-reference", action="store_true",
                        help="rewrite the committed-seed reference outputs, then exit")
    args = parser.parse_args(argv)
    missing = [p for p in ("src/lpw/cli.py", "fixtures/default.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from an lpw checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.capture_reference:
        for name in names:
            capture_reference(name, args.out)
        return 0
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), args.out, spec)
        args.out.mkdir(parents=True, exist_ok=True)
        with open(args.out / "results.jsonl", "a") as fh:
            fh.write(json.dumps(rec) + "\n")
        records.append(rec)
        print("\n".join(summary_lines(rec)))
    env = records[0]["env"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"known gaps: {json.dumps(KNOWN_GAPS, sort_keys=True)}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
