"""Compare two benchmark result sets: a parent commit against a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file is a `results.jsonl` that perfbench/run.py appended to. Untraced
records are paired by workload and seed, in file order. Make at least ten
pairs with the same --seconds on both sides, alternating which side runs
first.

For each workload and end-to-end metric this prints both medians and
quartiles, the share of pairs the change won (ties count for neither), and a
verdict:
  improved    the change won at least 9/10 of the pairs and the medians differ
              by more than the parent's interquartile distance;
  unresolved  the parent's interquartile distance exceeds the metric's bound,
              unless every change run beats every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  no worse    otherwise.
A change that fails more operations than its parent is never "improved".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """{(workload, seed): [record, ...]} of the untraced records."""
    out: dict = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                out.setdefault((rec["workload"], rec["seed"]), []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float, more_failures: bool) -> tuple[str, float]:
    """Verdict and share of pairs won for (parent, change) values of one metric."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(parent: float, change: float) -> float:
        return (parent - change) * sign

    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    share = sum(gain(p, c) > 0 for p, c in pairs) / len(pairs)
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    if share >= WIN_SHARE and gain(mp, mc) > q3 - q1 and not more_failures:
        return "improved", share
    if (q3 - q1) > bound * abs(mp) and not all(gain(p, c) > 0 for p in parent for c in change):
        return "unresolved", share
    if -gain(mp, mc) > bound * abs(mp):
        return "worse", share
    return "no worse", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted({s for w, s in parent if w == workload} & {s for w, s in change if w == workload})
        runs = [(p, c) for s in seeds for p, c in zip(parent[(workload, s)], change[(workload, s)])]
        failed_p = sum(p["failed"] for p, _ in runs)
        failed_c = sum(c["failed"] for _, c in runs)
        attempted_p = sum(p["attempted"] for p, _ in runs)
        attempted_c = sum(c["attempted"] for _, c in runs)
        print(f"{workload}: {len(runs)} pairs over seeds {seeds}; failed operations "
              f"parent {failed_p}/{attempted_p}, change {failed_c}/{attempted_c}")
        print(f"  {'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>5}  verdict")
        for m in metrics:
            name = m["name"]
            pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in runs]
            kind, share = verdict(pairs, m["better"], m["bound"], failed_c > failed_p)
            cols = []
            for side in (0, 1):
                q1, q2, q3 = quartiles([pair[side] for pair in pairs])
                cols.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] {m['unit']}")
            print(f"  {name:<12} {cols[0]:>34} {cols[1]:>34} {share:>5.2f}  {kind} (bound {m['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
