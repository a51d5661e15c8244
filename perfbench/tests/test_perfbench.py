"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The end-to-end tests run real workloads (about two minutes in all).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
from tracer import FFT_FUNCTIONS, METHODS, MODULES, Tracer  # noqa: E402


def _bench(out: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return json.loads((out / "results.jsonl").read_text().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    record = _bench(out, "--workload", "norm-sweep", "--seed", "7", "--seconds", "1", "--trace", "1")
    return out / "norm-sweep" / "seed7-trace1", record


def _namespaces():
    import numpy.fft

    lpw = importlib.import_module("lpw")
    mods = [lpw] + [importlib.import_module(f"lpw.{m}") for m in MODULES]
    spaces = [dict(vars(m)) for m in mods]
    spaces.append(dict(importlib.import_module("lpw.suites").ALL_SUITES))
    spaces.append({name: getattr(numpy.fft, name) for name in FFT_FUNCTIONS})
    for mod, cls, meth in METHODS:
        spaces.append({meth: vars(getattr(importlib.import_module(f"lpw.{mod}"), cls))[meth]})
    return spaces


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import lpw.cli

    before = _namespaces()
    tracer = Tracer(full=True)
    with tracer.installed():
        assert lpw.cli.band_decompose is not before[0]["band_decompose"]
        rc = lpw.cli.main(["verify", "partition", "--config", str(ROOT / "fixtures/smoke.json"),
                           "--out", str(tmp_path)])
    assert rc == 0
    assert "suites.partition" in tracer.names and len(tracer.span_name) > 0
    after = _namespaces()
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        for key in old:
            assert new[key] is old[key], key


def test_traced_and_untraced_outputs_are_byte_identical(traced_sweep):
    work, _ = traced_sweep
    plain = sorted(p.relative_to(work / "0-plain") for p in (work / "0-plain").rglob("out/**/*") if p.is_file())
    assert any(p.name == "norms.json" for p in plain) and any(p.suffix == ".bin" for p in plain)
    for rel in plain:
        assert (work / "1-trace" / rel).read_bytes() == (work / "0-plain" / rel).read_bytes(), rel


def test_self_times_sum_to_at_most_traced_wall(traced_sweep):
    _, record = traced_sweep
    metrics = record["metrics"]
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]["value"]
    assert set(metrics) == {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def test_verify_1d_report_matches_plain_cli_run(tmp_path):
    _bench(tmp_path / "runs", "--workload", "verify-1d", "--seed", str(run.COMMITTED_SEED),
           "--seconds", "1", "--trace", "0")
    bench_report = tmp_path / "runs/verify-1d" / f"seed{run.COMMITTED_SEED}-trace0/0-plain/0-verify/out/report.json"
    subprocess.run([sys.executable, "-m", "lpw.cli", "verify", "all", "--config", "fixtures/default.json",
                    "--out", str(tmp_path / "plain")], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   capture_output=True, timeout=600, check=True)
    digest = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (bench_report, tmp_path / "plain/report.json")]
    assert digest[0] == digest[1]


def test_rel_diff_flags_any_change():
    doc = {"a": [1.0, {"b": "x", "c": True}], "d": 2}
    assert run.rel_diff(doc, json.loads(json.dumps(doc))) == 0.0
    assert run.rel_diff(doc, {"a": [1.0 + 1e-9, {"b": "x", "c": True}], "d": 2}) == pytest.approx(1e-9, rel=1e-3)
    assert run.rel_diff(doc, {"a": [1.0, {"b": "y", "c": True}], "d": 2}) == float("inf")
    assert run.rel_diff(doc, {"a": [1.0], "d": 2}) == float("inf")


def test_compare_verdicts():
    same = [(10.0 + 0.01 * i, 10.0 + 0.01 * i) for i in range(10)]
    assert compare.verdict(same, "lower", 0.1, False)[0] == "no worse"
    faster = [(p, 0.8 * p) for p, _ in same]
    assert compare.verdict(faster, "lower", 0.1, False) == ("improved", 1.0)
    assert compare.verdict(faster, "lower", 0.1, True)[0] == "no worse"
    slower = [(p, 1.3 * p) for p, _ in same]
    assert compare.verdict(slower, "lower", 0.1, False)[0] == "worse"
    noisy = [(10.0 * (1 + (i % 2)), 10.0) for i in range(10)]
    assert compare.verdict(noisy, "lower", 0.1, False)[0] == "unresolved"


def test_output_check_fails_on_any_reference_mismatch(tmp_path):
    req = next(r for r in run.requests("norm-sweep", tmp_path / "configs") if r.label == "norm_Hardy")
    reference = run.reference_for("norm-sweep", req, run.COMMITTED_SEED)
    (tmp_path / "norms.json").write_text(json.dumps(reference))
    assert [op.ok for op in run.check_request(req, 0, tmp_path, reference)] == [True]
    reference["records"][5]["value"] *= 1 + 1e-11
    (tmp_path / "norms.json").write_text(json.dumps(reference))
    (op,) = run.check_request(req, 0, tmp_path, run.reference_for("norm-sweep", req, run.COMMITTED_SEED))
    assert not op.ok and op.diff > run.REL_TOL
    # other seeds check verdicts only
    assert [op.ok for op in run.check_request(req, 0, tmp_path, None)] == [True]
