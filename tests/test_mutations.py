"""Every suite shown able to fail: a table of one-point defects.

Each row injects one small defect into one lpw function with monkeypatch and
runs `lpw verify <suite>` on fixtures/smoke.json, or, for the suites that
smoke.json leaves out, on fixtures/default.json with 8 corpus members.
Unmutated, the suite exits 0; under the defect it must exit 1, and a record
that failed (or the summary of a suite whose records carry no verdict) must
hold the named check's value on the wrong side of its bound.  A suite no such
defect can flip passes vacuously, so a row that stops flipping is a finding,
not a row to weaken.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import lpw.lpaley
import lpw.maximal
import lpw.spaces
import lpw.suites
import lpw.verify
import lpw.weights
from lpw.cli import main
from lpw.grid import GridFunction

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
SMOKE = FIXTURES / "smoke.json"


def scaled_middle_row(band_magnitudes):
    """band_magnitudes with its middle level's row scaled by 1 + 1e-9."""

    def mutant(f, pair):
        mags = band_magnitudes(f, pair)
        mags.values[len(mags.values) // 2] *= 1 + 1e-9
        return mags

    return mutant


def lattice_rows_rolled(band_decompose):
    """band_decompose whose bands at the plain lattice, the rows analyze
    samples, are rolled by one cell."""

    def mutant(f, pair, lattice=False):
        bands = band_decompose(f, pair, lattice)
        if lattice:
            bands.values[...] = np.roll(bands.values, 1, axis=1)
        return bands

    return mutant


def op0_skipped(with_roll):
    """_with_roll that leaves x as it is for the max at shift 1, op_0 of the fold."""
    return lambda op, x, d, ax: x if op is np.maximum and d == 1 else with_roll(op, x, d, ax)


def inverse_flags_dropped(stats):
    """FamilyNodes.stats that reads every request (r, inverse) as (r, False)."""
    return lambda self, weights, requests, k=0: stats(self, weights, [(r, False) for r, _ in requests], k)


def weight_ignored(weighted_lp_norm):
    """weighted_lp_norm under the unit weight, whatever weight it is given."""
    return lambda f, gamma, p: weighted_lp_norm(f, GridFunction(f.spec, np.ones(f.spec.shape)), p)


# (suite, module or class, function, mutant of the original, checked key, violated)
MUTATIONS = [
    pytest.param("selfequiv", lpw.suites, "weighted_lp_norm", lambda orig: lambda f, w, p: orig(f, w, p) + 1e-9,
                 "spread", lambda rec: rec["spread"] > rec["ceiling"], id="selfequiv-additive-norm-error"),
    pytest.param("partition", lpw.lpaley, "_partition_denominator", lambda orig: lambda rho: orig(rho) * (1 + 1e-9),
                 "max_deviation", lambda summary: summary["max_deviation"] > 1e-12, id="partition-denominator-scaled"),
    pytest.param("calderon", lpw.lpaley, "band_decompose", lattice_rows_rolled,
                 "max_residual", lambda summary: summary["max_residual"] > 1e-6, id="calderon-lattice-off-by-one"),
    pytest.param("classical", lpw.suites, "band_magnitudes", scaled_middle_row,
                 "besov_rel_err", lambda rec: rec["besov_rel_err"] > 1e-12, id="classical-one-row-scaled"),
    pytest.param("hoelder", lpw.weights.FamilyNodes, "stats", inverse_flags_dropped,
                 "floor", lambda rec: rec["floor"] < 1.0 - 1e-12, id="hoelder-inverse-flag-dropped"),
    pytest.param("xclassfit", lpw.weights.FamilyNodes, "stats", inverse_flags_dropped,
                 "alpha2", lambda rec: rec["alpha2"] < rec["alpha1"] - rec["grid_step"] - 1e-12,
                 id="xclassfit-inverse-flag-dropped"),
    pytest.param("maximal", lpw.maximal, "_with_roll", op0_skipped,
                 "maximal_abs_err", lambda rec: rec["maximal_abs_err"] > 1e-12, id="maximal-op0-skipped"),
    pytest.param("seqnorm", lpw.spaces, "_starred_cube_lp", lambda orig: lambda *a: orig(*a) * (1 + 1e-9),
                 "single_coeff_rel_err", lambda summary: summary["single_coeff_rel_err"] > 1e-12,
                 id="seqnorm-starred-cube-norm-scaled"),
    pytest.param("muckenhoupt", lpw.weights.FamilyNodes, "stats", inverse_flags_dropped,
                 "growth", lambda rec: rec["growth"] < 10.0, id="muckenhoupt-inverse-flag-dropped"),
    pytest.param("coincidence", lpw.suites, "weighted_lp_norm", weight_ignored,
                 "lp_report", lambda rec: rec["lp_report"]["pass"], id="coincidence-weight-ignored"),
]

# the suites for which no one-point defect was found that flips the verdict
# (each has a FOUND line in CHANGES.md), and why
UNFLIPPED = {
    "bmo": "its spread reads 1.26 to 1.69 under the defects tried, against the informational ceiling 50",
    "newnorm": "every record reads max_spread 1.0, so it cannot fail (ROADMAP item 6)",
}


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    """smoke.json, and default.json with 8 corpus members for the suites smoke.json leaves out."""
    default8 = json.loads((FIXTURES / "default.json").read_text())
    default8["corpus"]["size"] = 8
    path = tmp_path_factory.mktemp("configs") / "default8.json"
    path.write_text(json.dumps(default8))
    smoke_suites = json.loads(SMOKE.read_text())["suites"]
    return lambda suite: SMOKE if suite in smoke_suites else path


def verify(suite, config, out):
    rc = main(["verify", suite, "--config", str(config), "--out", str(out)])
    report = json.loads((out / "report.json").read_text()) if rc in (0, 1) else None
    return rc, report


@pytest.mark.parametrize("suite, module, name, mutate, key, violated", MUTATIONS)
def test_one_point_defect_fails_the_suite(tmp_path, monkeypatch, configs, suite, module, name, mutate, key, violated):
    config = configs(suite)
    assert verify(suite, config, tmp_path / "clean")[0] == 0
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    rc, report = verify(suite, config, tmp_path / "mutant")
    assert rc == 1
    (result,) = report["suites"]
    assert result["pass"] is False
    failed = [rec for rec in result["records"] if isinstance(rec, dict) and rec.get("pass") is False]
    assert any(key in part and violated(part) for part in failed + [result["summary"]]), result


def test_every_suite_has_a_row_or_a_finding():
    rows = {p.values[0] for p in MUTATIONS}
    assert rows.isdisjoint(UNFLIPPED)
    assert sorted(rows | set(UNFLIPPED)) == sorted(lpw.suites.ALL_SUITES)
