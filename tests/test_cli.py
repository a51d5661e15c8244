import json
from pathlib import Path

import numpy as np
import pytest

from lpw.cli import RunConfig, main
from lpw.suites import ALL_SUITES, ONE_D_SUITES


SMALL_CONFIG = {
    "grid": {"n": 1, "R": 8.0, "N": 512, "offset": True},
    "levels": {"k_min": -3, "k_max": 5},
    "cubes": {"v_min": -4, "v_max": 6, "translates": True, "max_per_level": 2048},
    "corpus": {"size": 6, "seed": 99},
    "suites": ["selfequiv", "partition", "calderon", "classical"],
    "norm": {"space": "F", "p": 2.0, "q": 2.0, "weight": "pow:0.3", "input": "corpus"},
}


def write_config(tmp_path, overrides=None, **kw):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for key, val in (overrides or {}).items():
        parts = key.split(".")
        cur = cfg
        for p in parts[:-1]:
            cur = cur.setdefault(p, {})
        cur[parts[-1]] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigValidation:
    def test_zero_exponent_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, {"norm.p": 0})
        assert main(["verify", "all", "--config", path]) == 2
        assert "norm.p" in capsys.readouterr().err

    def test_bad_grid(self, tmp_path, capsys):
        path = write_config(tmp_path, {"grid.N": 100})
        assert main(["verify", "all", "--config", path]) == 2
        assert "grid" in capsys.readouterr().err

    def test_bad_weight(self, tmp_path, capsys):
        path = write_config(tmp_path, {"weights": {"bad": "pow"}})
        assert main(["verify", "all", "--config", path]) == 2
        assert "weights.bad" in capsys.readouterr().err

    def test_unknown_suite(self, tmp_path, capsys):
        path = write_config(tmp_path, {"suites": ["nonsense"]})
        assert main(["verify", "all", "--config", path]) == 2

    def test_unresolvable_levels(self, tmp_path, capsys):
        path = write_config(tmp_path, {"levels.k_min": -9})
        assert main(["verify", "all", "--config", path]) == 2
        assert "levels" in capsys.readouterr().err

    def test_seqnorm_without_cases(self, tmp_path, capsys):
        # R = 1 and k_max = 2 < 3 leave none of seqnorm's lone-coefficient
        # cases, whether seqnorm is listed in the config or named on the line
        tiny = {"grid.R": 1.0, "levels.k_min": -1, "levels.k_max": 2, "cubes.v_min": -1}
        path = write_config(tmp_path, {**tiny, "suites": ["partition", "seqnorm"]})
        assert main(["verify", "all", "--config", path]) == 2
        assert "config field 'levels'" in capsys.readouterr().err
        path = write_config(tmp_path, tiny)
        assert main(["verify", "seqnorm", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'levels'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        RunConfig(json.loads(Path(path).read_text()))  # accepted while seqnorm is not listed

    def test_empty_annulus(self, tmp_path, capsys, rng):
        # R = 1 and levels -1..2 resolve the annulus [1, 2], below the grid's
        # fundamental frequency pi: no corpus and no partition mask exist
        tiny = {"grid.R": 1.0, "levels.k_min": -1, "levels.k_max": 2, "cubes.v_min": -1}
        path = write_config(tmp_path, tiny)
        for argv in (["verify", "selfequiv"], ["verify", "partition"], ["verify", "all"], ["norm"], ["decompose"]):
            out = tmp_path / "o"
            assert main([*argv, "--config", path, "--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert "config field 'levels'" in err and "annulus [1, 2]" in err, argv
            assert not out.exists()
        # a suite that needs no corpus still runs on this grid, and so does a
        # norm of a file input
        assert main(["verify", "hoelder", "--config", path, "--out", str(tmp_path / "h")]) == 0
        from lpw.grid import GridFunction, GridSpec, save_grid_function

        save_grid_function(GridFunction(GridSpec(1, 1.0, 512), rng.normal(size=512)), tmp_path / "f")
        path = write_config(tmp_path, {**tiny, "norm.input": str(tmp_path / "f"), "norm.space": "BMO"})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "n")]) == 0

    def test_nonempty_annulus_accepted(self, tmp_path):
        # one more level puts the fundamental pi inside the annulus [1, 4]
        path = write_config(
            tmp_path, {"grid.R": 1.0, "levels.k_min": -1, "levels.k_max": 3, "cubes.v_min": -1}
        )
        for argv in (["verify", "partition"], ["norm"]):
            out = tmp_path / argv[-1]
            assert main([*argv, "--config", path, "--out", str(out)]) == 0, argv
            assert out.exists()

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "all", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_theta_ordering(self, tmp_path, capsys):
        path = write_config(tmp_path, {"exponents": [[2.0, 3.0]]})
        assert main(["verify", "all", "--config", path]) == 2
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", sorted(ONE_D_SUITES))
    def test_one_d_suites_rejected_in_2d(self, tmp_path, capsys, suite):
        # named on the line or listed in the config, a 1D-only suite on a 2D
        # grid is refused before the run, naming grid.n
        path = write_config(tmp_path, {**SWEEP_CONFIGS["2d"], "suites": [suite]})
        for name in (suite, "all"):
            assert main(["verify", name, "--config", path, "--out", str(tmp_path / "out")]) == 2
            assert "grid.n" in capsys.readouterr().err


# tiny 1D and 2D grids on which every suite runs in well under a second
SWEEP_CONFIGS = {
    "1d": {"grid.n": 1, "grid.R": 4.0, "grid.N": 128, "levels.k_min": -3, "levels.k_max": 4,
           "cubes.v_min": -3, "cubes.v_max": 5, "corpus.size": 4},
    "2d": {"grid.n": 2, "grid.R": 2.0, "grid.N": 64, "levels.k_min": -1, "levels.k_max": 4,
           "cubes.v_min": -1, "cubes.v_max": 5, "corpus.size": 4},
}


class TestSuiteSweep:
    """Every suite ends in a verdict (exit 0 or 1) on small configs, or is
    refused before the run (exit 2) where it has no form for the grid; none
    crashes (exit 3)."""

    @pytest.mark.parametrize("dim", sorted(SWEEP_CONFIGS))
    @pytest.mark.parametrize("suite", sorted(ALL_SUITES))
    def test_ends_in_verdict(self, tmp_path, dim, suite):
        path = write_config(tmp_path, SWEEP_CONFIGS[dim])
        rc = main(["verify", suite, "--config", path, "--out", str(tmp_path / "out")])
        if dim == "2d" and suite in ONE_D_SUITES:
            assert rc == 2
        else:
            assert rc in (0, 1)
            assert (tmp_path / "out" / "report.json").exists()


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "all", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert [s["suite"] for s in report["suites"]] == SMALL_CONFIG["suites"]
        rep0 = report["suites"][0]["records"][0]
        assert rep0["min_ratio"] == 1.0 and rep0["max_ratio"] == 1.0

    def test_single_suite(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "single"
        assert main(["verify", "partition", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["suites"]) == 1

    def test_determinism(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "all", "--config", path, "--out", str(out1)]) == 0
        assert main(["verify", "all", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "ratios.csv").read_bytes() == (out2 / "ratios.csv").read_bytes()

    def test_suite_failure_exit_code(self, tmp_path):
        # an impossible ceiling turns a passing measurement into a failure
        path = write_config(
            tmp_path,
            {"suites": ["bmo"], "ceilings": {"informational": 1.0001}},
        )
        out = tmp_path / "out"
        assert main(["verify", "all", "--config", path, "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is False

    def test_crash_exit_code(self, tmp_path, monkeypatch, capsys):
        # an uncaught exception is a crash, exit code 3, not a failed suite
        import lpw.cli

        def broken(ctx):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setitem(lpw.cli.ALL_SUITES, "partition", broken)
        path = write_config(tmp_path)
        assert main(["verify", "partition", "--config", path, "--out", str(tmp_path / "out")]) == 3
        assert "ZeroDivisionError: float division by zero" in capsys.readouterr().err

    def test_seed_override_changes_report(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "calderon", "--config", path, "--out", str(out1)])
        main(["verify", "calderon", "--config", path, "--out", str(out2), "--seed", "123"])
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()


    def test_smoke_seqnorm_ends_in_verdict(self, tmp_path):
        # every lone-coefficient case outside the N=512 window is skipped, not
        # painted onto half cells
        smoke = Path(__file__).resolve().parents[1] / "fixtures" / "smoke.json"
        assert main(["verify", "seqnorm", "--config", str(smoke), "--out", str(tmp_path)]) == 0
        suite = json.loads((tmp_path / "report.json").read_text())["suites"][0]
        assert suite["pass"] is True
        assert suite["summary"]["single_coeff_rel_err"] <= 1e-12


class TestOtherCommands:
    def test_norm_records(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["norm", "--config", path, "--out", str(out)]) == 0
        records = json.loads((out / "norms.json").read_text())["records"]
        assert len(records) == SMALL_CONFIG["corpus"]["size"]
        assert all(r["value"] > 0 for r in records)
        assert records[0]["weight"] == "pow:0.3"

    def test_norm_from_file(self, tmp_path, rng):
        from lpw.grid import GridFunction, GridSpec, save_grid_function

        spec = GridSpec(1, 8.0, 512)
        save_grid_function(GridFunction(spec, rng.normal(size=512)), tmp_path / "f")
        path = write_config(tmp_path, {"norm.input": str(tmp_path / "f"), "norm.space": "BMO"})
        out = tmp_path / "out"
        assert main(["norm", "--config", path, "--out", str(out)]) == 0
        records = json.loads((out / "norms.json").read_text())["records"]
        assert len(records) == 1

    @pytest.mark.parametrize("space,q", [("F_inf", 2.0), ("Lp", 2.0), ("Hardy", 2.0), ("B", "inf")])
    def test_norm_other_spaces(self, tmp_path, space, q):
        path = write_config(tmp_path, {"norm.space": space, "norm.q": q, "corpus.size": 2})
        out = tmp_path / "out"
        assert main(["norm", "--config", path, "--out", str(out)]) == 0
        records = json.loads((out / "norms.json").read_text())["records"]
        assert all(r["value"] > 0 for r in records)

    def test_decompose(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["decompose", "--config", path, "--out", str(out)]) == 0
        bins = sorted(out.glob("bands_*/band_*.bin"))
        assert len(bins) == 9  # levels -3..5

    @pytest.mark.parametrize("member", [4, 8])
    def test_decompose_exports_the_named_member(self, tmp_path, member):
        from lpw.lpaley import band_decompose

        path = write_config(tmp_path, {"decompose.member": member})
        out = tmp_path / "out"
        assert main(["decompose", "--config", path, "--out", str(out)]) == 0
        ctx = RunConfig(json.loads(Path(path).read_text())).context()
        mem = ctx.corpus()[member % SMALL_CONFIG["corpus"]["size"]]
        band_decompose(mem.f, ctx.pair()).export(tmp_path / "want")
        got = sorted(p.name for p in (out / f"bands_{mem.name}").iterdir())
        assert got == sorted(p.name for p in (tmp_path / "want").iterdir()) and got
        for name in got:
            assert (out / f"bands_{mem.name}" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    @pytest.mark.parametrize("op", ["ap", "xclass", "rh"])
    def test_weights_reports(self, tmp_path, op):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["weights", op, "--config", path, "--out", str(out)]) == 0
        data = json.loads((out / f"weights_{op}.json").read_text())
        assert len(data["records"]) == 9
        if op == "ap":
            assert all("witness_cube" in r for r in data["records"])


class TestReportCommand:
    def test_empty_report(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"suites": []}))
        assert main(["report", str(path), "--out", str(tmp_path / "r")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header and rule only

    def test_malformed_report(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        assert main(["report", str(path), "--out", str(tmp_path / "r")]) == 2

    def test_single_suite_row_matches(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["verify", "selfequiv", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out / "report.json"), "--out", str(tmp_path / "r")]) == 0
        text = capsys.readouterr().out
        assert "selfequiv" in text and "pass" in text
        assert (tmp_path / "r" / "plot_data.csv").exists()

    def test_render_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["verify", "all", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        main(["report", str(out / "report.json"), "--out", str(tmp_path / "r1")])
        text1 = capsys.readouterr().out
        main(["report", str(out / "report.json"), "--out", str(tmp_path / "r2")])
        text2 = capsys.readouterr().out
        assert text1 == text2
        assert (tmp_path / "r1" / "plot_data.csv").read_bytes() == (
            tmp_path / "r2" / "plot_data.csv"
        ).read_bytes()
