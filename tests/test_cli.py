import ast
import contextlib
import io
import json
import re
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lpw.cli
import lpw.suites
from lpw.cli import CUBE_BUDGET, RunConfig, main
from lpw.grid import CubeFamily, GridFunction, GridSpec, save_grid_function
from lpw.suites import ALL_SUITES, SUITES, _suite, suite_bmo, suite_maximal, suite_newnorm


SMALL_CONFIG = {
    "grid": {"n": 1, "R": 8.0, "N": 512, "offset": True},
    "levels": {"k_min": -3, "k_max": 5},
    "cubes": {"v_min": -4, "v_max": 6, "translates": True, "max_per_level": 2048},
    "corpus": {"size": 6, "seed": 99},
    "suites": ["selfequiv", "partition", "calderon", "classical"],
    "norm": {"space": "F", "p": 2.0, "q": 2.0, "weight": "pow:0.3", "input": "corpus"},
}


def export_bands(f, pair, directory):
    """Each band of f (a real function) on pair saved as band_<k>, the layout
    lpw decompose writes, from one inverse transform per level."""
    directory.mkdir(parents=True)
    for k in pair.levels():
        bk = np.fft.ifftn(pair.phi_mult[k] * np.fft.fftn(f.values)).real
        save_grid_function(GridFunction(f.spec, bk), directory / f"band_{k:+03d}")


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

    @pytest.mark.parametrize("overrides, field", [
        pytest.param({"cubes.max_per_level": 4}, "config field 'cubes': max_per_level", id="max_per_level"),
        pytest.param({"corpus.size": "abc"}, "config field 'corpus.size'", id="corpus_size"),
        pytest.param({"grid.n": "x"}, "config field 'grid.n'", id="grid_n"),
        pytest.param({"levels.k_max": None}, "config field 'levels.k_max'", id="k_max_null"),
        pytest.param({"decompose.member": "first"}, "config field 'decompose.member'", id="member"),
        pytest.param({"weights": ["pow:0.3"]}, "config field 'weights'", id="weights_list"),
        pytest.param({"suites": "partition"}, "config field 'suites': expected a list", id="suites_string"),
        pytest.param({"grid.R": "x"}, "config field 'grid.R'", id="R_string"),
        pytest.param({"grid.R": [1]}, "config field 'grid.R'", id="R_list"),
        pytest.param({"grid.R": True}, "config field 'grid.R'", id="R_bool"),
        pytest.param({"grid.offset": "false"}, "config field 'grid.offset'", id="offset_string"),
        pytest.param({"grid.offset": False}, "config field 'grid.offset'", id="offset_false"),
        pytest.param({"cubes.translates": 0}, "config field 'cubes.translates'", id="translates_int"),
        pytest.param({"grid.N": 512.5}, "config field 'grid.N'", id="N_fraction"),
        pytest.param({"corpus.size": True}, "config field 'corpus.size'", id="size_bool"),
        pytest.param({"weights": {"w1": 5}}, "config field 'weights.w1'", id="weight_number"),
        pytest.param({"weights": {"w1": None}}, "config field 'weights.w1'", id="weight_null"),
        pytest.param({"norm.weight": ["pow:0.3"]}, "config field 'norm.weight'", id="norm_weight_list"),
        pytest.param({"exponents": 5}, "config field 'exponents'", id="exponents_number"),
        pytest.param({"exponents": [None]}, "config field 'exponents[0]'", id="exponents_null_pair"),
        pytest.param({"suites": ["selfequiv", ["x"]]}, "config field 'suites'", id="suites_nested_list"),
        pytest.param({"suites": [{"a": 1}]}, "config field 'suites'", id="suites_object"),
        pytest.param({"norm.p": True}, "config field 'norm.p'", id="norm_p_bool"),
        pytest.param({"exponents": [[3.0, True]]}, "config field 'exponents[0].theta'", id="theta_bool"),
        pytest.param({"weights": {"w1": "pow:nan"}}, "config field 'weights.w1'", id="weight_nan"),
        pytest.param({"norm.weight": "const:inf"}, "config field 'norm.weight'", id="norm_weight_inf"),
        pytest.param({"weights": {"w1": "shiftpow:1,nan"}}, "config field 'weights.w1'", id="shiftpow_nan"),
        pytest.param({"cubes.vmax": 3}, "config field 'cubes.vmax'", id="unread_field"),
        pytest.param({"grid": 5}, "config field 'grid'", id="section_number"),
        pytest.param({"nrom": {"space": "B"}}, "config field 'nrom'", id="unread_section"),
        # R 2^(v_max + 10) overflowed in level_index_range, exit 3, for hoelder and muckenhoupt
        pytest.param({"cubes.v_max": 1100}, "config field 'cubes.v_max'", id="v_max_overflow"),
        pytest.param({"cubes.v_max": 1011}, "config field 'cubes.v_max'", id="v_max_deepened_overflow"),
        # empty lists passed with nothing checked: hoelder with 0 records, the
        # weight checks with 0 weights, verify all with no suite
        pytest.param({"exponents": []}, "config field 'exponents'", id="exponents_empty"),
        pytest.param({"weights": {}}, "config field 'weights'", id="weights_empty"),
        pytest.param({"suites": []}, "config field 'suites'", id="suites_empty"),
        # a repeated suite ran twice, with two report entries and the second
        # run's time printed for both; a member past the corpus wrapped round
        pytest.param({"suites": ["partition", "partition"]}, "config field 'suites': 'partition' is named twice",
                     id="suites_repeated"),
        pytest.param({"decompose.member": 6}, "config field 'decompose.member'", id="member_past_corpus"),
    ])
    def test_malformed_value_names_field(self, tmp_path, capsys, overrides, field):
        path = write_config(tmp_path, overrides)
        assert main(["verify", "all", "--config", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["fixtures/default.json", "fixtures/smoke.json",
                                        "perfbench/configs/norm_sweep.json", "perfbench/configs/verify_2d.json"])
    def test_shipped_config_reads_every_field(self, config):
        # RunConfig refuses a key that none of its reads asks for
        RunConfig(json.loads((Path(__file__).resolve().parents[1] / config).read_text()))

    @pytest.mark.parametrize("ceilings", [
        pytest.param({"informational": 1.0001}, id="tightened"),
        pytest.param({"equivalence": 1e6}, id="loosened"),
        pytest.param({"seq_ratio": 20.0}, id="pinned_value"),
        pytest.param({}, id="empty"),
    ])
    @pytest.mark.parametrize("command", [["verify", "all"], ["weights", "ap"]])
    def test_ceilings_section_refused(self, tmp_path, capsys, ceilings, command):
        # the ceilings are pinned in suites.CEILINGS: a config that sets one
        # is refused, never run at the pinned value without a word
        path = write_config(tmp_path, {"ceilings": ceilings})
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config field 'ceilings'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("cubes", [{"cubes.v_min": 6, "cubes.v_max": 7}, {"cubes.v_min": -5}], ids=["finer", "wider"])
    def test_family_outside_level_window(self, tmp_path, capsys, cubes):
        # the N=512 grid on [-8, 8) has levels -4..5: level 6 cubes are finer
        # than a cell and level -5 cubes wider than the domain; the rule holds
        # for the quadrature-only suites too
        path = write_config(tmp_path, cubes)
        for argv in (["verify", "newnorm"], ["verify", "bmo"], ["verify", "hoelder"], ["norm"]):
            assert main([*argv, "--config", path, "--out", str(tmp_path / "o")]) == 2, argv
            assert "config field 'cubes.v_min'" in capsys.readouterr().err, argv

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", "all", "--config", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[]", "5", '"grid"', "null"])
    def test_config_not_an_object_refused(self, tmp_path, capsys, text):
        # a list or a number has no sections, and ran the default config
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["verify", "partition", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "config field 'config': expected a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_theta_ordering(self, tmp_path, capsys):
        path = write_config(tmp_path, {"exponents": [[2.0, 3.0]]})
        assert main(["verify", "all", "--config", path]) == 2
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize("op", ["ap"])
    @pytest.mark.parametrize("pair", [[1.0, 0.5], ["inf", 1.2]], ids=["p1", "pinf"])
    def test_muckenhoupt_exponent_outside_range_refused(self, tmp_path, capsys, op, pair):
        # A_p needs 1 < p < inf; hoelder and weights xclass take these pairs
        path = write_config(tmp_path, {"exponents": [pair], "suites": ["hoelder"]})
        out = tmp_path / "out"
        assert main(["weights", op, "--config", path, "--out", str(out)]) == 2
        assert "config field 'exponents[0].p'" in capsys.readouterr().err
        assert not out.exists()
        assert main(["weights", "xclass", "--config", path, "--out", str(out)]) == 0
        assert main(["verify", "all", "--config", path, "--out", str(out)]) == 0

    @pytest.mark.parametrize("command", [["weights", "ap"], ["weights", "xclass"], ["verify", "all"]],
                             ids=["ap", "xclass", "verify_all"])
    def test_weights_without_exponents_refused(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"exponents": [], "suites": ["hoelder"]})
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config field 'exponents'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite", sorted(name for name, s in SUITES.items() if s.one_d))
    def test_one_d_suites_rejected_in_2d(self, tmp_path, capsys, suite):
        # named on the line or listed in the config, a 1D-only suite on a 2D
        # grid is refused before the run, naming grid.n
        path = write_config(tmp_path, {**SWEEP_CONFIGS["2d"], "suites": [suite]})
        for name in (suite, "all"):
            assert main(["verify", name, "--config", path, "--out", str(tmp_path / "out")]) == 2
            assert "grid.n" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [["verify", "newnorm"], ["verify", "bmo"], ["norm"]])
    def test_family_above_the_levels_refused_for_scans(self, tmp_path, capsys, command):
        # cubes from level -2 up, bands from -3: a Carleson scan would read no
        # cube for level -3
        path = write_config(tmp_path, {"cubes.v_min": -2, "norm.space": "F_inf", "norm.p": "inf"})
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config field 'cubes.v_min'" in capsys.readouterr().err

    def test_family_above_the_levels_runs_without_scans(self, tmp_path):
        path = write_config(tmp_path, {"cubes.v_min": -2, "suites": ["partition"]})
        assert main(["verify", "all", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert main(["norm", "--config", path, "--out", str(tmp_path / "out")]) == 0


# tiny 1D and 2D grids on which every suite runs in well under a second
SWEEP_CONFIGS = {
    "1d": {"grid.n": 1, "grid.R": 4.0, "grid.N": 128, "levels.k_min": -3, "levels.k_max": 4,
           "cubes.v_min": -3, "cubes.v_max": 5, "corpus.size": 4},
    "2d": {"grid.n": 2, "grid.R": 2.0, "grid.N": 64, "levels.k_min": -1, "levels.k_max": 4,
           "cubes.v_min": -1, "cubes.v_max": 5, "corpus.size": 4},
}
SWEEP_CONFIGS["1d_unshifted"] = {**SWEEP_CONFIGS["1d"], "grid.offset": False}
# the field that refuses a suite on each sweep grid, and the suites it refuses
SWEEP_REFUSED = {"2d": ("grid.n", {name for name, s in SUITES.items() if s.one_d}),
                 "1d_unshifted": ("grid.offset", set(SUITES))}


class TestSuiteSweep:
    """Every suite ends in a verdict (exit 0 or 1) on small configs, or is
    refused before the run (exit 2) where it has no form for the grid; none
    crashes (exit 3)."""

    @pytest.mark.parametrize("dim", sorted(SWEEP_CONFIGS))
    @pytest.mark.parametrize("suite", sorted(ALL_SUITES))
    def test_ends_in_verdict(self, tmp_path, capsys, dim, suite):
        path = write_config(tmp_path, SWEEP_CONFIGS[dim])
        rc = main(["verify", suite, "--config", path, "--out", str(tmp_path / "out")])
        field, refused = SWEEP_REFUSED.get(dim, ("", {}))
        if suite in refused:
            assert rc == 2
            assert f"config field '{field}'" in capsys.readouterr().err
        else:
            assert rc in (0, 1)
            assert (tmp_path / "out" / "report.json").exists()


class TestRegistry:
    """suites.SUITES is the one statement of what each suite needs: cli.py
    reads it off the records and never names a suite."""

    def test_one_record_per_suite(self):
        assert SUITES.keys() == ALL_SUITES.keys()
        assert all(ALL_SUITES[name] is s.run for name, s in SUITES.items())

    def test_cli_names_no_suite(self):
        tree = ast.parse(Path(lpw.cli.__file__).read_text())
        words = {word for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 for word in re.findall(r"\w+", node.value)}
        assert words.isdisjoint(SUITES)


# the suites whose verdict _suite derives from their records
DERIVED = ["muckenhoupt", "hoelder", "classical", "newnorm", "coincidence", "maximal", "xclassfit", "bmo"]


class TestVerdictRule:
    """A suite passes when every record passes; only the four suites whose
    verdict rests on values no record carries give it explicitly."""

    def test_one_failing_record_fails_the_suite(self):
        assert _suite("x", {}, [{"pass": True}, {"pass": True}])["pass"] is True
        assert _suite("x", {}, [{"pass": True}, {"pass": np.False_}])["pass"] is False

    def test_explicit_verdict_wins(self):
        assert _suite("x", {}, [{"pass": True}], passed=False)["pass"] is False
        assert _suite("x", {}, [], passed=np.True_)["pass"] is True

    def test_four_suites_give_their_verdict(self):
        tree = ast.parse(Path(lpw.suites.__file__).read_text())
        explicit = {node.args[0].value for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_suite" and (len(node.args) > 3 or node.keywords)}
        assert explicit == {"selfequiv", "partition", "calderon", "seqnorm"}
        assert explicit.isdisjoint(DERIVED) and sorted(explicit.union(DERIVED)) == sorted(SUITES)

    def test_verdict_is_the_records_conjunction(self, tmp_path):
        # smoke.json fails coincidence, so a failing verdict is checked too
        smoke = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "smoke.json").read_text())
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**smoke, "suites": DERIVED}))
        assert main(["verify", "all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [suite["suite"] for suite in report["suites"]] == DERIVED
        verdicts = {suite["suite"]: suite["pass"] for suite in report["suites"]}
        assert verdicts == {suite["suite"]: all(rec["pass"] for rec in suite["records"]) for suite in report["suites"]}
        assert verdicts["coincidence"] is False


@st.composite
def small_configs(draw):
    """A small config: n, R and N, then levels and cube levels that
    start inside the grid's level window and end inside it or one above, a
    corpus and a list of suites."""
    n = draw(st.sampled_from([1, 2]))
    R = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]))
    N = 2 ** draw(st.integers(5, 9) if n == 1 else st.integers(4, 5))
    lo, hi = GridSpec(n, R, N).level_window()
    k_min = draw(st.integers(lo, hi))
    v_min = draw(st.integers(lo, hi))
    return {
        "grid": {"n": n, "R": R, "N": N},
        "levels": {"k_min": k_min, "k_max": draw(st.integers(k_min, hi + 1))},
        "cubes": {"v_min": v_min, "v_max": draw(st.integers(v_min, hi + 1)), "translates": draw(st.booleans())},
        "corpus": {"size": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 2**32 - 1))},
        "suites": draw(st.lists(st.sampled_from(sorted(ALL_SUITES)), min_size=1, max_size=4, unique=True)),
    }


class TestAcceptedConfigsRun:
    """verify all on any small config ends in a verdict (exit 0 or 1) or is
    refused before the run with exit 2 and the name of a config field; it
    never ends in a traceback (exit 3).  Exit 1 is allowed: coincidence and
    muckenhoupt still fail on small grids."""

    @given(small_configs())
    @settings(max_examples=600, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_no_traceback(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(cfg))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["verify", "all", "--config", str(path), "--out", str(Path(tmp) / "out")])
            assert rc in (0, 1, 2), err.getvalue()
            if rc == 2:
                assert err.getvalue().startswith("error: config field '"), err.getvalue()
            else:
                assert (Path(tmp) / "out" / "report.json").exists()


BAND_KERNELS = ("besov_norm", "tl_norm", "tl_infty_norm")


class TestBandKernelsReachedByName:
    """stack_norm calls the band-norm kernels through the spaces module, so
    a wrapper put in the module namespace, as perfbench/tracer.py puts its
    spans, sees every suite and command that takes a band norm."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from lpw import spaces

        calls = Counter()
        for name in BAND_KERNELS:
            def counted(*args, _orig=getattr(spaces, name), _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(spaces, name, counted)
        return calls

    def test_suites(self, tmp_path, calls):
        ctx = RunConfig(json.loads(Path(write_config(tmp_path, SWEEP_CONFIGS["1d"])).read_text())).ctx
        assert suite_newnorm(ctx)["records"]
        assert all(calls[name] > 0 for name in BAND_KERNELS), calls
        calls.clear()
        suite_bmo(ctx)
        assert dict(calls) == {"tl_infty_norm": ctx.corpus_size}

    @pytest.mark.parametrize("space, kernel", list(zip(["B", "F", "F_inf"], BAND_KERNELS)))
    def test_norm_command(self, tmp_path, calls, space, kernel):
        path = write_config(tmp_path, {**SWEEP_CONFIGS["1d"], "norm.space": space})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert dict(calls) == {kernel: SWEEP_CONFIGS["1d"]["corpus.size"]}


NORM_KERNELS = (("spaces", "carleson_sup"), ("grid", "lp_lq_norm"), ("maximal", "maximal_fn"))


class TestNormKernelsReachedByName:
    """The Carleson scan, the L_p(l_q) sum and the maximal fold each have one
    entry point that every reader calls by name, so a wrapper put in each
    lpw module namespace that binds the name, as perfbench/tracer.py puts
    its spans, counts all the work done through the kernel."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import importlib

        modules = [importlib.import_module(f"lpw.{m}")
                   for m in ("cli", "suites", "verify", "spaces", "lpaley", "maximal", "weights", "grid")]
        calls = Counter()
        for home, name in NORM_KERNELS:
            orig = getattr(importlib.import_module(f"lpw.{home}"), name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            for module in modules:
                if vars(module).get(name) is orig:
                    monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.fixture
    def ctx(self, tmp_path):
        return RunConfig(json.loads(Path(write_config(tmp_path, SWEEP_CONFIGS["1d"])).read_text())).ctx

    def test_bmo_scans_once_per_member(self, ctx, calls):
        suite_bmo(ctx)
        assert calls["carleson_sup"] == ctx.corpus_size

    def test_norm_command_scans_once_per_member(self, tmp_path, calls):
        path = write_config(tmp_path, {**SWEEP_CONFIGS["1d"], "norm.space": "F_inf"})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert calls["carleson_sup"] == SWEEP_CONFIGS["1d"]["corpus.size"]

    def test_newnorm_scans_and_sums(self, ctx, calls):
        assert suite_newnorm(ctx)["records"]
        assert calls["carleson_sup"] > 0 and calls["lp_lq_norm"] > 0, calls

    def test_maximal_folds_each_stack_once(self, ctx, calls):
        # one stack per member on the grid and on the doubled grid, and one
        # for the comparison with the brute-force scan
        suite_maximal(ctx)
        assert calls["maximal_fn"] == 2 * ctx.corpus_size + 1


class TestFrozenLevel:
    """An Lp norm samples its weight at norm.frozen_level, which must lie in
    the pair's level window [-3, 5]; the other spaces do not read it."""

    @pytest.mark.parametrize("level", [2000, 6, -4])
    def test_outside_window_refused(self, tmp_path, capsys, level):
        # 2000 made 2.0 ** (k * s) raise OverflowError mid-run (exit 3)
        path = write_config(tmp_path, {"norm.space": "Lp", "norm.weight": "dyadic:1", "norm.frozen_level": level})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'norm.frozen_level'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("space, level", [("Lp", -3), ("Lp", 5), ("F", 2000)])
    def test_inside_window_or_unread_runs(self, tmp_path, space, level):
        path = write_config(tmp_path, {"norm.space": space, "norm.weight": "dyadic:1", "norm.frozen_level": level})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == 0


class TestUnshiftedGrid:
    """grid.offset: false, the plain lattice that holds the origin, is
    refused before the run on grid.offset: cell centres are the one grid."""

    @pytest.mark.parametrize("space", ["F", "B", "F_inf", "Lp", "Hardy"])
    def test_norm_weight_singular_at_origin_refused(self, tmp_path, capsys, space):
        for weight in ("pow:0.3", "pow:-0.2"):
            path = write_config(tmp_path, {"grid.offset": False, "norm.space": space, "norm.weight": weight})
            assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == 2
            assert "config field 'grid.offset'" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("space, weight", [("F", "shiftpow:0.4,1"), ("Lp", "dyadic:0.5"), ("BMO", "pow:0.3")])
    def test_norm_runs_where_weight_is_finite_or_unused(self, tmp_path, capsys, space, weight):
        # refused whatever the weight; on the cell-centred grid the same norm runs
        for offset, rc in ((False, 2), (True, 0)):
            path = write_config(tmp_path, {"grid.offset": offset, "norm.space": space, "norm.weight": weight})
            assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == rc


class TestWeightRange:
    """A norm weight or a weight-matrix entry whose level factor 2^(k s)
    under- or overflows on a level the run reads is refused before the run,
    not by an OverflowError or a WeightError mid-run (exit 3)."""

    _PRODUCTS = {"prod:[dyadic:600,dyadic:-600]": 0, "prod:[dyadic:150,dyadic:-300]": 0,
                 "prod:[dyadic:150,dyadic:150]": 2, "prod:[pow:0.3,prod:[dyadic:-400,const:2]]": 2}

    @pytest.mark.parametrize("weight", list(_PRODUCTS))
    def test_each_factor_and_partial_product_checked(self, tmp_path, capsys, weight):
        # eval forms one level factor, 2^(k s) of the total rate s, so only s
        # is checked on levels -3..5: the first product is the weight 1 and
        # the second 2^(-150 k), both in range whatever their factors', while
        # 2^(300 k) overflows at k = 4 and 2^(-400 k) at k = -3
        path = write_config(tmp_path, {"norm.weight": weight})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == self._PRODUCTS[weight]
        refused = "config field 'norm.weight'" in capsys.readouterr().err
        assert refused == (not (tmp_path / "o").exists()) == (self._PRODUCTS[weight] == 2)

    @pytest.mark.parametrize("command", [["verify", "all"], ["verify", "seqnorm"], ["verify", "xclassfit"],
                                         ["weights", "xclass"]])
    def test_matrix_entry_out_of_range_refused(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"weights": {"w1": "pow:0.3", "big": "dyadic:500"},
                                       "suites": ["partition", "seqnorm", "xclassfit"]})
        assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'weights.big'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("weight", ["dyadic:5", "dyadic:-5", "dyadic:150"])
    @pytest.mark.parametrize("command", [["verify", "xclassfit"], ["weights", "xclass"]])
    def test_matrix_entry_outside_fit_range_refused(self, tmp_path, capsys, command, weight):
        # xclass_fit searches alpha in [-4, 4], and the fit of 2^(k s) sits at
        # alpha = s: dyadic:5 would read alpha1 = alpha2 = 4 and pass
        path = write_config(tmp_path, {"weights": {"w1": weight}})
        assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'weights.w1'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_fit_range_edge_fits(self, tmp_path):
        # the edge rate 4 is fitted exactly, and a rate past it is refused
        # only where the fit runs
        path = write_config(tmp_path, {"weights": {"w1": "dyadic:4"}})
        assert main(["weights", "xclass", "--config", path, "--out", str(tmp_path / "o")]) == 0
        (rec,) = json.loads((tmp_path / "o" / "weights_xclass.json").read_text())["records"]
        assert (rec["alpha1"], rec["alpha2"]) == (4.0, 4.0)
        path = write_config(tmp_path, {"weights": {"w1": "dyadic:5"}})
        RunConfig(json.loads(Path(path).read_text())).check_runnable(["seqnorm"])

    def test_xclass_constants_equal_the_fit(self, tmp_path):
        # a record's C1, C2 are xclass_constants' at the fitted alphas, which
        # equal the fit's own bit for bit on every weight of smoke.json's matrix
        from lpw.weights import WeightSequence, sigma1, xclass_fit

        smoke = Path(__file__).resolve().parents[1] / "fixtures" / "smoke.json"
        assert main(["weights", "xclass", "--config", str(smoke), "--out", str(tmp_path / "o")]) == 0
        records = json.loads((tmp_path / "o" / "weights_xclass.json").read_text())["records"]
        ctx = RunConfig(json.loads(smoke.read_text())).ctx
        p, theta = ctx.exponent_pairs[0]
        seqs = [WeightSequence(w, ctx.k_min, ctx.k_max) for w in ctx.weights().values()]
        fits = xclass_fit(seqs, p, (sigma1(p, theta), p), ctx.nodes())
        assert len(records) == len(fits) == 9
        for rec, fit in zip(records, fits):
            assert (rec["alpha1"], rec["alpha2"]) == (fit["alpha1"], fit["alpha2"])
            assert (rec["C1"], rec["C2"]) == (fit["C1"], fit["C2"]), rec["weight"]

    @pytest.mark.parametrize("weight", ["pow:2000", "pow:-2000"])
    def test_xclass_names_an_overflow(self, tmp_path, weight):
        # the admissibility probe's samples of |x|^(+-2000) overflow a double;
        # with numpy's warnings as errors, as CI runs, xclass still writes the
        # weight's record, naming the overflow, not a divergence
        path = write_config(tmp_path, {"weights": {"w1": weight}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["weights", "xclass", "--config", path, "--out", str(tmp_path / "o")]) == 0
        (rec,) = json.loads((tmp_path / "o" / "weights_xclass.json").read_text())["records"]
        assert rec["error"] == f"weight {weight} overflows double precision on the probe mesh at level -3"

    @pytest.mark.parametrize("command", [["verify", "partition"], ["weights", "ap"]])
    def test_matrix_read_at_level_zero_only_runs(self, tmp_path, command):
        # 2^(500 k) is 1.0 at k = 0, the one level partition and ap read
        path = write_config(tmp_path, {"weights": {"big": "dyadic:500"}})
        assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("space", ["F", "B", "F_inf", "Hardy"])
    @pytest.mark.parametrize("weight", ["dyadic:500", "dyadic:-500", "prod:[dyadic:400,pow:0.3]"])
    def test_out_of_range_refused(self, tmp_path, capsys, space, weight):
        path = write_config(tmp_path, {"norm.space": space, "norm.weight": weight})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'norm.weight'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("level, code", [(0, 0), (5, 2)])
    def test_lp_reads_the_frozen_level_only(self, tmp_path, level, code):
        # 2^(500 k) is 1.0 at k = 0 and overflows at k = 5
        path = write_config(tmp_path, {"norm.space": "Lp", "norm.weight": "dyadic:500", "norm.frozen_level": level})
        assert main(["norm", "--config", path, "--out", str(tmp_path / "o")]) == code

    def test_smoke_config_refused(self, tmp_path, capsys):
        cfg = json.loads((Path(__file__).resolve().parents[1] / "fixtures" / "smoke.json").read_text())
        for weight in ("dyadic:500", "dyadic:-500"):
            cfg["norm"] = {**cfg.get("norm", {}), "weight": weight}
            path = tmp_path / "smoke.json"
            path.write_text(json.dumps(cfg))
            assert main(["norm", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert "config field 'norm.weight'" in capsys.readouterr().err


class TestWeightOnGrid:
    """A weight whose level factor is in range but whose samples on a grid
    the run reads overflow a double is refused by the run's own check,
    WeightSequence.on_grid, before the run (exit 2), not mid-run (exit 3)."""

    @pytest.mark.parametrize("command, override, field", [
        (["verify", "seqnorm"], {"weights": {"w1": "pow:0.3", "w2": "pow:2000"}}, "weights.w2"),
        (["norm"], {"norm.weight": "pow:2000"}, "norm.weight"),
        (["norm"], {"norm.weight": "pow:2000", "norm.space": "Lp"}, "norm.weight"),
        (["norm"], {"norm.weight": "pow:-2000", "norm.space": "Hardy"}, "norm.weight"),
    ], ids=["seqnorm", "norm_F", "norm_Lp", "norm_Hardy"])
    def test_overflow_on_the_grid_refused(self, tmp_path, capsys, command, override, field):
        # |x|^2000 overflows past |x| = 2^(1024/2000), inside [-8, 8); numpy's
        # warnings as errors, as CI runs, must not turn the refusal into a crash
        path = write_config(tmp_path, override)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}': weight " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_doubled_grid_checked_for_seqnorm(self, tmp_path, capsys, monkeypatch):
        # seqnorm samples the matrix on the grid and on the doubled grid:
        # a weight bad on the doubled grid alone is refused too
        from lpw.weights import WeightError, WeightSequence

        on_grid = WeightSequence.on_grid

        def bad_at_2n(self, gspec, k):
            if gspec.N == 1024 and self.spec.key() == "pow:0.2":
                raise WeightError("not positive finite on the doubled grid")
            return on_grid(self, gspec, k)

        monkeypatch.setattr(WeightSequence, "on_grid", bad_at_2n)
        path = write_config(tmp_path, {"weights": {"w1": "pow:0.3", "w2": "pow:0.2"}})
        assert main(["verify", "seqnorm", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "config field 'weights.w2': not positive finite on the doubled grid" in capsys.readouterr().err


class TestCubeBudget:
    """A command that builds a cube quadrature has the cubes of its deepest
    family counted before any node is built, and refused past CUBE_BUDGET."""

    @pytest.mark.parametrize("command, level", [(["verify", "muckenhoupt"], 1020), (["verify", "hoelder"], 1010),
                                                (["verify", "all"], 1020), (["weights", "ap"], 1010)])
    def test_deep_family_refused(self, tmp_path, capsys, command, level):
        # cubes.v_max 1010 passes the overflow check, but muckenhoupt's v_max +
        # 10 family holds 4,154,410 cubes, which ran out of memory at 1.8 GB
        path = write_config(tmp_path, {"cubes.v_max": 1010, "suites": ["partition", "muckenhoupt"]})
        assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config field 'cubes.v_max': 1010 is too deep" in err and f"to level {level} holds" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["verify", "partition"], ["norm"], ["decompose"]])
    def test_commands_without_a_quadrature_run(self, tmp_path, command):
        path = write_config(tmp_path, {"cubes.v_max": 1010})
        assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("config", ["fixtures/default.json", "fixtures/smoke.json",
                                        "perfbench/configs/norm_sweep.json", "perfbench/configs/verify_2d.json"])
    def test_shipped_configs_fit(self, config):
        cfg = RunConfig(json.loads((Path(__file__).resolve().parents[1] / config).read_text()))
        suites = [name for name, s in SUITES.items()
                  if s.family_depth is not None and (cfg.ctx.spec.n == 1 or not s.one_d)]
        cfg.check_runnable(suites)
        for op in ("ap", "xclass"):
            cfg.check_runnable([], weights=op)

    @pytest.mark.parametrize("v_max, fits", [(30, True), (31, False)])
    def test_budget_edge(self, tmp_path, v_max, fits):
        # muckenhoupt's v_max + 10 family at 16,384 cubes a level holds
        # 1,040,350 cubes at v_max 30 and 1,073,116 at 31, where its
        # positions, R 2^41 at most, are still exact
        overrides = {"cubes.v_max": v_max, "cubes.max_per_level": 16384}
        cfg = RunConfig(json.loads(Path(write_config(tmp_path, overrides)).read_text()))
        cfg.check_runnable(["hoelder"])
        if fits:
            cfg.check_runnable(["muckenhoupt"])
        else:
            with pytest.raises(ValueError, match=f"'cubes.v_max': {v_max} is too deep: .* past the budget"):
                cfg.check_runnable(["muckenhoupt"])

    @pytest.mark.parametrize("suite, v_max, fits", [("muckenhoupt", 36, True), ("muckenhoupt", 37, False),
                                                    ("hoelder", 46, True), ("hoelder", 47, False)])
    def test_exact_positions_edge(self, tmp_path, suite, v_max, fits):
        # the deepest family reaches R 2^(v_max + depth) = 2^50 at v_max 37
        # for muckenhoupt (depth 10) and 47 for hoelder: past it np.arange in
        # CubeFamily.positions counts its steps in floating point, and
        # CubeFamily(100, 100, False, 9).positions(1.0, 100) has 9 entries
        # where n_cubes counts 10
        cfg = RunConfig(json.loads(Path(write_config(tmp_path, {"cubes.v_max": v_max})).read_text()))
        if fits:
            cfg.check_runnable([suite])
            v = v_max + SUITES[suite].family_depth
            deepest = CubeFamily(v, v, False, cfg.ctx.family.max_per_level)
            assert len(deepest.positions(cfg.ctx.spec.R, v)) == deepest.n_cubes(cfg.ctx.spec.R, 1)
        else:
            with pytest.raises(ValueError, match=f"'cubes.v_max': {v_max} is too deep: .* only below 2\\^50"):
                cfg.check_runnable([suite])


class TestNoNaNWritten:
    """NaN is not JSON: a run whose output would hold one stops before
    writing it, with exit 3 and the error named, not a verdict read off NaN."""

    @pytest.mark.parametrize("command, written", [(["verify", "hoelder"], "report.json"),
                                                  (["weights", "ap"], "weights_ap.json")],
                             ids=["verify_hoelder", "weights_ap"])
    def test_nan_output_refused(self, tmp_path, capsys, command, written):
        # pow:2000 overflows on the cube nodes, so its hoelder floors and its
        # A_p constant read inf / inf = NaN
        path = write_config(tmp_path, {"weights": {"w1": "pow:2000"}})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([*command, "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert "ValueError: Out of range float values are not JSON compliant" in capsys.readouterr().err
        assert not (tmp_path / "o" / written).exists()


class TestInputFiles:
    """A file input is loaded once, before the run: a missing or malformed
    file, or one sampled on another grid, exits 2 naming its field."""

    @pytest.mark.parametrize("command", ["norm", "decompose"])
    @pytest.mark.parametrize("fault", ["missing", "sidecar_not_json", "sidecar_without_N", "sidecar_unshifted",
                                       "other_grid"])
    def test_bad_input_names_field(self, tmp_path, capsys, rng, command, fault):
        prefix = tmp_path / "f"
        if fault != "missing":
            spec = GridSpec(1, 8.0, 256 if fault == "other_grid" else 512)
            save_grid_function(GridFunction(spec, rng.normal(size=spec.shape)), prefix)
        if fault == "sidecar_not_json":
            prefix.with_suffix(".json").write_text("{not json")
        elif fault == "sidecar_without_N":
            prefix.with_suffix(".json").write_text('{"n": 1, "R": 8.0, "offset": true, "complex": false}')
        elif fault == "sidecar_unshifted":  # samples at -R + i h, which would load half a cell off
            prefix.with_suffix(".json").write_text('{"n": 1, "R": 8.0, "N": 512, "offset": false, "complex": false}')
        path = write_config(tmp_path, {f"{command}.input": str(prefix)})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config field '{command}.input'" in err
        if fault == "other_grid":
            assert "N=256" in err and "N=512" in err
        assert not out.exists()

    def test_decompose_from_file(self, tmp_path, rng):
        f = GridFunction(GridSpec(1, 8.0, 512), rng.normal(size=512))
        save_grid_function(f, tmp_path / "f")
        path = write_config(tmp_path, {"decompose.input": str(tmp_path / "f")})
        assert main(["decompose", "--config", path, "--out", str(tmp_path / "out")]) == 0
        export_bands(f, RunConfig(json.loads(Path(path).read_text())).ctx.pair(), tmp_path / "want")
        got = sorted(p.name for p in (tmp_path / "out" / "bands_f").iterdir())
        assert got == sorted(p.name for p in (tmp_path / "want").iterdir()) and got
        for name in got:
            assert (tmp_path / "out" / "bands_f" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


def count_pairs(monkeypatch):
    """A Counter of make_lp_pair calls by grid, filled as they happen."""
    import lpw

    calls = Counter()
    orig = lpw.lpaley.make_lp_pair

    def counted(spec, k_min, k_max):
        calls[spec] += 1
        return orig(spec, k_min, k_max)

    for mod in (lpw, lpw.cli, lpw.suites, lpw.lpaley, lpw.verify, lpw.spaces):
        if hasattr(mod, "make_lp_pair"):
            monkeypatch.setattr(mod, "make_lp_pair", counted)
    return calls


class TestOneContext:
    """An invocation builds one band pair per grid it uses: the base grid,
    plus the doubled grid where maximal compares against it.  seqnorm reads
    the pair's level window alone, on either grid, and builds no pair."""

    @pytest.mark.parametrize("argv, grids", [(["verify", "all"], 2), (["norm"], 1), (["decompose"], 1)])
    def test_one_pair_per_grid(self, tmp_path, monkeypatch, argv, grids):
        calls = count_pairs(monkeypatch)
        path = write_config(tmp_path, {**SWEEP_CONFIGS["1d"], "suites": sorted(ALL_SUITES)})
        assert main([*argv, "--config", path, "--out", str(tmp_path / "out")]) in (0, 1)
        spec = GridSpec(1, 4.0, 128)
        assert calls == ({spec: 1, GridSpec(1, 4.0, 256): 1} if grids == 2 else {spec: 1})

    @pytest.mark.parametrize("config", ["1d", "2d"])
    def test_seqnorm_builds_no_pair(self, tmp_path, monkeypatch, config):
        calls = count_pairs(monkeypatch)
        path = write_config(tmp_path, SWEEP_CONFIGS[config])
        assert main(["verify", "seqnorm", "--config", path, "--out", str(tmp_path / "out")]) == 0
        assert not calls


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

    def test_suite_failure_exit_code(self, tmp_path, monkeypatch):
        # an impossible ceiling turns a passing measurement into a failure
        import lpw.suites

        monkeypatch.setitem(lpw.suites.CEILINGS, "informational", 1.0001)
        path = write_config(tmp_path, {"suites": ["bmo"]})
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
        assert json.loads(bins[0].with_suffix(".json").read_text())["offset"] is True

    @pytest.mark.parametrize("member", [4, 5])
    def test_decompose_exports_the_named_member(self, tmp_path, member):
        path = write_config(tmp_path, {"decompose.member": member})
        out = tmp_path / "out"
        assert main(["decompose", "--config", path, "--out", str(out)]) == 0
        ctx = RunConfig(json.loads(Path(path).read_text())).ctx
        mem = ctx.corpus()[member]
        export_bands(mem.f, ctx.pair(), tmp_path / "want")
        got = sorted(p.name for p in (out / f"bands_{mem.name}").iterdir())
        assert got == sorted(p.name for p in (tmp_path / "want").iterdir()) and got
        for name in got:
            assert (out / f"bands_{mem.name}" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()

    @pytest.mark.parametrize("member", [-1, 6, 8])
    def test_decompose_refuses_a_member_outside_the_corpus(self, tmp_path, capsys, member):
        # member 8 of the 6-member corpus exported member 2 without a word
        path = write_config(tmp_path, {"decompose.member": member})
        assert main(["decompose", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config field 'decompose.member'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weights_rh_removed(self, tmp_path, capsys):
        # the reverse-Hoelder probe had no verdict, and its op is gone
        with pytest.raises(SystemExit) as exc:
            main(["weights", "rh", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument op: invalid choice: 'rh'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("op", ["ap", "xclass"])
    def test_weights_reports(self, tmp_path, op):
        path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["weights", op, "--config", path, "--out", str(out)]) == 0
        data = json.loads((out / f"weights_{op}.json").read_text())
        assert len(data["records"]) == 9
        if op == "ap":
            assert all("witness_cube" in r for r in data["records"])
        # each check's record spliced into the weight's, with the keys the
        # files have always had; a weight the check refuses gets an error
        keys = {
            "ap": {"weight", "expr", "p", "family", "constant", "witness_cube"},
            "xclass": {"weight", "expr", "alpha1", "alpha2", "grid_step", "alpha", "sigma", "p", "C1", "C2",
                       "witness1", "witness2"},
        }[op]
        assert {frozenset(r) for r in data["records"]} <= {frozenset(keys), frozenset({"weight", "expr", "error"})}
        assert any(set(r) == keys for r in data["records"])
        if op == "xclass":  # the constants are taken at the fitted alphas
            assert all(r["alpha"] == [r["alpha1"], r["alpha2"]] for r in data["records"] if "alpha" in r)


    def test_jsonify_writes_infinity_once(self):
        from lpw.cli import _jsonify

        got = _jsonify({"q": np.inf, "sigma": (2.0, np.float64(np.inf)), "ratios": {0.05: 1.0, 12.8: 2.0}})
        assert got == {"q": "inf", "sigma": [2.0, "inf"], "ratios": {"0.05": 1.0, "12.8": 2.0}}


class TestWeightsPasses:
    def test_one_pass_per_op(self, tmp_path, monkeypatch):
        # every op reduces the whole matrix in one pass over the cube family,
        # one job per radial profile of the default matrix (6): ap its A_p
        # statistics, xclass the level statistics of the admissible weights
        from lpw.weights import FamilyNodes

        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce", lambda self, jobs: calls.append(len(jobs)) or reduce(self, jobs))
        path = write_config(tmp_path, SWEEP_CONFIGS["2d"])
        for op in ("ap", "xclass"):
            del calls[:]
            assert main(["weights", op, "--config", path, "--out", str(tmp_path / op)]) == 0
            assert calls == [6], op


class TestSuitePasses:
    @pytest.mark.parametrize("config, suite, jobs", [
        ("fixtures/default.json", "hoelder", [6]),
        ("fixtures/default.json", "xclassfit", [6]),
        ("fixtures/default.json", "muckenhoupt", [6, 4, 2]),
        ("fixtures/default.json", "coincidence", [2, 2, 1, 1, 2, 2]),
        ("perfbench/configs/verify_2d.json", "hoelder", [6]),
        ("perfbench/configs/verify_2d.json", "xclassfit", [6]),
    ])
    def test_passes_per_suite(self, tmp_path, monkeypatch, config, suite, jobs):
        # the quadrature passes of a suite, each recorded as its job count
        # (one job per radial profile not yet cached): hoelder and xclassfit
        # reduce the whole matrix in one pass, muckenhoupt its six powers on
        # the base family and the stable and growing ones on the two deeper
        # families, and coincidence each fixture's two weights together, once
        # for the A_p hypothesis and once for the cube means
        from lpw.weights import FamilyNodes

        calls = []
        reduce = FamilyNodes._reduce
        monkeypatch.setattr(FamilyNodes, "_reduce", lambda self, jobs: calls.append(len(jobs)) or reduce(self, jobs))
        cfg = json.loads((Path(__file__).resolve().parents[1] / config).read_text())
        cfg["corpus"]["size"] = 8  # the passes do not depend on the corpus
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", suite, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == jobs


class TestReportCommand:
    def test_empty_report(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"suites": []}))
        assert main(["report", str(path), "--out", str(tmp_path / "r")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header and rule only

    def test_malformed_report(self, tmp_path, capsys):
        # invalid JSON, a suite without a verdict, a suite that is no object,
        # and a report that is no object
        for text in ("{]", '{"suites": [{"suite": "x"}]}', '{"suites": [5]}', "[1]"):
            path = tmp_path / "bad.json"
            path.write_text(text)
            assert main(["report", str(path), "--out", str(tmp_path / "r")]) == 2, text
            assert "malformed report" in capsys.readouterr().err, text

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
