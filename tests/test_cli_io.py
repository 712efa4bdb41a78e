"""Configuration parsing, CLI subcommands, CSV determinism, plotting."""

import os
from pathlib import Path

import numpy as np
import pytest

from pgg_bribery import ConfigError, CoreParams, dynamics, parse_config
from pgg_bribery.cli import main
from pgg_bribery.output import fmt_float, read_csv
from pgg_bribery.presets import IPGG_WEAK_POOL

WEAK_POOL_DOC = """\
model = ipgg
n = 5
b = 12
c = 1
tau = 1
f = 2
alpha = 0.5
beta = 0.2
r_p = 1.4
"""

BISTABLE_DOC = WEAK_POOL_DOC.replace("f = 2", "f = 3").replace("r_p = 1.4", "r_p = 2")

BG_DOC = """\
model = bg
n = 5
b = 12
c = 1
tau = 1
f = 1.5
alpha = 0.6
beta = 0.2
r_p = 1.4
h = 1
gamma = 0.6
p = 0.3
q = 0.8
"""


@pytest.fixture
def weak_cfg(tmp_path):
    path = tmp_path / "weak.cfg"
    path.write_text(WEAK_POOL_DOC)
    return str(path)


@pytest.fixture
def bistable_cfg(tmp_path):
    path = tmp_path / "bistable.cfg"
    path.write_text(BISTABLE_DOC)
    return str(path)


@pytest.fixture
def bg_cfg(tmp_path):
    path = tmp_path / "bg.cfg"
    path.write_text(BG_DOC)
    return str(path)


class TestParseConfig:
    def test_valid_document(self):
        config = parse_config(WEAK_POOL_DOC)
        assert isinstance(config.model, CoreParams)
        assert config.model == IPGG_WEAK_POOL
        assert config.build_model() is config.model
        assert config.samples == 1_000_000 and config.seed == 42
        assert not config.model.validation_warnings

    def test_leader_probabilities_rejected(self):
        doc = BG_DOC.replace("beta = 0.2", "beta = 0.5")
        with pytest.raises(ConfigError, match="beta \\+ gamma"):
            parse_config(doc)

    def test_pool_multiplier_warning_is_not_fatal(self):
        config = parse_config(WEAK_POOL_DOC.replace("f = 2", "f = 6"))
        assert config.model.validation_warnings and "outside" in config.model.validation_warnings[0]

    def test_unknown_key_reports_the_line(self):
        with pytest.raises(ConfigError, match="line 3.*unknown key 'foo'"):
            parse_config("model = ipgg\nn = 5\nfoo = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(WEAK_POOL_DOC + "f = 3\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("model = ipgg\nnonsense\n")

    def test_missing_core_key(self):
        with pytest.raises(ConfigError, match="missing required key 'r_p'"):
            parse_config(WEAK_POOL_DOC.replace("r_p = 1.4\n", ""))

    def test_missing_bribery_key_for_bg(self):
        with pytest.raises(ConfigError, match="missing required key 'q'"):
            parse_config(BG_DOC.replace("q = 0.8\n", ""))

    def test_bribery_key_rejected_for_ipgg(self):
        with pytest.raises(ConfigError, match="only applies"):
            parse_config(WEAK_POOL_DOC + "h = 1\n")

    def test_keys_are_case_insensitive(self):
        doc = WEAK_POOL_DOC.replace("n = 5", "N = 5").replace("r_p = 1.4", "R_P = 1.4")
        assert parse_config(doc).model == parse_config(WEAK_POOL_DOC).model

    def test_comments_and_blank_lines(self):
        doc = "# full-line comment\n\n" + WEAK_POOL_DOC.replace("f = 2", "f = 2  # inline")
        assert parse_config(doc).model.f == 2.0

    def test_malformed_number(self):
        with pytest.raises(ConfigError, match="must be a number"):
            parse_config(WEAK_POOL_DOC.replace("f = 2", "f = two"))

    def test_group_size_must_parse_as_integer(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            parse_config(WEAK_POOL_DOC.replace("n = 5", "n = 5.5"))

    def test_controls_parse_and_validate(self):
        config = parse_config(WEAK_POOL_DOC + "step = 0.05\nconv_tol = 1e-8\nsamples = 5000\n")
        assert config.step == 0.05 and config.conv_tol == 1e-8 and config.samples == 5000
        with pytest.raises(ConfigError, match="samples"):
            parse_config(WEAK_POOL_DOC + "samples = 1\n")


class TestSubcommands:
    def test_thresholds_line(self, bistable_cfg, capsys):
        assert main(["thresholds", "--config", bistable_cfg]) == 0
        assert "f_min=1.0 f_max=9.0 regime=bistable" in capsys.readouterr().out

    def test_roots_reports_absence(self, weak_cfg, capsys):
        assert main(["roots", "--config", weak_cfg]) == 0
        assert "no interior root: F below f_min" in capsys.readouterr().out

    def test_roots_reports_the_root(self, bistable_cfg, capsys):
        assert main(["roots", "--config", bistable_cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("x_star=")
        assert 0.78 < float(out.split("=")[1]) < 0.79

    def test_basins_value(self, bistable_cfg, capsys):
        assert main(["basins", "--config", bistable_cfg]) == 0
        assert 0.21 < float(capsys.readouterr().out.split("=")[1]) < 0.22

    def test_set_overrides_config(self, bistable_cfg, capsys):
        assert main(["roots", "--config", bistable_cfg, "--set", "f=2", "--set", "r_p=1.4"]) == 0
        assert "F below f_min" in capsys.readouterr().out

    def test_gradient_schema_and_determinism(self, bistable_cfg, tmp_path, capsys):
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gradient", "--config", bistable_cfg, "--out", out_a]) == 0
        assert main(["gradient", "--config", bistable_cfg, "--out", out_b]) == 0
        bytes_a = Path(out_a, "gradient.csv").read_bytes()
        bytes_b = Path(out_b, "gradient.csv").read_bytes()
        assert bytes_a == bytes_b
        meta, header, rows = read_csv(os.path.join(out_a, "gradient.csv"))
        assert header == ["x", "q", "g"]
        assert len(rows) == 1001
        assert any("seed=42" in line for line in meta)

    def test_gradient_round_trips_exact_doubles(self, bistable_cfg, tmp_path):
        out = str(tmp_path / "g")
        main(["gradient", "--config", bistable_cfg, "--out", out, "--points", "11"])
        _, _, rows = read_csv(os.path.join(out, "gradient.csv"))
        from pgg_bribery import gradient_of_selection, q_function, parse_config

        model = parse_config(BISTABLE_DOC).model
        for row in rows:
            x = float(row[0])
            assert float(row[1]) == q_function(model, x)
            assert float(row[2]) == gradient_of_selection(model, x)

    def test_payoffs_table(self, weak_cfg, tmp_path):
        out = str(tmp_path / "p")
        assert main(["payoffs", "--config", weak_cfg, "--out", out]) == 0
        _, header, rows = read_csv(os.path.join(out, "payoffs.csv"))
        assert header == ["n_c", "n_d", "pi_c", "pi_d"]
        assert len(rows) == 5
        assert float(rows[4][3]) == pytest.approx(12.04, abs=1e-12)

    def test_sweep_csv(self, weak_cfg, tmp_path):
        out = str(tmp_path / "s")
        code = main([
            "sweep", "--config", weak_cfg, "--param", "f",
            "--lo", "2.25", "--hi", "7.75", "--steps", "11", "--out", out,
        ])
        assert code == 0
        _, header, rows = read_csv(os.path.join(out, "sweep.csv"))
        assert header == ["param", "regime", "x_star", "basin"]
        assert all(row[1] == "bistable" for row in rows)
        roots = [float(row[2]) for row in rows]
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_grid_csv(self, bg_cfg, tmp_path):
        out = str(tmp_path / "grid")
        code = main([
            "grid", "--config", bg_cfg, "--set", "f=2", "--set", "alpha=0.6",
            "--f-lo", "2", "--f-hi", "4", "--rp-lo", "2.5", "--rp-hi", "4",
            "--f-steps", "2", "--rp-steps", "2", "--out", out,
        ])
        assert code == 0
        _, header, rows = read_csv(os.path.join(out, "grid.csv"))
        assert header == ["f", "r_p", "regime", "basin"]
        assert len(rows) == 4

    def test_integrate_trajectory(self, bistable_cfg, tmp_path, capsys):
        out = str(tmp_path / "t")
        assert main(["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", out]) == 0
        assert "converged_to=1.0" in capsys.readouterr().out
        _, header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header == ["t", "x"]
        assert float(rows[0][1]) == 0.9
        assert float(rows[-1][1]) > 0.999

    def test_simulate_reproducible(self, weak_cfg, tmp_path):
        out_a, out_b = str(tmp_path / "sa"), str(tmp_path / "sb")
        argv = ["simulate", "--config", weak_cfg, "--set", "samples=20000", "--x", "0.4"]
        assert main(argv + ["--out", out_a]) == 0
        assert main(argv + ["--out", out_b]) == 0
        bytes_a = Path(out_a, "simulate.csv").read_bytes()
        assert bytes_a == Path(out_b, "simulate.csv").read_bytes()
        _, header, rows = read_csv(os.path.join(out_a, "simulate.csv"))
        assert header == ["strategy", "x", "mean", "std_error", "n_samples", "closed_form"]
        for row in rows:
            assert abs(float(row[2]) - float(row[5])) < 5 * float(row[3])

    @pytest.mark.parametrize("x", ["1.5", "nan"])
    def test_simulate_refuses_an_x_outside_the_unit_interval(self, weak_cfg, tmp_path, capsys, x):
        out = tmp_path / "s"
        argv = ["simulate", "--config", weak_cfg, "--set", "samples=100", "--x", x, "--out", str(out)]
        assert main(argv) == 1
        assert "x must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_small_battery_passes(self, weak_cfg, tmp_path, capsys):
        out = str(tmp_path / "v")
        code = main(["verify", "--config", weak_cfg, "--set", "samples=20000", "--out", out])
        captured = capsys.readouterr().out
        assert code == 0
        assert "verify: PASS" in captured
        _, header, rows = read_csv(os.path.join(out, "verify_checks.csv"))
        assert header == ["suite", "case", "value", "bound", "status"]
        assert all(row[4] == "ok" for row in rows)

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(WEAK_POOL_DOC + "nonsense = 1\n")
        assert main(["thresholds", "--config", str(bad)]) == 1
        assert main(["plot", str(tmp_path / "missing.csv")]) == 3
        assert main(["thresholds", "--config", str(tmp_path / "missing.cfg")]) == 3

    @pytest.mark.parametrize("command", [
        ["gradient", "--points", "{over}"],
        ["sweep", "--param", "r_p", "--steps", "{over}"],
        ["grid", "--f-steps", "{side}", "--rp-steps", "{side}"],
    ], ids=["gradient", "sweep", "grid"])
    def test_jobs_over_the_cell_cap_exit_1_naming_the_limit(self, weak_cfg, tmp_path, capsys, command):
        from pgg_bribery.sweeps import MAX_CELLS  # imported here: a tree without the cap fails at once

        sizes = {"over": str(MAX_CELLS + 1), "side": str(int(MAX_CELLS**0.5) + 1)}
        argv = [arg.format(**sizes) for arg in command] + ["--config", weak_cfg, "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"above the limit of {MAX_CELLS}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_worker_env(self, weak_cfg, monkeypatch, capsys):
        monkeypatch.setenv("PGG_BRIBERY_WORKERS", "many")
        assert main(["simulate", "--config", weak_cfg, "--set", "samples=100"]) == 1

    def test_warning_goes_to_stderr(self, weak_cfg, capsys):
        assert main(["thresholds", "--config", weak_cfg, "--set", "f=6"]) == 0
        captured = capsys.readouterr()
        assert "outside the dilemma range" in captured.err
        assert "regime=" in captured.out


class TestPlot:
    def test_every_emitted_schema_round_trips_through_plot(self, bistable_cfg, bg_cfg, tmp_path, capsys):
        out = str(tmp_path / "all")
        main(["gradient", "--config", bistable_cfg, "--out", out, "--points", "41"])
        main(["payoffs", "--config", bistable_cfg, "--out", out])
        main(["sweep", "--config", bistable_cfg, "--param", "f", "--lo", "1.2", "--hi", "8.8",
              "--steps", "21", "--out", out])
        main(["grid", "--config", bg_cfg, "--f-lo", "1.2", "--f-hi", "4", "--rp-lo", "1",
              "--rp-hi", "4", "--f-steps", "4", "--rp-steps", "4", "--out", out])
        main(["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", out])
        main(["simulate", "--config", bistable_cfg, "--set", "samples=1000", "--out", out])
        capsys.readouterr()
        for name in ("gradient", "payoffs", "sweep", "grid", "trajectory", "simulate"):
            csv_path = os.path.join(out, f"{name}.csv")
            assert main(["plot", csv_path]) == 0
            svg_path = os.path.join(out, f"{name}.svg")
            content = Path(svg_path).read_text(encoding="utf-8")
            assert content.startswith("<?xml")
            assert "<svg" in content and "</svg>" in content

    def test_plot_is_deterministic(self, bistable_cfg, tmp_path, capsys):
        out = str(tmp_path / "d")
        main(["gradient", "--config", bistable_cfg, "--out", out, "--points", "11"])
        a, b = os.path.join(out, "a.svg"), os.path.join(out, "b.svg")
        main(["plot", os.path.join(out, "gradient.csv"), "--out-svg", a])
        main(["plot", os.path.join(out, "gradient.csv"), "--out-svg", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("header", ["f,r_p,regime,basin", "x,q,g"], ids=["heatmap", "line_plot"])
    def test_a_csv_without_data_rows_is_refused(self, tmp_path, capsys, header):
        path = tmp_path / "empty.csv"
        path.write_text(f"# note\n{header}\n")
        assert main(["plot", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "no data rows" in err
        assert not (tmp_path / "empty.svg").exists()


class TestFormatting:
    def test_fmt_float_round_trips(self):
        for value in (0.1, 1 / 3, 2.2, 1e-300, 123456.789, np.nextafter(1.0, 2.0)):
            assert float(fmt_float(value)) == value


class TestInputContract:
    @pytest.mark.parametrize("override, message", [
        ("c=inf", "c must be finite"),
        ("r_p=inf", "r_p must be finite"),
        ("tau=1e308", "not finite"),
    ])
    def test_roots_rejects_non_finite_values(self, bistable_cfg, capsys, override, message):
        assert main(["roots", "--config", bistable_cfg, "--set", override]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "x_star" not in captured.out

    @pytest.mark.parametrize("argv", [["gradient"], ["integrate", "--x0", "0.5"]])
    def test_q_paths_reject_overflowing_thresholds(self, bistable_cfg, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--config", bistable_cfg, "--set", "tau=1e308", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not finite" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists() or not os.listdir(out)

    def test_integrate_rejects_infinite_horizon(self, bistable_cfg, tmp_path, capsys):
        argv = ["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", str(tmp_path)]
        assert main(argv + ["--set", "t_max=inf"]) == 1
        assert "t_max must be finite" in capsys.readouterr().err

    def test_integrate_step_count_overflow_is_an_input_error(self, bistable_cfg, tmp_path, capsys):
        argv = ["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", str(tmp_path)]
        assert main(argv + ["--set", "t_max=1e300", "--set", "step=1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("overrides", [["step=1e-300"], ["t_max=1e4", "step=9.9e-5"]])
    def test_integrate_refuses_more_than_max_steps(self, bistable_cfg, tmp_path, capsys, monkeypatch, overrides):
        def no_integration(model):
            raise AssertionError("the run started instead of being refused")

        monkeypatch.setattr(dynamics, "_g_of", no_integration)
        argv = ["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 1
        assert f"exceeds the limit of {dynamics.MAX_STEPS} steps" in capsys.readouterr().err

    def test_plot_names_the_ragged_line(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("# note\nx,q,g\n0,1,2\n0.5,1\n")
        assert main(["plot", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "line 4" in err

    @pytest.mark.parametrize("text, line, message", [
        ("x,q\n1,inf\n2,3\n", 3, "q 'inf' is not a finite number"),
        ("x,q\n1,2\n-inf,3\n", 4, "x '-inf' is not a finite number"),
        ("x\n1\nnan\n", 4, "x 'nan' is not a finite number"),
        ("f,r_p,regime,basin\n1,1,bistable,0.5\n2,nan,bistable,0.5\n", 4, "r_p 'nan' is not a finite number"),
        ("f,r_p,regime,basin\n1,1,bistable,inf\n", 3, "basin 'inf' is not a finite number"),
        ("f,r_p,regime,basin\nabc,1,x,0.5\n", 3, "f 'abc' is not a finite number"),
        ("f,r_p,regime,basin\n1,,x,0.5\n", 3, "r_p '' is not a finite number"),
    ], ids=["line_inf", "line_x_inf", "one_column_nan", "grid_nan", "grid_basin_inf", "grid_text", "grid_empty_r_p"])
    def test_plot_refuses_a_cell_that_is_not_a_finite_number(self, tmp_path, capsys, text, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("# note\n" + text)
        assert main(["plot", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: line {line}: {message}" in err
        assert not (tmp_path / "bad.svg").exists()

    def test_plot_keeps_empty_cells_as_gaps(self, tmp_path, capsys):
        path = tmp_path / "gaps.csv"
        path.write_text("f,r_p,regime,basin\n1,1,knife_edge,\n1,2,bistable,0.5\n")
        assert main(["plot", str(path)]) == 0
        assert 'fill="#cccccc"' in (tmp_path / "gaps.svg").read_text(encoding="utf-8")
