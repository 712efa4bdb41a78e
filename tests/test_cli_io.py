"""Configuration parsing, CLI subcommands, CSV determinism, plotting."""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from pgg_bribery import ConfigError, CoreParams, RunConfig, dynamics, parse_config
from pgg_bribery.cli import main
from pgg_bribery.config import MAX_SAMPLES
from pgg_bribery.output import fmt_float, read_csv, render_csv_plot
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

    @pytest.mark.parametrize("doc, message", [
        (WEAK_POOL_DOC.replace("r_p = 1.4\n", "") + "foo = 1\n", "line 9: unknown key 'foo'"),
        (WEAK_POOL_DOC + "h = 1\nsamples = many\n", "line 10: key 'h' only applies to model = bg"),
        (WEAK_POOL_DOC.replace("n = 5", "n = 5.0").replace("r_p = 1.4\n", ""), "line 2: n must be an integer, got '5.0'"),
        (WEAK_POOL_DOC.replace("b = 12\n", "").replace("f = 2", "f = two"), "missing required key 'b'"),
        (BG_DOC.replace("q = 0.8\n", "") + "seed = -1\n", "missing required key 'q' for model = bg"),
        (BG_DOC.replace("p = 0.3", "p = lots") + "step = 0\n", "line 12: p must be a number, got 'lots'"),
        (WEAK_POOL_DOC + "samples = 1\nseed = x\n", "line 11: seed must be an integer, got 'x'"),
        (WEAK_POOL_DOC.replace("ipgg", "pgg") + "foo = 1\n", "line 1: model must be 'ipgg' or 'bg', got 'pgg'"),
        ("n = 5\nh = 1\nfoo = 1\nmodel = ipgg\n", "line 3: unknown key 'foo'"),
        (WEAK_POOL_DOC.replace("c = 1", "c = -1") + "seed = -1\n", "contribution cost c must be > 0, got -1.0"),
    ], ids=[
        "unknown+missing", "bg_key+bad_control", "bad_n+missing", "missing+bad_f", "missing_bg_key+bad_seed",
        "bad_bg_key+bad_step", "parse_before_range", "bad_model+unknown", "unknown+bg_key+missing",
        "model_before_control",
    ])
    def test_the_first_of_several_faults_is_reported(self, doc, message):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message

    def test_controls_parse_and_validate(self):
        config = parse_config(WEAK_POOL_DOC + "step = 0.05\nconv_tol = 1e-8\nsamples = 5000\n")
        assert config.step == 0.05 and config.conv_tol == 1e-8 and config.samples == 5000
        with pytest.raises(ConfigError, match="samples"):
            parse_config(WEAK_POOL_DOC + "samples = 1\n")

    @pytest.mark.parametrize("controls", [
        "step = -1.0", "step = 0", "t_max = nan", "t_max = inf", "conv_tol = -inf", "samples = 1",
        f"samples = {MAX_SAMPLES + 1}", "seed = -3", "step = -1.0\nsamples = 1\nseed = -3\nt_max = nan",
    ])
    def test_direct_construction_refuses_what_parse_config_refuses(self, controls):
        with pytest.raises(ConfigError) as parsed:
            parse_config(WEAK_POOL_DOC + controls + "\n")
        pairs = dict(line.split(" = ") for line in controls.splitlines())
        values = {key: int(raw) if key in ("samples", "seed") else float(raw) for key, raw in pairs.items()}
        with pytest.raises(ValueError) as built:
            RunConfig(parse_config(WEAK_POOL_DOC).model, **values)
        assert str(built.value) == str(parsed.value)

    @pytest.mark.parametrize("key", ["samples", "seed"])
    @pytest.mark.parametrize("value", [True, 1000.5, math.nan, math.inf, "1000"])
    def test_direct_counts_are_integers(self, key, value):
        with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
            RunConfig(IPGG_WEAK_POOL, **{key: value})

    @pytest.mark.parametrize("key", ["step", "t_max", "conv_tol"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None, 1j], ids=["true", "false", "text", "none", "complex"])
    def test_direct_controls_are_real_numbers(self, key, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{key} must be a real number, got {value!r}')}$"):
            RunConfig(IPGG_WEAK_POOL, **{key: value})

    @pytest.mark.parametrize("model", [3, None, "ipgg", vars(IPGG_WEAK_POOL)], ids=["int", "none", "text", "dict"])
    def test_direct_model_is_a_record(self, model):
        message = f"model must be a CoreParams or BriberyParams record, got {model!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(model)

    @pytest.mark.parametrize("model, controls, message", [
        (3, dict(step=True, samples=1.5), "model must be a CoreParams or BriberyParams record, got 3"),
        (IPGG_WEAK_POOL, dict(seed=-1, samples=1.5, conv_tol="x", step=True), "step must be a real number, got True"),
        (IPGG_WEAK_POOL, dict(seed=-1, samples=1.5, conv_tol=0.0), "conv_tol must be finite and > 0, got 0.0"),
    ], ids=["model_first", "step_before_the_rest", "controls_before_counts"])
    def test_direct_faults_are_reported_in_the_one_pass_order(self, model, controls, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RunConfig(model, **controls)

    def test_direct_whole_float_counts_are_ints(self):
        config = RunConfig(IPGG_WEAK_POOL, samples=2000.0, seed=7.0)
        assert (config.samples, config.seed) == (2000, 7)
        assert type(config.samples) is int and type(config.seed) is int


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

    @pytest.mark.parametrize("line", ["f=", "f = ", "F =", "f = # note", "=3", " = 3 # note", "=", "foo", "f 3"])
    def test_a_malformed_set_line_gets_the_config_file_message(self, weak_cfg, tmp_path, capsys, line):
        path = tmp_path / "malformed.cfg"
        path.write_text(WEAK_POOL_DOC + line + "\n")
        assert main(["thresholds", "--config", str(path)]) == 1
        from_file = capsys.readouterr().err
        assert from_file.startswith("error: line 10: ")
        assert main(["thresholds", "--config", weak_cfg, "--set", line]) == 1
        assert capsys.readouterr().err == from_file.replace("line 10: ", "", 1)

    @pytest.mark.parametrize("line", ["f = 3 # note", "F=3", "  f =3  "])
    def test_a_set_line_reads_as_a_config_file_line(self, weak_cfg, tmp_path, capsys, line):
        path = tmp_path / "line.cfg"
        path.write_text(WEAK_POOL_DOC.replace("f = 2\n", line + "\n"))
        assert main(["thresholds", "--config", str(path)]) == 0
        from_file = capsys.readouterr()
        assert main(["thresholds", "--config", weak_cfg, "--set", line]) == 0
        assert capsys.readouterr() == from_file

    @pytest.mark.parametrize("line", ["", "   ", "# note"])
    def test_a_blank_set_is_refused(self, weak_cfg, capsys, line):
        assert main(["thresholds", "--config", weak_cfg, "--set", line]) == 1
        assert capsys.readouterr().err == f"error: --set expects KEY=VALUE, got {line!r}\n"

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

    @pytest.mark.parametrize("argv, filename, options", [
        (["sweep", "--param", "f"], "sweep.csv", ["param=f lo=1.05 hi=8 steps=200"]),
        (["sweep", "--param", "r_p"], "sweep.csv", ["param=r_p lo=0.10000000000000001 hi=6 steps=200"]),
        (["grid"], "grid.csv", ["f_lo=1.05 f_hi=8 rp_lo=0.10000000000000001 rp_hi=6 f_steps=41 rp_steps=41"]),
        (["gradient"], "gradient.csv", ["points=1001"]),
        (["simulate", "--set", "samples=100"], "simulate.csv", ["x=0.5"]),
        (["payoffs"], "payoffs.csv", []),
    ], ids=["sweep-f", "sweep-r_p", "grid", "gradient", "simulate", "payoffs"])
    def test_the_options_line_echoes_the_defaults(self, weak_cfg, tmp_path, argv, filename, options):
        assert main(argv + ["--config", weak_cfg, "--out", str(tmp_path)]) == 0
        meta, _, _ = read_csv(tmp_path / filename)
        assert meta[0] == f"pgg-bribery {argv[0]}"
        assert meta[1].startswith("model=ipgg n=5 b=12.0 ") and meta[2:] == options

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

    @pytest.mark.parametrize("override, workers", [
        ("tau=1e155", None),  # finite payoffs whose squared deviations overflow
        ("tau=1e155", "2"),
        ("tau=1e308", None),  # an infinite fine minus an infinite fine
        ("h=1e160", None),
    ])
    def test_simulate_refuses_payoffs_that_overflow(self, bg_cfg, tmp_path, capsys, monkeypatch, override, workers):
        if workers is not None:
            monkeypatch.setenv("PGG_BRIBERY_WORKERS", workers)
        out = tmp_path / "s"
        argv = ["simulate", "--config", bg_cfg, "--set", "samples=1000", "--set", override, "--out", str(out)]
        assert main(argv) == 1
        assert "error: the sampled payoffs overflow double precision" in capsys.readouterr().err
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

    def test_a_plot_to_stdout_is_the_whole_svg(self, bistable_cfg, tmp_path, capfd):
        out = str(tmp_path / "s")
        main(["gradient", "--config", bistable_cfg, "--out", out, "--points", "11"])
        csv_path = os.path.join(out, "gradient.csv")
        capfd.readouterr()
        # the SVG is written through /dev/stdout, so the notice goes to stderr
        assert main(["plot", csv_path, "--out-svg", "/dev/stdout"]) == 0
        captured = capfd.readouterr()
        assert captured.out == render_csv_plot(csv_path)
        assert captured.err == "wrote /dev/stdout\n"

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

    @pytest.mark.parametrize("argv", [
        ["gradient"], ["integrate", "--x0", "0.5"], ["grid"], ["sweep", "--param", "f"], ["sweep", "--param", "r_p"],
    ])
    def test_q_paths_reject_overflowing_thresholds(self, bistable_cfg, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--config", bistable_cfg, "--set", "tau=1e308", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "not finite" in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("argv, r_p, code", [
        (["grid", "--f-steps", "5", "--rp-steps", "5"], "1e308", 0),
        (["sweep", "--param", "r_p"], "1e308", 0),
        (["sweep", "--param", "f"], "1e308", 1),
        (["grid", "--f-steps", "5", "--rp-steps", "5", "--rp-hi", "1e308"], "2", 1),
    ], ids=["grid", "sweep_r_p", "sweep_f", "grid_axis_end"])
    def test_overflowing_thresholds_are_decided_on_the_r_p_axis(self, bistable_cfg, tmp_path, capsys, argv, r_p, code):
        # r_p = 1e308 overflows the thresholds, but a grid and an r_p sweep take r_p from their axis
        out = tmp_path / "out"
        assert main(argv + ["--config", bistable_cfg, "--set", f"r_p={r_p}", "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err.startswith("error: ") and "not finite" in err
            assert not out.exists() or not os.listdir(out)
        else:
            assert len(os.listdir(out)) == 1

    @pytest.mark.parametrize("argv, code, message", [
        (["gradient", "--points", "3"], 1, "error: Q(x) at x = 0 overflows double precision"),
        (["payoffs"], 1, "error: the payoffs overflow double precision"),
        (["integrate", "--x0", "0.5"], 1, "left [0, 1]: x = nan: the step overflows double precision"),
        (["simulate", "--set", "samples=1000"], 1, "error: the sampled payoffs overflow double precision"),
        (["thresholds"], 0, "regime=cooperation_dominant"),
        (["roots"], 0, "no interior root: F above f_max"),
        (["basins"], 0, "basin=1.0"),
    ], ids=["gradient", "payoffs", "integrate", "simulate", "thresholds", "roots", "basins"])
    def test_payoffs_that_overflow_with_finite_thresholds(self, weak_cfg, tmp_path, capsys, argv, code, message):
        # f * c / n is inf, so Q and the payoffs are not finite; f_min = f_max = 5 decide the regime
        out = tmp_path / "out"
        overrides = ["--set", "c=1e200", "--set", "f=1e200", "--set", "b=1", "--set", "r_p=1"]
        assert main(argv + ["--config", weak_cfg, *overrides, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert message in (captured.err if code else captured.out)
        assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
        assert not out.exists() or not os.listdir(out)

    def test_integrate_rejects_infinite_horizon(self, bistable_cfg, tmp_path, capsys):
        argv = ["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", str(tmp_path)]
        assert main(argv + ["--set", "t_max=inf"]) == 1
        assert "t_max must be finite" in capsys.readouterr().err

    def test_integrate_step_count_overflow_is_an_input_error(self, bistable_cfg, tmp_path, capsys):
        argv = ["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", str(tmp_path)]
        assert main(argv + ["--set", "t_max=1e300", "--set", "step=1e-300"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("overrides", [["step=1e-300"], ["t_max=1e4", "step=9.9e-5"], ["t_max=1e4", "step=9.9e-4"]])
    def test_integrate_refuses_more_than_max_steps(self, bistable_cfg, tmp_path, capsys, monkeypatch, overrides):
        def no_integration(*args):
            raise AssertionError("the run started instead of being refused")

        # the first G and the compiled loop: nothing is evaluated or compiled before the refusal
        monkeypatch.setattr(dynamics, "q_callable", no_integration)
        monkeypatch.setattr(dynamics, "_rk4_loop", no_integration)
        argv = ["integrate", "--config", bistable_cfg, "--x0", "0.9", "--out", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 1
        assert f"exceeds the limit of {dynamics.MAX_STEPS} steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command, computes", [
        (["grid", "--f-steps", "1000", "--rp-steps", "1000"], [("sweeps", "classify_regimes")]),
        (["grid", "--f-steps", "113", "--rp-steps", "111"], [("sweeps", "classify_regimes")]),
        (["sweep", "--param", "f", "--steps", "1000000"], [("sweeps", "classify_regimes")]),
        (["gradient", "--points", "1000000"], [("cli", "q_function"), ("cli", "gradient_of_selection")]),
    ], ids=["grid_at_the_cap", "grid_just_over", "sweep", "gradient"])
    def test_work_over_the_budget_at_max_n_exits_1_before_it_starts(
        self, weak_cfg, tmp_path, capsys, monkeypatch, command, computes
    ):
        from pgg_bribery import analysis, cli, sweeps  # a tree without the budget fails at once
        from pgg_bribery.games import MAX_N

        def no_work(*args, **kwargs):
            raise AssertionError("the work started instead of being refused")

        modules = {"sweeps": sweeps, "cli": cli, "dynamics": dynamics}
        for module, name in computes:
            monkeypatch.setattr(modules[module], name, no_work)
        argv = command + ["--config", weak_cfg, "--set", f"n={MAX_N}", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"above the work budget of {analysis.MAX_TURNS}" in err and f"n - 1 = {MAX_N - 1}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("t_max", ["1e5", "1e4"], ids=["at_the_cap", "default"])
    def test_integrate_unconverged_at_the_work_budget_at_max_n_exits_1(
        self, weak_cfg, tmp_path, capsys, monkeypatch, t_max
    ):
        from pgg_bribery import analysis
        from pgg_bribery.games import MAX_N

        # beta = 0 makes Q the constant f*c/n - c, ~1e-8 here: G = x (1 - x) Q stays above conv_tol,
        # with x far from leaving [0, 1].  The loop compiled at n = 2 gives the bits of the one at MAX_N
        # (fine_c = fine_d = 0 times a finite sum), without running 10^4-term stages for 5000 steps
        asked, appended, loop_at = [], [], dynamics._rk4_loop

        def small_loop(n):
            asked.append(n)
            rk4 = loop_at(2)

            def counted(x, k1, step, half_step, conv_tol, steps, append, *coefficients):
                def count(state):
                    appended.append(state)
                    append(state)
                return rk4(x, k1, step, half_step, conv_tol, steps, count, *coefficients)
            return counted

        monkeypatch.setattr(dynamics, "_rk4_loop", small_loop)
        argv = ["integrate", "--x0", "0.5", "--config", weak_cfg, "--set", f"n={MAX_N}", "--set", f"t_max={t_max}",
                "--set", "beta=0", "--set", f"f={MAX_N * (1 + 1e-8)!r}", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        last_step = dynamics.budget_steps(MAX_N)
        assert last_step == 5000
        assert f"not converged after {last_step} steps (n - 1 = {MAX_N - 1}" in err
        assert f"work budget of {analysis.MAX_TURNS} Horner turns" in err
        assert asked == [MAX_N]
        assert len(appended) == last_step  # the steps run, the budget's worth and no more
        assert not (tmp_path / "out").exists()

    def test_integrate_converged_within_the_work_budget_is_accepted(self, weak_cfg, tmp_path):
        from pgg_bribery.games import MAX_N

        # G(1) = 0: the run converges at once, though t_max/step asks for 10^6 steps
        out = tmp_path / "out"
        argv = ["integrate", "--x0", "1.0", "--config", weak_cfg, "--set", f"n={MAX_N}", "--out", str(out)]
        assert main(argv) == 0
        assert (out / "trajectory.csv").exists()
        # n = 7, where the budget binds first: a step = 0.001 run, as in the atlas, converges in ~1.3e4 steps
        model = CoreParams(**{**vars(IPGG_WEAK_POOL), "n": 7})
        assert dynamics.budget_steps(7) < math.ceil(dynamics.DEFAULT_T_MAX / 1e-3)
        assert dynamics.integrate(model, 0.9, step=1e-3).converged_to == 0.0

    def test_the_largest_jobs_at_n_5_fit_the_work_budget(self):
        from pgg_bribery import analysis, sweeps
        from pgg_bribery.cli import gradient_rows

        side = int(sweeps.MAX_CELLS**0.5)
        for n in (5, 6):  # integrate at MAX_STEPS and n = 6 runs exactly MAX_TURNS
            model = CoreParams(**{**vars(IPGG_WEAK_POOL), "n": n})
            # each refuses here, before any cell is classified, or not at all
            assert len(sweeps.regime_grid(model, 1.2, 6.0, 0.5, 5.0, side, side).f_values) == side
            assert len(sweeps.sweep_root(model, "r_p", 0.1, 6.0, sweeps.MAX_CELLS).points) == sweeps.MAX_CELLS
            gradient_rows(model, sweeps.MAX_CELLS)
            assert dynamics.budget_steps(n) >= dynamics.MAX_STEPS
        assert 4 * 5 * analysis.SCALAR_TURN * dynamics.budget_steps(6) == analysis.MAX_TURNS
        assert dynamics.budget_steps(7) < dynamics.MAX_STEPS
        # the budget itself: a MAX_CELLS grid at n = 126 asks for exactly MAX_TURNS
        analysis._check_turns("grid", 126, cells=10**6, halvings=analysis.BISECTION_STEPS)
        with pytest.raises(ValueError, match=r"grid asks for 5000005000 Horner turns \(n - 1 = 125, cells = 1000001"):
            analysis._check_turns("grid", 126, cells=10**6 + 1, halvings=analysis.BISECTION_STEPS)

    def test_samples_above_the_cap_exit_1_naming_the_limit(self, weak_cfg, tmp_path, capsys, monkeypatch):
        from pgg_bribery import montecarlo

        def no_sampling(n):
            raise AssertionError("the sampling started instead of being refused")

        monkeypatch.setattr(montecarlo, "_chunk_sizes", no_sampling)
        assert MAX_SAMPLES >= 100 * 10**7  # far above the largest golden run
        assert parse_config(WEAK_POOL_DOC + f"samples = {MAX_SAMPLES}\n").samples == MAX_SAMPLES
        for samples in (MAX_SAMPLES + 1, 10**18):
            for command in (["simulate", "--x", "0.5"], ["verify"]):
                argv = command + ["--config", weak_cfg, "--set", f"samples={samples}", "--out", str(tmp_path / "out")]
                assert main(argv) == 1
                assert f"samples must be <= MAX_SAMPLES = {MAX_SAMPLES}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_below_min_samples_exits_1_naming_the_floor(self, weak_cfg, tmp_path, capsys, monkeypatch):
        from pgg_bribery import montecarlo
        from pgg_bribery.verify import MIN_SAMPLES  # imported here: a tree without the floor fails at once

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started instead of being refused")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("PGG_BRIBERY_WORKERS", "2")
        for samples in (MIN_SAMPLES - 1, 2):
            argv = ["verify", "--config", weak_cfg, "--set", f"samples={samples}", "--out", str(tmp_path / "out")]
            assert main(argv) == 1
            assert f"samples >= MIN_SAMPLES = {MIN_SAMPLES}, got {samples}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_above_the_cap_exit_1_naming_the_limit(self, weak_cfg, tmp_path, capsys, monkeypatch):
        from pgg_bribery import montecarlo
        from pgg_bribery.cli import MAX_WORKERS  # imported here: a tree without the cap fails at once

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool started instead of being refused")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        for workers in (MAX_WORKERS + 1, 10**6):
            monkeypatch.setenv("PGG_BRIBERY_WORKERS", str(workers))
            for command in (["simulate", "--x", "0.5"], ["verify"]):
                argv = command + ["--config", weak_cfg, "--set", "samples=100", "--out", str(tmp_path / "out")]
                assert main(argv) == 1
                assert f"PGG_BRIBERY_WORKERS must be <= MAX_WORKERS = {MAX_WORKERS}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["thresholds"], ["payoffs"], ["gradient", "--points", "5"]])
    def test_a_group_above_max_n_exits_1_naming_the_limit(self, weak_cfg, tmp_path, capsys, command):
        from pgg_bribery.games import MAX_N  # imported here: a tree without the cap fails at once

        argv = command + ["--config", weak_cfg, "--set", f"n={MAX_N + 1}", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert f"group size n must be <= MAX_N = {MAX_N}" in capsys.readouterr().err

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
