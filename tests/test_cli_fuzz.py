"""The CLI input contract under arbitrary input text: exit 0 or 1, never a traceback."""

import contextlib
import io
import warnings

import hypothesis.strategies as st
from hypothesis import example, given, settings

from pgg_bribery.cli import main
from pgg_bribery.config import CONTROL_DEFAULTS
from pgg_bribery.games import BRIBERY_FIELDS, CORE_FIELDS, MAX_N
from pgg_bribery.sweeps import MAX_CELLS

BASE = {
    "model": "bg", "n": "5", "b": "12", "c": "1", "tau": "1", "f": "3", "alpha": "0.5",
    "beta": "0.2", "r_p": "2", "h": "1", "gamma": "0.6", "p": "0.3", "q": "0.8",
}
KEYS = st.sampled_from(["model", *CORE_FIELDS, *BRIBERY_FIELDS, *CONTROL_DEFAULTS]) | st.text(max_size=8)
VALUES = (
    st.text(max_size=12)
    | st.floats().map(repr)
    | st.integers(-3, 60).map(str)
    | st.integers(MAX_N - 1, MAX_N + 1).map(str)
    | st.integers(MAX_N + 2, 2**70).map(str)
    | st.sampled_from(["ipgg", "bg", "inf", "-inf", "nan", "1e308", "-0", "0", "1", "1e-320", ""])
)
COMMANDS = st.sampled_from(
    [["thresholds"], ["roots"], ["basins"], ["payoffs"], ["gradient", "--points", "5"], ["integrate", "--x0", "0.9"]]
)
# set after the drawn overrides, so that an integrate example runs at most t_max / step = 50 steps
LAST = {"integrate": [("step", "0.1"), ("t_max", "5")]}


@settings(max_examples=80, deadline=None)
@given(COMMANDS, st.lists(st.tuples(KEYS, VALUES), max_size=3), st.booleans())
@example(["thresholds"], [("n", "1")], False)
@example(["payoffs"], [("model", "ipgg")], True)
@example(["integrate", "--x0", "0.9"], [("f", "1e308")], False)
def test_arbitrary_overrides_exit_0_or_1_without_a_traceback(tmp_path_factory, command, overrides, drop_bg_keys):
    assert_exit_0_or_1(override_argv(tmp_path_factory, command, overrides, drop_bg_keys, LAST.get(command[0], [])))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(KEYS, VALUES), max_size=3), st.booleans(), st.integers(2, 5000))
@example([("n", str(MAX_N))], False, 5000)
@example([("tau", "3.7923007632436714e+153")], False, 2)
def test_simulate_exits_0_or_1_without_a_traceback(tmp_path_factory, overrides, drop_bg_keys, samples):
    # samples is set last, so that every example stays small
    last = [("samples", str(samples))]
    assert_exit_0_or_1(override_argv(tmp_path_factory, ["simulate", "--x", "0.5"], overrides, drop_bg_keys, last))


def override_argv(tmp_path_factory, command, overrides, drop_bg_keys, last):
    """``command`` on the BASE pairs, then the drawn ``overrides``, then ``last``, each as ``--set``."""
    pairs = dict(BASE)
    if drop_bg_keys:  # leave the model an IPGG one unless an override says otherwise
        pairs["model"] = "ipgg"
        for key in BRIBERY_FIELDS:
            del pairs[key]
    argv = command + ["--out", str(tmp_path_factory.mktemp("fuzz"))]
    for key, value in [*pairs.items(), *overrides, *last]:
        argv.append(f"--set={key}={value}")
    return argv


# a config document: arbitrary text, or the BASE lines among drawn key = value lines and junk
LINES = st.tuples(KEYS, VALUES).map(lambda pair: f"{pair[0]} = {pair[1]}") | st.text(max_size=16)
CONFIG_TEXT = st.text() | st.lists(LINES, max_size=6).flatmap(
    lambda drawn: st.permutations([f"{key} = {value}" for key, value in BASE.items()] + drawn)
).map("\n".join)


@settings(max_examples=60, deadline=None)
@given(COMMANDS, CONFIG_TEXT)
@example(["thresholds"], "model = ipgg\n\x00 = 1")
def test_arbitrary_config_files_exit_0_or_1_without_a_traceback(tmp_path_factory, command, text):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "run.cfg"
    path.write_text(text, encoding="utf-8")
    argv = command + ["--config", str(path), "--out", str(folder)]
    assert_exit_0_or_1(argv + [f"--set={key}={value}" for key, value in LAST.get(command[0], [])])


# plot input: arbitrary bytes, or a table under an emitted header or a drawn one
CELLS = st.floats().map(repr) | st.sampled_from(["", "0", "1e400", "bistable"]) | st.text("0123456789.-e,", max_size=6)
HEADERS = st.sampled_from(["f,r_p,regime,basin", "x,q,g", "t,x"]) | st.text(max_size=12)
TABLES = st.tuples(
    st.lists(st.text(max_size=8), max_size=2), HEADERS, st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=5)
).map(lambda t: "\n".join(["#" + line for line in t[0]] + [t[1]] + [",".join(row) for row in t[2]]).encode())


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=300) | TABLES)
@example(b"# x\nf,r_p\n1,2\n")
@example(b"\xff\xfe")
def test_plot_of_arbitrary_bytes_exits_0_or_1_without_a_traceback(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(data)
    assert_exit_0_or_1(["plot", str(path)])


def assert_exit_0_or_1(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or "error: " in err.getvalue()
    assert not caught, (argv, [str(w.message) for w in caught])


# axis ends include inf, nan and -1e308; each is passed as --lo=VALUE, since
# argparse reads "--lo -1e308" as an option
ENDS = st.floats().map(repr) | st.sampled_from(["0", "1", "2", "5", "1e-300"])
# a few step counts above the cap, which must be refused before anything is built
STEPS = st.integers(-2, 40) | st.integers(MAX_CELLS + 1, 2**40)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["f", "r_p"]), ENDS, ENDS, STEPS)
@example("f", "1", "inf", 5)
@example("r_p", "0", "1e308", 5)
@example("f", "1.0", "1.7976931348623157e+308", 28)  # the last point's i * step overflows inside linspace
def test_sweep_axes_exit_0_or_1_without_a_traceback(tmp_path_factory, param, lo, hi, steps):
    argv = ["sweep", "--param", param, f"--lo={lo}", f"--hi={hi}", f"--steps={steps}"]
    argv += ["--out", str(tmp_path_factory.mktemp("fuzz"))]
    assert_exit_0_or_1(argv + [f"--set={key}={value}" for key, value in BASE.items()])


@settings(max_examples=80, deadline=None)
@given(ENDS, ENDS, ENDS, ENDS, STEPS, STEPS)
@example("1", "inf", "0", "1", 3, 3)
@example("1", "2", "-1e308", "1", 3, 3)
def test_grid_axes_exit_0_or_1_without_a_traceback(tmp_path_factory, f_lo, f_hi, rp_lo, rp_hi, f_steps, rp_steps):
    argv = [
        "grid", f"--f-lo={f_lo}", f"--f-hi={f_hi}", f"--rp-lo={rp_lo}", f"--rp-hi={rp_hi}",
        f"--f-steps={f_steps}", f"--rp-steps={rp_steps}", "--out", str(tmp_path_factory.mktemp("fuzz")),
    ]
    assert_exit_0_or_1(argv + [f"--set={key}={value}" for key, value in BASE.items()])
