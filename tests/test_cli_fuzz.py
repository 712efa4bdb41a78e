"""The CLI input contract under arbitrary input text: exit 0 or 1, never a traceback."""

import contextlib
import io
import warnings

import hypothesis.strategies as st
from hypothesis import example, given, settings

from pgg_bribery.cli import main
from pgg_bribery.config import BG_KEYS, CONTROL_DEFAULTS, CORE_KEYS
from pgg_bribery.sweeps import MAX_CELLS

BASE = {
    "model": "bg", "n": "5", "b": "12", "c": "1", "tau": "1", "f": "3", "alpha": "0.5",
    "beta": "0.2", "r_p": "2", "h": "1", "gamma": "0.6", "p": "0.3", "q": "0.8",
}
KEYS = st.sampled_from(["model", *CORE_KEYS, *BG_KEYS, *CONTROL_DEFAULTS]) | st.text(max_size=8)
# integers stay small: a large n has no work bound yet, and each Q evaluation is O(n)
VALUES = (
    st.text(max_size=12)
    | st.floats().map(repr)
    | st.integers(-3, 60).map(str)
    | st.sampled_from(["ipgg", "bg", "inf", "-inf", "nan", "1e308", "-0", "0", "1", "1e-320", ""])
)
COMMANDS = st.sampled_from([["thresholds"], ["roots"], ["basins"], ["payoffs"], ["gradient", "--points", "5"]])


@settings(max_examples=80, deadline=None)
@given(COMMANDS, st.lists(st.tuples(KEYS, VALUES), max_size=3), st.booleans())
@example(["thresholds"], [("n", "1")], False)
@example(["payoffs"], [("model", "ipgg")], True)
def test_arbitrary_overrides_exit_0_or_1_without_a_traceback(tmp_path_factory, command, overrides, drop_bg_keys):
    pairs = dict(BASE)
    if drop_bg_keys:  # leave the model an IPGG one unless an override says otherwise
        pairs["model"] = "ipgg"
        for key in BG_KEYS:
            del pairs[key]
    argv = command + ["--out", str(tmp_path_factory.mktemp("fuzz"))]
    for key, value in [*pairs.items(), *overrides]:
        argv.append(f"--set={key}={value}")
    assert_exit_0_or_1(argv)


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
