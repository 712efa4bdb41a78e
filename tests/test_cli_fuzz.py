"""The CLI input contract under arbitrary ``--set key=value`` text: exit 0 or 1, never a traceback."""

import contextlib
import io

import hypothesis.strategies as st
from hypothesis import example, given, settings

from pgg_bribery.cli import main
from pgg_bribery.config import BG_KEYS, CONTROL_DEFAULTS, CORE_KEYS

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or "error: " in err.getvalue()
