"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

MS = 1_000_000  # ns


def span(name, start, end, parent=-1, work=None, job="job"):
    return (name, start, end, parent, job, work)


def test_self_time_subtracts_each_child_once():
    trace = [
        span("cli.main", 0, 100),
        span("sweeps.regime_grid", 10, 30, parent=0),
        span("analysis.classify_regime", 12, 20, parent=1),
        span("output.write_csv", 40, 70, parent=0),
    ]
    # the grandchild is inside its parent's interval, not subtracted twice
    assert spans.self_times(trace) == [50, 12, 8, 30]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    trace = [
        span("cli.main", 0, 100),
        span("a", 10, 50, parent=0),
        span("b", 40, 60, parent=0),
        span("c", 90, 120, parent=0),
    ]
    # covered: [10, 60] and [90, 100]
    assert spans.self_times(trace)[0] == 100 - 50 - 10


def test_layer_metrics_from_synthetic_spans():
    trace = [
        span("cli.main", 0, 1000 * MS),
        span("config.parse_pairs", 0, 1 * MS, parent=0),
        span("config.config_from_pairs", 1 * MS, 3 * MS, parent=0),
        span("sweeps.regime_grid", 10 * MS, 610 * MS, parent=0, work=3),
        span("analysis.classify_regime", 20 * MS, 120 * MS, parent=3, work=1),
        span("analysis.classify_regime", 120 * MS, 320 * MS, parent=3, work=1),
        span("analysis.classify_regime", 320 * MS, 330 * MS, parent=3, work=0),
        span("output.write_csv", 700 * MS, 800 * MS, parent=0, work=5000),
        span("montecarlo.estimate_avg_payoff", 0, 500 * MS, work=1_000_000, job=spans.REPLAY_JOB),
    ]
    m = spans.layer_metrics(trace)
    assert m["analysis.root_us"] == pytest.approx(150_000)
    assert m["analysis.classify_dominant_us"] == pytest.approx(10_000)
    assert m["sweeps.grid_cells_per_s"] == pytest.approx(5.0)
    assert m["sweeps.self_s"] == pytest.approx(0.290)
    assert m["output.csv_rows_per_s"] == pytest.approx(50_000)
    assert m["config.parse_ms"] == pytest.approx(3.0)
    assert m["cli.self_s"] == pytest.approx(1.0 - 0.003 - 0.600 - 0.100)
    assert m["montecarlo.mixed_events_per_s"] == pytest.approx(2_000_000)
    assert m["montecarlo.pooled_events_per_s"] == 0.0  # replays are serial
    assert m["dynamics.rk4_step_us"] == 0.0  # layer not called


@pytest.fixture(scope="module")
def program():
    return wl.Program(run.ROOT)


def _sweep_job(tmp_path):
    config = tmp_path / "ipgg.cfg"
    config.write_text(wl._config_text(wl.MODELS["ipgg"], None), encoding="utf-8")
    argv = ["sweep", "--config", str(config), "--param", "f", "--steps", "20"]
    return wl.Job("sweep_small", "sweep", argv, params={"rows": 20})


def test_corrupted_output_is_counted_as_failure(program, tmp_path, monkeypatch):
    job = _sweep_job(tmp_path)
    workload = wl.Workload("small", [job], [], None, tmp_path / "out")
    first = run.run_rep(program, workload, wl.DEFAULT_SEED, None)
    assert first.problems == {}
    golden = {job.id: wl.digests(tmp_path / "out" / job.id, wl.Outcome(0, ""))}
    assert run.run_rep(program, workload, wl.DEFAULT_SEED, golden).problems == {}

    execute = wl.execute

    def execute_then_corrupt(program_, job_, out_dir):
        outcome = execute(program_, job_, out_dir)
        path = out_dir / "sweep.csv"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("bistable", "bistablE", 1), encoding="utf-8")
        return outcome

    monkeypatch.setattr(wl, "execute", execute_then_corrupt)
    rep = run.run_rep(program, workload, wl.DEFAULT_SEED, golden)
    assert list(rep.problems) == [job.id]
    assert "digest mismatch: sweep.csv" in rep.problems[job.id][0]


def test_invariants_catch_missing_rows_at_other_seeds(program, tmp_path):
    job = _sweep_job(tmp_path)
    out_dir = tmp_path / "out"
    wl.reset_dir(out_dir)
    outcome = wl.execute(program, job, out_dir)
    assert wl.check(job, out_dir, outcome, 7, {}) == ([], {"rows": 20, "csv_bytes": (out_dir / "sweep.csv").stat().st_size})
    path = out_dir / "sweep.csv"
    path.write_text("".join(path.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]), encoding="utf-8")
    problems, _ = wl.check(job, out_dir, outcome, 7, {})
    assert problems == ["19 rows, expected 20"]


def test_tracer_restores_every_patched_function(program):
    import pgg_bribery.analysis as analysis
    import pgg_bribery.cli as cli
    import pgg_bribery.dynamics as dynamics
    import pgg_bribery.sweeps as sweeps

    original = sweeps.classify_regime
    gradient = analysis.gradient_of_selection
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sweeps.classify_regime is not original
        assert dynamics.classify_regime is sweeps.classify_regime
        # traced where the CLI calls it, not inside the library
        assert cli.gradient_of_selection is not gradient
        assert analysis.gradient_of_selection is gradient
    finally:
        tracer.uninstall()
    assert sweeps.classify_regime is original and dynamics.classify_regime is original
    assert cli.gradient_of_selection is gradient


def test_every_metric_in_benchmark_json_is_computed():
    spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
    computed = {*spans.layer_metrics([]), *run.property_counts({}), "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= computed
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_job_whose_argv_does_not_parse_is_counted_as_failure(program, tmp_path):
    job = wl.Job("bad_flag", "sweep", ["sweep", "--no-such-flag"], params={"rows": 20})
    workload = wl.Workload("small", [job], [], None, tmp_path / "out")
    rep = run.run_rep(program, workload, wl.DEFAULT_SEED, None)
    assert list(rep.problems) == [job.id]
    assert rep.problems[job.id][0].startswith("exit code 2: SystemExit(2)")


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
