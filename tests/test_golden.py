"""Outputs against the recorded golden digests: the figure script, the atlas
CLI jobs, and the oracle workload's verify and simulate jobs and imitation walk."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from pgg_bribery import games, montecarlo
from pgg_bribery.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

# the atlas CLI jobs with pinned outputs
ATLAS_JOBS = (
    ["gradient", "grid_bg", "grid_ipgg"]
    + [f"integrate_{x0}" for x0 in (0.7, 0.75, 0.78, 0.79, 0.82)]
    + [f"sweep_{name}_{param}" for name in ("bg", "bg_coop", "ipgg") for param in ("f", "r_p")]
)


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in directory.iterdir()}


def test_figure_artifacts_match_golden_digests(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GOLDEN["figures"]


@pytest.fixture(scope="module")
def atlas_jobs(tmp_path_factory):
    jobs = workloads.atlas(workloads.DEFAULT_SEED, tmp_path_factory.mktemp("atlas")).jobs
    return {job.id: job for job in jobs}


@pytest.mark.parametrize("job_id", ATLAS_JOBS)
def test_atlas_cli_outputs_match_golden_digests(atlas_jobs, job_id, tmp_path, capsys):
    assert main(atlas_jobs[job_id].argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GOLDEN[job_id]


@pytest.fixture(scope="module")
def oracle_jobs(tmp_path_factory):
    jobs = workloads.oracle(workloads.DEFAULT_SEED, tmp_path_factory.mktemp("oracle")).jobs
    return {job.id: job for job in jobs}


def test_oracle_verify_matches_golden_digest(oracle_jobs, tmp_path, monkeypatch, capsys):
    # the benchmark's pool size: every estimate of the battery goes through one pool of two workers
    monkeypatch.setenv(workloads.WORKERS_ENV, "2")
    assert main(oracle_jobs["verify"].argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GOLDEN["verify"]


@pytest.mark.parametrize("job_id", ["simulate_bg", "simulate_ipgg"])
def test_oracle_simulate_matches_golden_digest(oracle_jobs, job_id, tmp_path, monkeypatch, capsys):
    # 1e7 composition-sampled events per strategy, the event kernel's largest caller
    monkeypatch.setenv(workloads.WORKERS_ENV, "2")
    assert main(oracle_jobs[job_id].argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GOLDEN[job_id]


def test_oracle_walk_matches_golden_digest(oracle_jobs, tmp_path):
    program = SimpleNamespace(games=games, montecarlo=montecarlo)
    result = workloads._walk(program, oracle_jobs["walk"].params)
    assert workloads.digests(tmp_path, workloads.Outcome(0, "", result)) == GOLDEN["walk"]
