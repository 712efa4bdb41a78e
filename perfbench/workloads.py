"""Benchmark workloads: jobs built from a seed, run in process, then checked.

Every job calls the program the way a user does: ``pgg_bribery.cli.main``
with an argument list, ``scripts/reproduce_figures.py`` through its
``main()``, or, for the finite-population walk, which has no CLI, the
library function.  The workload seed only generates inputs: Monte Carlo
and walk seeds, and small jitter of integration start points and grid and
sweep windows.  At :data:`DEFAULT_SEED` there is no jitter and the jobs
are the reference inputs whose output digests are kept in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import random
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 42
WORKERS_ENV = "PGG_BRIBERY_WORKERS"
SE_BOUND = 4.0  # simulate means must lie within this many standard errors

_GAME = {"n": 5, "b": 12, "c": 1, "tau": 1, "beta": 0.2}
MODELS = {
    # bribery game with defector-heavy bribes (q > p), the atlas base
    "bg": {"model": "bg", **_GAME, "f": 2, "alpha": 0.6, "r_p": 2.5, "h": 1, "gamma": 0.6, "p": 0.3, "q": 0.8},
    # bribery game with cooperator-heavy bribes (p > q)
    "bg_coop": {"model": "bg", **_GAME, "f": 2, "alpha": 0.6, "r_p": 2.5, "h": 1, "gamma": 0.6, "p": 0.6, "q": 0.5},
    # bistable IPGG, x* = 0.786...
    "ipgg": {"model": "ipgg", **_GAME, "f": 3, "alpha": 0.5, "r_p": 2},
}


@dataclass
class Job:
    """One program invocation and what its output must satisfy."""

    id: str
    kind: str  # a CLI subcommand, "script" or "walk"
    argv: list[str] = field(default_factory=list)
    seeded: bool = True  # inputs depend on the workload seed
    params: dict = field(default_factory=dict)  # expected row counts, walk settings, ...


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    configs: list[str]  # config files the set-up measurement parses
    workers: str | None  # PGG_BRIBERY_WORKERS while the jobs run
    out_dir: Path


@dataclass
class Outcome:
    """A finished job: exit code, captured stdout and in-memory result."""

    code: int
    stdout: str
    result: object = None
    error: str = ""


class Program:
    """The checkout's ``pgg_bribery`` package and figure script, imported."""

    def __init__(self, root: Path):
        src = root / "src"
        script = root / "scripts" / "reproduce_figures.py"
        if not (src / "pgg_bribery" / "cli.py").is_file() or not script.is_file():
            raise FileNotFoundError(f"no pgg_bribery sources under {root}")
        sys.path.insert(0, str(src))
        import pgg_bribery.cli
        from pgg_bribery import games, montecarlo

        if Path(pgg_bribery.cli.__file__).resolve().parent != (src / "pgg_bribery").resolve():
            raise ImportError(f"pgg_bribery was imported from {pgg_bribery.cli.__file__}, not {src}")
        spec = importlib.util.spec_from_file_location("reproduce_figures", script)
        figures = importlib.util.module_from_spec(spec)
        sys.modules["reproduce_figures"] = figures
        spec.loader.exec_module(figures)
        self.src = src
        self.cli = pgg_bribery.cli
        self.games = games
        self.montecarlo = montecarlo
        self.figures = figures


def _config_text(model: dict, seed: int | None) -> str:
    lines = [f"{key} = {value}" for key, value in model.items()]
    if seed is not None:
        lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def _write_configs(out_dir: Path, names, seed: int | None) -> dict[str, str]:
    config_dir = out_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        path = config_dir / f"{name}.cfg"
        path.write_text(_config_text(MODELS[name], seed), encoding="utf-8")
        paths[name] = str(path)
    return paths


class _Jitter:
    """Uniform jitter in [-width, width], or none at the default seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._off = seed == DEFAULT_SEED

    def __call__(self, value: float, width: float) -> str:
        return repr(value if self._off else value + self._rng.uniform(-width, width))


def atlas(seed: int, out_dir: Path) -> Workload:
    """Deterministic analysis: regime maps, sweeps, the figure script, RK4 runs and a fine gradient."""
    cfg = _write_configs(out_dir, ("bg", "bg_coop", "ipgg"), None)
    jitter = _Jitter(seed)
    jobs = []
    for name in ("bg", "ipgg"):
        argv = [
            "grid", "--config", cfg[name],
            "--f-lo", jitter(1.2, 0.005), "--f-hi", jitter(6.0, 0.005),
            "--rp-lo", jitter(0.5, 0.005), "--rp-hi", jitter(5.0, 0.005),
            "--f-steps", "200", "--rp-steps", "200",
        ]
        jobs.append(Job(f"grid_{name}", "grid", argv, params={"rows": 200 * 200}))
    for name in ("bg", "bg_coop", "ipgg"):
        for param, (lo, hi) in (("f", (1.05, 8.0)), ("r_p", (0.1, 6.0))):
            argv = [
                "sweep", "--config", cfg[name], "--param", param,
                "--lo", jitter(lo, 0.005), "--hi", jitter(hi, 0.005), "--steps", "200",
            ]
            jobs.append(Job(f"sweep_{name}_{param}", "sweep", argv, params={"rows": 200}))
    jobs.append(Job("figures", "script", seeded=False))
    # start points on both sides of x* = 0.786; the closer, the longer the run
    for x0 in (0.70, 0.75, 0.78, 0.79, 0.82):
        argv = ["integrate", "--config", cfg["ipgg"], "--set", "step=0.001", "--x0", jitter(x0, 2e-4)]
        jobs.append(Job(f"integrate_{x0}", "integrate", argv))
    argv = ["gradient", "--config", cfg["ipgg"], "--points", "200001"]
    jobs.append(Job("gradient", "gradient", argv, seeded=False, params={"rows": 200001}))
    return Workload("atlas", jobs, list(cfg.values()), None, out_dir)


def oracle(seed: int, out_dir: Path) -> Workload:
    """Stochastic simulation: the verify battery, two 1e7-sample simulations and the imitation walk."""
    cfg = _write_configs(out_dir, ("bg", "ipgg"), seed)
    # verify keeps the default seed: its cross-stream correlation check
    # (|corr| < 0.01 over 1e5 draws, about 3.2 standard errors) fails by
    # chance at some seeds (403 gives 0.0101), which is not a wrong result
    argv = ["verify", "--config", cfg["ipgg"], "--set", f"seed={DEFAULT_SEED}"]
    jobs = [Job("verify", "verify", argv, seeded=False, params={"samples": 1_000_000})]
    for name in ("bg", "ipgg"):
        argv = ["simulate", "--config", cfg[name], "--set", "samples=10000000"]
        jobs.append(Job(f"simulate_{name}", "simulate", argv, params={"samples": 10_000_000}))
    # ten short walks from x = 0.5 rather than one long one: a long walk can be
    # absorbed early, which would make the work done depend on the seed
    walk = {"model": "ipgg", "z": 1000, "s": 0.01, "walks": 10, "rounds": 30_000,
            "x0": float(_Jitter(seed)(0.5, 0.002)), "seed": seed}
    jobs.append(Job("walk", "walk", params=walk))
    return Workload("oracle", jobs, list(cfg.values()), "2", out_dir)


WORKLOADS = {"atlas": atlas, "oracle": oracle}


def _walk(program: Program, spec: dict):
    mc = program.montecarlo
    model = program.games.CoreParams(**{k: v for k, v in MODELS[spec["model"]].items() if k != "model"})
    return [
        mc.evolve_finite_population(
            model, spec["z"], spec["x0"], spec["rounds"], spec["s"], mc.RngSeed(spec["seed"], index)
        )
        for index in range(spec["walks"])
    ]


def execute(program: Program, job: Job, out_dir: Path) -> Outcome:
    """Run one job with its stdout captured; an exception fails the job."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            if job.kind == "script":
                code, result = program.figures.main(["--out", str(out_dir)]), None
            elif job.kind == "walk":
                code, result = 0, _walk(program, job.params)
            else:
                code, result = program.cli.main(job.argv + ["--out", str(out_dir)]), None
    except SystemExit as err:  # argparse rejecting the argv exits; the job fails, the run goes on
        code = err.code if isinstance(err.code, int) and err.code else -1
        return Outcome(code, buffer.getvalue(), None, f"SystemExit({err.code!r})")
    except Exception:  # a crashing job is counted as failed, the run goes on
        return Outcome(-1, buffer.getvalue(), None, traceback.format_exc())
    return Outcome(code, buffer.getvalue(), result)


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


# ---------------------------------------------------------------------------
# output checks


def digests(out_dir: Path, outcome: Outcome) -> dict[str, str]:
    """sha256 of every emitted file, and of the walk's states."""
    result = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        with open(path, "rb") as handle:
            result[path.relative_to(out_dir).as_posix()] = hashlib.file_digest(handle, "sha256").hexdigest()
    if isinstance(outcome.result, list):
        h = hashlib.sha256()
        for trajectory_ in outcome.result:
            h.update(trajectory_.times.tobytes())
            h.update(trajectory_.states.tobytes())
        result["walk:states"] = h.hexdigest()
    return result


def _rows(path: Path):
    """The data rows of a CSV output, split into fields, one at a time.

    The checks stream so that ``peak_rss_mb`` is set by the program's jobs,
    not by the harness holding a 200001-row output in memory.
    """
    with open(path, encoding="utf-8") as handle:
        lines = (line.rstrip("\n") for line in handle)
        if next((line for line in lines if line and not line.startswith("#")), None) is None:
            raise ValueError(f"{path.name} has no header")
        for line in lines:
            if line and not line.startswith("#"):
                yield line.split(",")


def _invariants(job: Job, out_dir: Path, outcome: Outcome) -> tuple[list[str], dict]:
    problems, props = [], {}
    params = job.params
    if job.kind in ("grid", "sweep", "gradient"):
        rows = bistable = knife_edge = 0
        for row in _rows(out_dir / f"{job.kind}.csv"):
            rows += 1
            if job.kind == "grid":
                bistable += row[2] == "bistable"
                knife_edge += row[2] == "knife_edge"
        props["rows"] = rows
        if rows != params["rows"]:
            problems.append(f"{rows} rows, expected {params['rows']}")
        if job.kind == "grid":
            props["bistable"] = bistable
            props["knife_edge"] = knife_edge
    elif job.kind == "integrate":
        rows = outside = 0
        for row in _rows(out_dir / "trajectory.csv"):
            rows += 1
            outside += not 0.0 <= float(row[1]) <= 1.0
        props["rk4_steps"] = rows - 1
        if rows < 2 or outside:
            problems.append("trajectory is empty or leaves [0, 1]")
    elif job.kind == "simulate":
        rows = list(_rows(out_dir / "simulate.csv"))
        props["samples_per_estimate"] = sorted({int(row[4]) for row in rows})
        for strategy, _, mean, se, n_samples, closed in rows:
            if abs(float(mean) - float(closed)) > SE_BOUND * float(se):
                problems.append(f"{strategy}: mean {mean} is not within {SE_BOUND} SE of {closed}")
            if int(n_samples) != params["samples"]:
                problems.append(f"{strategy}: {n_samples} samples, expected {params['samples']}")
    elif job.kind == "verify":
        rows = list(_rows(out_dir / "verify_checks.csv"))
        props["checks"] = len(rows)
        props["checks_failed"] = sum(row[-1] != "ok" for row in rows)
        props["samples_per_estimate"] = params["samples"]
        if "verify: PASS" not in outcome.stdout:
            problems.append("verify did not print 'verify: PASS'")
    elif job.kind == "walk":
        props["rounds"] = sum(int(t.times[-1]) for t in outcome.result)
        if not all(((t.states >= 0.0) & (t.states <= 1.0)).all() for t in outcome.result):
            problems.append("walk state outside [0, 1]")
    elif job.kind == "script":
        props["files"] = sum(1 for p in out_dir.rglob("*") if p.is_file())
    return problems, props


def check(job: Job, out_dir: Path, outcome: Outcome, seed: int, golden: dict | None) -> tuple[list[str], dict]:
    """Problems with a job's output, and its workload properties.

    At the default seed, and at any seed for jobs whose inputs do not
    depend on it, every emitted file must match its recorded digest; at
    every seed the per-job invariants must hold.
    """
    if outcome.code != 0:
        return [f"exit code {outcome.code}{': ' + outcome.error if outcome.error else ''}"], {}
    try:
        problems, props = _invariants(job, out_dir, outcome)
    except (OSError, ValueError, IndexError, KeyError) as err:
        return [f"unreadable output: {err!r}"], {}
    props["csv_bytes"] = sum(p.stat().st_size for p in out_dir.rglob("*.csv"))
    if golden is not None and (seed == DEFAULT_SEED or not job.seeded):
        expected = golden.get(job.id)
        actual = digests(out_dir, outcome)
        if expected is None:
            problems.append("no recorded digest")
        elif actual != expected:
            differing = sorted(
                name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name)
            )
            problems.append(f"digest mismatch: {', '.join(differing)}")
    return problems, props
