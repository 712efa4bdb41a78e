"""In-memory spans around calls into the library's public functions.

A :class:`Tracer` replaces each target function, in every loaded
``pgg_bribery`` module and in the figure script, with a wrapper that
records one span per call: ``(name, start_ns, end_ns, parent, job,
work)``.  ``parent`` is the index of the enclosing span (-1 at the top),
``job`` the id of the benchmark job that made the call and ``work`` a
count read from the call's arguments or result (cells, rows, samples,
RK4 steps, ...) or ``None``.  The wrappers exist only between
:meth:`Tracer.install` and :meth:`Tracer.uninstall`; untimed and traced
repetitions therefore run the same library code.

:func:`layer_metrics` turns the spans of one traced repetition into the
per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

NS = 1e-9

# Estimators whose first call is replayed serially after a traced repetition,
# so serial sampling rates are measured even where the jobs run a pool.
SERIAL_REPLAY = ("montecarlo.estimate_expected_payoff", "montecarlo.estimate_avg_payoff")
REPLAY_SAMPLES = 1_000_000
REPLAY_JOB = "serial_replay"


def _bistable(args, kwargs, result):
    return int(result.kind.value == "bistable")


def _grid_cells(args, kwargs, result):
    return len(result.f_values) * len(result.rp_values)


def _sweep_points(args, kwargs, result):
    return len(result.points)


def _rk4_steps(args, kwargs, result):
    return round(float(result.times[-1]) / result.step_size)


def _walk_rounds(args, kwargs, result):
    return int(result.times[-1])


def _samples(args, kwargs, result):
    return result.n_samples


def _csv_rows(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs.get("rows")
    return len(rows) if hasattr(rows, "__len__") else None


# (module, public function, work counter) for every traced layer boundary
TARGETS = (
    ("analysis", "classify_regime", _bistable),
    ("analysis", "gradient_of_selection", None),
    ("analysis", "thresholds", None),
    ("dynamics", "basin_of_cooperation", None),
    ("analysis", "q_function", None),
    ("analysis", "avg_payoff", None),
    ("games", "group_payoff", None),
    ("sweeps", "regime_grid", _grid_cells),
    ("sweeps", "sweep_root", _sweep_points),
    ("dynamics", "integrate", _rk4_steps),
    ("montecarlo", "estimate_expected_payoff", _samples),
    ("montecarlo", "estimate_avg_payoff", _samples),
    ("montecarlo", "evolve_finite_population", _walk_rounds),
    ("verify", "run_battery", None),
    ("output", "write_csv", _csv_rows),
    ("output", "render_csv_plot", None),
    ("config", "parse_pairs", None),
    ("config", "config_from_pairs", None),
)


# Traced only where the CLI and the figure script call them, so that their
# time leaves ``cli.self_s`` without adding spans inside classify_regime.
ENTRY_ONLY = ("analysis.gradient_of_selection", "analysis.thresholds", "dynamics.basin_of_cooperation")
ENTRY_MODULES = ("pgg_bribery.cli", "reproduce_figures")


def _program_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "pgg_bribery" or name.startswith("pgg_bribery.") or name == "reproduce_figures"
    ]


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = ""
        self.first_calls: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._originals: dict[str, object] = {}

    @contextmanager
    def span(self, name: str, job: str):
        """Top-level span opened by the benchmark around one job."""
        self.job = job
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, job, None)

    def _wrap(self, name: str, fn, work_of):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        first_calls = self.first_calls if name in SERIAL_REPLAY else None

        def traced(*args, **kwargs):
            if first_calls is not None and name not in first_calls:
                first_calls[name] = (args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, None)
            if work_of is not None:
                spans[index] = (name, start, end, parent, self.job, work_of(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = _program_modules()
        entry_modules = [sys.modules[name] for name in ENTRY_MODULES if name in sys.modules]
        for module, func, work_of in TARGETS:
            name = f"{module}.{func}"
            original = getattr(sys.modules[f"pgg_bribery.{module}"], func)
            self._originals[name] = original
            traced = self._wrap(name, original, work_of)
            for mod in entry_modules if name in ENTRY_ONLY else modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def replay_serial(self) -> None:
        """Repeat the first call of each estimator with one worker, traced."""
        for name in SERIAL_REPLAY:
            if name not in self.first_calls:
                continue
            args, kwargs = self.first_calls[name]
            original = self._originals[name]
            bound = inspect.signature(original).bind(*args, **kwargs)
            bound.arguments["n"] = min(bound.arguments["n"], REPLAY_SAMPLES)
            bound.arguments["workers"] = 1
            traced = self._wrap(name, original, _samples)
            self.job = REPLAY_JOB
            traced(*bound.args, **bound.kwargs)

    def write(self, path) -> None:
        origin = min((span[1] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("index,name,start_ns,end_ns,parent,job,work\n")
            for index, (name, start, end, parent, job, work) in enumerate(self.spans):
                work = "" if work is None else work
                handle.write(f"{index},{name},{start - origin},{end - origin},{parent},{job},{work}\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover (ns)."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (_, start, end, _, _, _), kids in zip(spans, children):
        covered, reach = 0, start
        for kid_start, kid_end in sorted(kids):
            kid_start, kid_end = max(kid_start, reach), min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                reach = kid_end
        result.append(end - start - covered)
    return result


def _durations(spans, name, replayed=None, work_filter=None):
    """(duration, work) of the spans called ``name``.

    ``replayed`` selects serial replays (True), job calls (False) or both.
    """
    return [
        (end - start, work)
        for span_name, start, end, _, job, work in spans
        if span_name == name
        and (replayed is None or (job == REPLAY_JOB) == replayed)
        and (work_filter is None or work == work_filter)
    ]


def _mean_us(pairs) -> float:
    return sum(d for d, _ in pairs) / len(pairs) / 1e3 if pairs else 0.0


def _rate(pairs) -> float:
    busy = sum(d for d, _ in pairs)
    return sum(w or 0 for _, w in pairs) / (busy * NS) if busy else 0.0


def _total_s(pairs) -> float:
    return sum(d for d, _ in pairs) * NS


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer timings and rates of one traced repetition.

    A layer the workload never calls reports 0.
    """
    own = self_times(spans)
    grid_self = sum(t for t, span in zip(own, spans) if span[0] == "sweeps.regime_grid")
    cli_self = [t for t, span in zip(own, spans) if span[0] == "cli.main"]
    config_ns = sum(
        end - start for name, start, end, *_ in spans
        if name in ("config.parse_pairs", "config.config_from_pairs")
    )
    integrate = _durations(spans, "dynamics.integrate")
    rk4_steps = sum(w for _, w in integrate)
    walk = _durations(spans, "montecarlo.evolve_finite_population")
    pooled = (
        _durations(spans, "montecarlo.estimate_expected_payoff", replayed=False)
        + _durations(spans, "montecarlo.estimate_avg_payoff", replayed=False)
    )
    return {
        "analysis.root_us": _mean_us(_durations(spans, "analysis.classify_regime", work_filter=1)),
        "analysis.classify_dominant_us": _mean_us(
            _durations(spans, "analysis.classify_regime", work_filter=0)
        ),
        "analysis.q_eval_us": _mean_us(_durations(spans, "analysis.q_function")),
        "analysis.avg_payoff_us": _mean_us(_durations(spans, "analysis.avg_payoff")),
        "games.group_payoff_us": _mean_us(_durations(spans, "games.group_payoff")),
        "sweeps.grid_cells_per_s": _rate(_durations(spans, "sweeps.regime_grid")),
        "sweeps.sweep_points_per_s": _rate(_durations(spans, "sweeps.sweep_root")),
        "sweeps.self_s": grid_self * NS,
        "dynamics.integrate_s": _total_s(integrate),
        "dynamics.rk4_step_us": _total_s(integrate) / rk4_steps * 1e6 if rk4_steps else 0.0,
        "dynamics.rk4_steps": rk4_steps,
        "montecarlo.fixed_events_per_s": _rate(
            _durations(spans, "montecarlo.estimate_expected_payoff", replayed=True)
        ),
        "montecarlo.mixed_events_per_s": _rate(
            _durations(spans, "montecarlo.estimate_avg_payoff", replayed=True)
        ),
        "montecarlo.pooled_events_per_s": _rate(pooled),
        "montecarlo.samples": sum(w for _, w in pooled),
        "montecarlo.walk_rounds_per_s": _rate(walk),
        "montecarlo.walk_rounds": sum(w for _, w in walk),
        "verify.battery_s": _total_s(_durations(spans, "verify.run_battery")),
        "output.csv_rows_per_s": _rate(_durations(spans, "output.write_csv")),
        "output.svg_render_s": _total_s(_durations(spans, "output.render_csv_plot")),
        "config.parse_ms": config_ns / len(cli_self) / 1e6 if cli_self else 0.0,
        "cli.self_s": sum(cli_self) * NS,
    }
