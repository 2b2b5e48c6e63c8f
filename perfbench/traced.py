"""The traced per-layer pass of the benchmark.

:func:`run` re-drives one workload's sweep by calling each layer's public
function from here, in the order the methodology calls them, and records
a span around every call.  The recomposed series must equal the sweep's
output bit-for-bit; the spans give each layer's summed seconds, and the
objects the layers return give the work counts.  Spans stay in memory;
the worker writes them once, when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

from repro.ctmc.build import build_ctmc
from repro.ctmc.measures import evaluate_measures
from repro.ctmc.parametric import build_parametric_solution
from repro.ctmc.solvers import resolve_method
from repro.ctmc.steady_state import steady_state_solution
from repro.obs import metrics as obs_metrics
from repro.runtime import StructuralStateSpaceCache
from repro.sim.output import replicate, resolve_engine

from workloads import MAX_STATES, Series, Workload

#: Layer span names; each one's summed seconds is reported as ``<layer>_s``.
LAYERS = (
    "aemilia.generate",
    "runtime.relabel",
    "ctmc.build",
    "ctmc.solve",
    "ctmc.measures",
    "ctmc.parametric_build",
    "ctmc.parametric_eval",
    "sim.replicate",
)


class Spans:
    """In-memory span recorder: one root ``sweep`` span, one child per
    layer call.  All spans of a pass share one trace id."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.records: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attributes):
        index = len(self.records)
        self.records.append({})
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[index] = dict(
                attributes, trace=self.trace_id, id=index, parent=parent,
                name=name, start_s=start, end_s=end,
            )

    def seconds(self, name: str) -> float:
        return sum(
            r["end_s"] - r["start_s"] for r in self.records
            if r["name"] == name
        )

    def calls(self, name: str) -> int:
        return sum(1 for r in self.records if r["name"] == name)


def run(
    workload: Workload, trace_id: str
) -> Tuple[Series, Dict[str, float], Spans]:
    """Recompose *workload*'s sweep; returns its series, the per-layer
    metrics (wall seconds and work counts) and the spans."""
    spans = Spans(trace_id)
    family, archi = workload.family, workload.archi
    series: Series = {name: [] for name in family.measure_names()}
    counts = dict.fromkeys(
        ("states", "transitions", "tangible", "vanishing", "nnz",
         "iterations", "fill_ops", "events"),
        0,
    )
    events = obs_metrics.get_registry()
    events_name = obs_metrics.SIM_EVENTS.name

    def solve(lts, index):
        with spans.span("ctmc.build", point=index):
            ctmc = build_ctmc(lts)
        counts["tangible"] += ctmc.num_states
        counts["vanishing"] += lts.num_states - ctmc.num_states
        with spans.span("ctmc.solve", point=index):
            solution = steady_state_solution(ctmc, method=resolve_method(None))
        counts["nnz"] += solution.report.nnz
        counts["iterations"] += solution.report.iterations
        with spans.span("ctmc.measures", point=index):
            return evaluate_measures(ctmc, solution.pi, family.measures)

    def simulate(lts, index):
        before = events.value(events_name)
        with spans.span("sim.replicate", point=index):
            replication = replicate(
                lts, family.measures, workload.run_length,
                runs=workload.runs, warmup=workload.warmup,
                seed=workload.sim_seed, engine=resolve_engine(None),
            )
        counts["events"] += events.value(events_name) - before
        return {
            name: est.mean for name, est in replication.estimates.items()
        }

    def relabeled(skeleton, value, index):
        env = archi.bind_constants({workload.parameter: value})
        if env == skeleton.const_env:
            return skeleton.lts
        with spans.span("runtime.relabel", point=index):
            return skeleton.relabel(env)

    started = time.perf_counter()
    with spans.span("sweep", workload=workload.name):
        with spans.span("aemilia.generate"):
            skeleton = StructuralStateSpaceCache().skeleton(
                archi, None, MAX_STATES
            )
        counts["states"] = skeleton.lts.num_states
        counts["transitions"] = skeleton.lts.num_transitions
        points: List[Dict[str, float]] = []
        if workload.name == "markov-dense":
            floats = [float(v) for v in workload.values]
            with spans.span("ctmc.parametric_build"):
                solution = build_parametric_solution(
                    archi, skeleton, workload.parameter,
                    family.measures, (min(floats), max(floats)),
                    archi.bind_constants(None),
                )
            counts["fill_ops"] = solution.diagnostics["fill_ops"]
            for index, value in enumerate(floats):
                with spans.span("ctmc.parametric_eval", point=index):
                    points.append(solution.evaluate(value))
        else:
            point = simulate if workload.phase == "general" else solve
            for index, value in enumerate(workload.values):
                points.append(
                    point(relabeled(skeleton, value, index), index)
                )
        for measured in points:
            for name in series:
                series[name].append(measured[name])
    wall = time.perf_counter() - started

    layer_seconds = {layer: spans.seconds(layer) for layer in LAYERS}
    metrics = {f"{layer}_s": layer_seconds[layer] for layer in LAYERS}
    metrics.update({
        "aemilia.generate_calls": spans.calls("aemilia.generate"),
        "aemilia.states": counts["states"],
        "aemilia.transitions": counts["transitions"],
        "runtime.relabel_calls": spans.calls("runtime.relabel"),
        "ctmc.tangible_states": counts["tangible"],
        "ctmc.vanishing_states": counts["vanishing"],
        "ctmc.nnz": counts["nnz"],
        "ctmc.solve_iterations": counts["iterations"],
        "ctmc.measures_calls": spans.calls("ctmc.measures"),
        "ctmc.parametric_fill_ops": counts["fill_ops"],
        "sim.events": int(counts["events"]),
        "unattributed_s": wall - sum(layer_seconds.values()),
        "traced_wall_s": wall,
    })
    return series, metrics, spans
