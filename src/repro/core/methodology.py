"""The incremental assessment methodology (the paper's Fig. 1).

A :class:`ModelFamily` bundles the six models the methodology relates —
functional, Markovian and general descriptions, each with and without the
DPM — together with the high/low action sets and the performance measures.
:class:`IncrementalMethodology` then drives the three phases:

1. :meth:`~IncrementalMethodology.assess_functionality` — noninterference
   check on the functional model (correct-by-construction for the Markovian
   one, which only adds rates);
2. :meth:`~IncrementalMethodology.solve_markovian` /
   :meth:`~IncrementalMethodology.sweep_markovian` — analytic comparison of
   the reward measures with and without DPM while sweeping DPM operation
   rates;
3. :meth:`~IncrementalMethodology.validate` then
   :meth:`~IncrementalMethodology.simulate_general` /
   :meth:`~IncrementalMethodology.sweep_general` — cross-validated
   simulation of the realistic (generally timed) models.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple,
)

from ..aemilia.architecture import ArchiType
from ..aemilia.pretty import print_architecture
from ..aemilia.semantics import generate_lts
from ..ctmc.build import build_ctmc
from ..ctmc.measures import Measure, evaluate_measures
from ..ctmc.parametric import record_parametric_fallback
from ..ctmc.solvers import resolve_method
from ..ctmc.steady_state import steady_state_solution
from ..errors import AnalysisError, ParametricError
from ..lts.lts import LTS
from ..obs import log as obs_log
from ..obs import tracing
from ..runtime import (
    FaultInjector,
    ParametricLTS,
    RetryPolicy,
    StructuralStateSpaceCache,
    contiguous_chunks,
)
from ..distributions import Distribution
from ..sim.output import ReplicationResult, replicate, replicate_paired
from ..sim.splitting import split_replicate
from ..workload.hooks import apply_workload, workload_fingerprint
from .noninterference import NoninterferenceResult, check_noninterference
from .sweep import SweepDriver, SweepSpec
from .validation import ValidationReport, cross_validate

#: The two variants every phase compares.
VARIANTS = ("dpm", "nodpm")

#: Point count from which an ``auto`` Markovian sweep tries the
#: parametric fast path: below it the one-time elimination cost is not
#: amortised and the existing figures keep their bit-identical per-point
#: solves; at or above it (dense grids) the elimination pays for itself
#: many times over.
PARAMETRIC_AUTO_THRESHOLD = 100

_LOG = obs_log.get_logger("methodology")


def _phase_span(name: str):
    """Open a tracing span named *name* around a methodology phase.

    Without a tracer only the span totals see it; with one, the phase
    span is the parent every executor point span (and, through
    :class:`~repro.obs.tracing.TraceContext` propagation, every
    worker-side span) attaches under.  It is opened *before* the sweep
    journal loads so a checkpoint resume can stamp its ``resumed_from``
    attribute onto the phase.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def inner(self, *args, **kwargs):
            with tracing.span(name, case=self.family.name):
                return fn(self, *args, **kwargs)

        return inner

    return wrap


def _columns(
    rows: Sequence[Mapping[str, Any]], names: Sequence[str]
) -> Dict[str, List[Any]]:
    """Transpose per-point result rows into one series per name."""
    return {name: [row[name] for row in rows] for name in names}


def _fold_chunks(fold: Callable[[List[Any]], Any], chunks: List[List[Any]]):
    """*fold* over the point results of input-ordered chunk results."""
    return fold([row for chunk in chunks for row in chunk])


# ---------------------------------------------------------------------------
# Sweep point functions (module-level so the process pool can pickle them
# by reference; the heavy shared payload ships once per worker).
# ---------------------------------------------------------------------------

def _solve_ctmc_point(
    lts: LTS, measures: Sequence[Measure], method: str
) -> Dict[str, object]:
    """The single concrete-solve entry point of every Markovian path.

    One-point solves and the sweep points funnel through here, so the
    build-solve-evaluate contract (and any future interception, like the
    parametric fast path's fallback) lives in exactly one place.  Its
    layers leave one span each: ``ctmc:build``, the solver's ``solve``
    leaf and ``ctmc:measures``.
    """
    with tracing.span("ctmc:build"):
        ctmc = build_ctmc(lts)
    solution = steady_state_solution(ctmc, method=method)
    with tracing.span("ctmc:measures"):
        values = evaluate_measures(ctmc, solution.pi, measures)
    return {"measures": values, "solver": solution.report.as_dict()}


def _replicate_means(
    lts: LTS, measures: Sequence[Measure], **settings: Any
) -> Dict[str, float]:
    """Mean of every measure over one serial replication batch."""
    replication = replicate(lts, measures, **settings)
    return {name: est.mean for name, est in replication.estimates.items()}


def _paired_means(
    lts_dpm: LTS, lts_nodpm: LTS, measures: Sequence[Measure],
    **settings: Any,
) -> Dict[str, Dict[str, float]]:
    """One paired (DPM vs NO-DPM) point: both variants' means, the
    per-measure delta and its paired-t half-width."""
    paired = replicate_paired(lts_dpm, lts_nodpm, measures, **settings)
    return {
        "dpm": {n: e.mean for n, e in paired.first.estimates.items()},
        "nodpm": {n: e.mean for n, e in paired.second.estimates.items()},
        "delta": {n: e.mean for n, e in paired.delta.items()},
        "delta_half_width": {
            n: e.half_width for n, e in paired.delta.items()
        },
    }


def _splitting_estimates(
    lts: LTS, measures: Sequence[Measure], **settings: Any
) -> Dict[str, object]:
    """Rare-event splitting estimate at one point: one splitting tree
    per replication, all on deterministic slot streams."""
    result = split_replicate(lts, measures, **settings)
    rare = result.rare_probability()
    return {
        "measures": {n: e.mean for n, e in result.estimates.items()},
        "rare_probability": rare.mean,
        "rare_low": rare.low,
        "rare_high": rare.high,
    }


def _markov_chunk_parametric(
    solution: Any, chunk: Tuple[float, ...]
) -> List[Dict[str, object]]:
    """Evaluate one worker chunk of sweep points on a prebuilt
    parametric solution.

    One executor task per chunk, as for replications: journals, retries,
    chaos injection and workers-N bit-identity apply per chunk, and
    every point's values are ``==`` to ``solution.evaluate(value)``
    (:meth:`~repro.ctmc.parametric.ParametricSolution.evaluate_many`).
    """
    with tracing.span("parametric:eval", points=len(chunk)):
        series = solution.evaluate_many(chunk)
        columns = [series[name].tolist() for name in solution.measure_names]
        return [
            {
                "measures": dict(zip(solution.measure_names, row)),
                "solver": solution.report_dict(),
            }
            for row in zip(*columns)
        ]


class LtsTask(NamedTuple):
    """Shared payload of every state-space sweep point.

    ``sources`` pairs each architecture with its cached skeleton — set
    when the swept parameter is rate-only, so points relabel it instead
    of re-exploring.  ``evaluate(*ltss, measures, **settings)`` is the
    layer call (solve, ``replicate``, ``replicate_paired`` or
    ``split_replicate``) and ``settings`` are exactly its keyword
    arguments, which the sweep's fingerprint hashes.
    """

    evaluate: Callable[..., Any]
    sources: Tuple[Tuple[ArchiType, Optional[ParametricLTS]], ...]
    max_states: int
    measures: Sequence[Measure]
    settings: Mapping[str, object]
    pattern: Optional[str]
    workloads: Tuple[Optional[Distribution], ...]


def _lts_point(task: LtsTask, item: Tuple) -> Any:
    """One state-space sweep point.

    The item is ``(workload index, one point per source)`` — a bound
    constant environment for a skeleton, an override dict otherwise:
    each source's LTS is relabeled (under a ``relabel`` span when the
    point's environment differs from the skeleton's) or generated,
    rewritten with the workload at the family's hook, and handed to the
    task's layer call.
    The result depends only on ``(task, item)``, which is what makes
    serial and parallel executions bit-identical.  A TraceReplay
    workload's replay cursors are keyed per generator (and dropped on
    pickling), so every point starts clean.
    """
    workload_index, points = item
    workload = task.workloads[workload_index]
    ltss = []
    for (archi, skeleton), point in zip(task.sources, points):
        if skeleton is None:
            lts = generate_lts(archi, point, task.max_states)
        elif point == skeleton.const_env:
            lts = skeleton.lts
        else:
            with tracing.span("relabel"):
                lts = skeleton.relabel(point)
        if workload is not None:
            lts = apply_workload(lts, task.pattern, workload)
        ltss.append(lts)
    return task.evaluate(*ltss, task.measures, **task.settings)


@dataclass
class ModelFamily:
    """The six models of one case study plus analysis metadata."""

    name: str
    functional_dpm: ArchiType
    markovian_dpm: ArchiType
    markovian_nodpm: ArchiType
    general_dpm: ArchiType
    general_nodpm: ArchiType
    high_patterns: Sequence[str]
    low_patterns: Sequence[str]
    measures: Sequence[Measure]
    #: Optional separate functional NO-DPM model; when absent, phase 1
    #: derives it by preventing the high actions (the standard check).
    functional_nodpm: Optional[ArchiType] = None
    #: Label pattern of the case study's workload hook — the timed
    #: transition whose duration a ``--workload`` replaces (e.g. the rpc
    #: client's ``C.process_result_packet``).  ``None`` means the case
    #: study takes no workload.
    workload_pattern: Optional[str] = None

    def measure_names(self) -> List[str]:
        """Names of the declared measures, in order."""
        return [m.name for m in self.measures]


def solve_markovian_architecture(
    archi: ArchiType,
    measures: Sequence[Measure],
    const_overrides: Optional[Mapping[str, object]] = None,
    max_states: int = 200_000,
    method: Optional[str] = None,
) -> Dict[str, float]:
    """Generate, build the CTMC, solve, and evaluate the measures."""
    return _solve_ctmc_point(
        generate_lts(archi, const_overrides, max_states),
        measures,
        resolve_method(method),
    )["measures"]


class IncrementalMethodology(SweepDriver):
    """Drives the paper's three assessment phases over a model family.

    ``workers`` sets the default parallelism of the sweep and replication
    calls (1 = serial; ``None`` auto-detects).  Parallel runs are
    bit-identical to serial ones.  State spaces are cached on two levels:
    a concrete per-override cache (``build_lts`` returns the same object
    for the same request) backed by a :class:`StructuralStateSpaceCache`
    that re-labels rates instead of re-exploring when only rate-valued
    parameters change.  Every sweep is a :class:`~repro.core.sweep.SweepSpec`
    run by the shared :class:`~repro.core.sweep.SweepDriver`.
    """

    def __init__(
        self,
        family: ModelFamily,
        max_states: int = 200_000,
        workers: Optional[int] = 1,
        statespace_cache: Optional[StructuralStateSpaceCache] = None,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        solver: Optional[str] = None,
        workload: Optional[Distribution] = None,
    ):
        super().__init__(workers, retry, faults, solver)
        self.family = family
        self.max_states = max_states
        self.cache = statespace_cache or StructuralStateSpaceCache()
        #: Default workload applied to every general-phase simulation at
        #: the family's workload hook (docs/WORKLOADS.md); the Markovian
        #: and functional phases never see it.
        self.workload = workload
        self._resolve_workload(workload)  # hook presence check
        self._lts_cache: Dict[Tuple, LTS] = {}

    @property
    def case(self) -> str:
        return self.family.name

    def runtime_stats(self) -> Dict[str, object]:
        """The driver's stats plus the state-space cache counters."""
        stats = super().runtime_stats()
        stats["cache"] = self.cache.stats.as_dict()
        return stats

    # -- shared helpers ------------------------------------------------------

    def _variant_archi(self, kind: str, variant: str) -> ArchiType:
        if variant not in VARIANTS:
            raise AnalysisError(
                f"unknown variant {variant!r} (use 'dpm' or 'nodpm')"
            )
        attribute = f"{kind}_{variant}"
        archi = getattr(self.family, attribute, None)
        if archi is None:
            raise AnalysisError(
                f"model family {self.family.name!r} has no {attribute} model"
            )
        return archi

    def build_lts(
        self,
        kind: str,
        variant: str,
        const_overrides: Optional[Mapping[str, object]] = None,
    ) -> LTS:
        """Generate (and cache) the state space of one model variant."""
        key = (
            kind,
            variant,
            tuple(sorted((const_overrides or {}).items())),
        )
        cached = self._lts_cache.get(key)
        if cached is None:
            archi = self._variant_archi(kind, variant)
            cached = self.cache.lts(archi, const_overrides, self.max_states)
            self._lts_cache[key] = cached
        return cached

    def _resolve_workload(
        self, workload: Optional[Distribution]
    ) -> Optional[Distribution]:
        """Per-call workload wins over the constructor default."""
        chosen = workload if workload is not None else self.workload
        if chosen is not None and self.family.workload_pattern is None:
            raise AnalysisError(
                f"model family {self.family.name!r} declares no workload "
                f"hook (workload_pattern); cannot apply workload {chosen}"
            )
        return chosen

    def _apply_workload(
        self, lts: LTS, workload: Optional[Distribution]
    ) -> LTS:
        """Rewrite *lts* with the workload at the family's hook, if any."""
        if workload is None:
            return lts
        return apply_workload(
            lts, self.family.workload_pattern, workload
        )

    # -- sweep specs ---------------------------------------------------------

    def _simulation(
        self,
        run_length: float,
        runs: int,
        warmup: float,
        seed: int,
    ) -> Dict[str, object]:
        """Layer-call settings shared by every general-phase sweep point."""
        return {
            "run_length": run_length,
            "runs": runs,
            "warmup": warmup,
            "seed": seed,
        }

    def _sweep_spec(
        self,
        kind: str,
        phase: str,
        evaluate: Callable[..., Any],
        settings: Mapping[str, object],
        archis: Sequence[ArchiType],
        parameter: str,
        values: Sequence[float],
        const_overrides: Optional[Mapping[str, object]],
        fold: Callable[[List[Any]], Any],
        workloads: Sequence[Optional[Distribution]] = (None,),
        parametric: Any = None,
        workers: Optional[int] = None,
        **attributes: object,
    ) -> SweepSpec:
        """Declare a sweep whose points evaluate the state spaces of
        *archis* through the layer call ``evaluate(*ltss, measures,
        **settings)``.

        The swept *parameter* binds on the first architecture only (the
        paired sweep's NO-DPM baseline has no DPM constants);
        *const_overrides* bind on all.  Every (workload, value) pair is
        one task, workload-major.  A source whose parameter is rate-only
        relabels one cached skeleton per point instead of re-exploring.
        A *parametric* solution replaces the per-point solves by
        evaluations of its rational functions, one task per chunk of the
        *workers* the sweep runs on.  The identity is built from the
        same arguments the points run on.
        """
        base = dict(const_overrides or {})
        identity: Dict[str, object] = {}
        point_count: Optional[int] = None
        if parametric is not None:
            # One task per worker chunk; the journal's indices name
            # chunks, so the chunk sizes are part of the identity.
            chunks = contiguous_chunks(
                len(values), self._executor(workers).workers
            )
            identity["chunks"] = [len(chunk) for chunk in chunks]
            point, shared = _markov_chunk_parametric, parametric
            items: List[Any] = [
                tuple(float(values[i]) for i in chunk) for chunk in chunks
            ]
            fold = functools.partial(_fold_chunks, fold)
            point_count = len(values)
        else:
            sources, points, relabels = [], [], 0
            for archi in archis:
                skeleton = None
                if self.cache.enabled and self.cache.is_rate_only(
                    archi, parameter
                ):
                    skeleton = self.cache.skeleton(
                        archi, base, self.max_states
                    )
                sources.append((archi, skeleton))
            for value in values:
                row = []
                for position, (archi, skeleton) in enumerate(sources):
                    overrides = base
                    if position == 0:
                        overrides = {**base, parameter: value}
                    if skeleton is not None:
                        overrides = archi.bind_constants(overrides)
                        relabels += overrides != skeleton.const_env
                    row.append(overrides)
                points.append(tuple(row))
            self.cache.stats.relabel(relabels * len(workloads))
            point = _lts_point
            shared = LtsTask(
                evaluate, tuple(sources), self.max_states,
                self.family.measures, settings,
                self.family.workload_pattern, tuple(workloads),
            )
            items = [(i, p) for i in range(len(workloads)) for p in points]
            attributes["relabel"] = sources[0][1] is not None
        return SweepSpec(
            kind=kind,
            phase=phase,
            point=point,
            shared=shared,
            items=items,
            fold=fold,
            identity={
                "max_states": self.max_states,
                "parameter": parameter,
                "values": list(values),
                "const_overrides": sorted(base.items()),
                "settings": dict(settings),
                "workloads": [workload_fingerprint(w) for w in workloads],
                **identity,
            },
            models=lambda: [print_architecture(a) for a in archis],
            measures=self.family.measures,
            attributes={
                "parameter": parameter, "points": len(values), **settings,
                **attributes,
            },
            points=point_count,
        )

    # -- phase 1: functional -------------------------------------------------

    @_phase_span("phase:functional")
    def assess_functionality(
        self,
        const_overrides: Optional[Mapping[str, object]] = None,
    ) -> NoninterferenceResult:
        """Noninterference check on the functional model (Sect. 3)."""
        return check_noninterference(
            self.family.functional_dpm,
            self.family.high_patterns,
            self.family.low_patterns,
            const_overrides,
            self.max_states,
        )

    # -- phase 2: Markovian -----------------------------------------------------

    @_phase_span("solve:markovian")
    def solve_markovian(
        self,
        variant: str = "dpm",
        const_overrides: Optional[Mapping[str, object]] = None,
        method: Optional[str] = None,
    ) -> Dict[str, float]:
        """Analytic steady-state measure values for one variant."""
        lts = self.build_lts("markovian", variant, const_overrides)
        result = _solve_ctmc_point(
            lts, self.family.measures, self._solver_method(method)
        )
        self.solver_records.append(result["solver"])
        return result["measures"]

    def _parametric_solution(
        self,
        archi: ArchiType,
        parameter: str,
        values: Sequence[float],
        method: str,
        const_overrides: Optional[Mapping[str, object]],
    ):
        """The parametric fast path's gate: a solution or ``None``.

        Eligible when the caller forced ``method="parametric"``, or when
        an ``auto`` sweep is dense enough
        (:data:`PARAMETRIC_AUTO_THRESHOLD`) to amortise the one-time
        elimination.  Any :class:`~repro.errors.ParametricError` is
        logged, counted (``repro_parametric_fallbacks_total``) and
        swallowed — the sweep then proceeds through the existing
        per-point solvers, where an explicit ``parametric`` request
        resolves along the deterministic fallback chain.
        """
        if method != "parametric" and not (
            method == "auto" and len(values) >= PARAMETRIC_AUTO_THRESHOLD
        ):
            return None
        if not (
            self.cache.enabled and self.cache.is_rate_only(archi, parameter)
        ):
            if method == "parametric":
                record_parametric_fallback("structure")
                _LOG.warning(
                    "parametric sweep requested but %r is a structural "
                    "parameter (or the cache is disabled); using the "
                    "concrete fallback chain per point",
                    parameter,
                )
            return None
        floats = [float(v) for v in values]
        domain = (min(floats), max(floats))
        try:
            return self.cache.parametric_solution(
                archi,
                parameter,
                self.family.measures,
                domain,
                const_overrides,
                self.max_states,
            )
        except ParametricError as error:
            record_parametric_fallback(error.reason)
            level = _LOG.warning if method == "parametric" else _LOG.info
            level(
                "parametric elimination unavailable (%s); sweeping with "
                "per-point solves",
                error,
            )
            return None

    @_phase_span("sweep:markovian")
    def sweep_markovian(
        self,
        parameter: str,
        values: Sequence[float],
        variant: str = "dpm",
        const_overrides: Optional[Mapping[str, object]] = None,
        method: Optional[str] = None,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, List[float]]:
        """Sweep a const parameter; returns series keyed by measure name.

        When *parameter* is rate-only the state space is generated once
        and every point re-labels the cached skeleton; points are then
        distributed over the executor (``workers=None`` uses the
        methodology default).  Parallel results are identical to serial.
        *checkpoint* names a journal file: completed points are replayed
        from it and new completions appended, so an interrupted sweep
        resumes bit-identically (docs/RELIABILITY.md).  Every point's
        solver backend and residual are appended to
        :attr:`solver_records`.

        Dense sweeps (``method="parametric"``, or ``auto`` with
        :data:`PARAMETRIC_AUTO_THRESHOLD` or more points) first try to
        eliminate the chain into per-measure rational functions
        (:mod:`repro.ctmc.parametric`): one symbolic solve, then
        microseconds per point.  The checkpoint fingerprint embeds the
        *resolved* method, so a journal written parametrically refuses
        to resume through per-point solves and vice versa.
        """
        method = self._solver_method(method)
        archi = self._variant_archi("markovian", variant)
        names = self.family.measure_names()

        def fold(results):
            self.solver_records.extend(r["solver"] for r in results)
            return _columns([r["measures"] for r in results], names)

        parametric = self._parametric_solution(
            archi, parameter, values, method, const_overrides
        )
        spec = self._sweep_spec(
            "markovian", "solve", _solve_ctmc_point,
            {"method": method if parametric is None else "parametric"},
            [archi], parameter, values, const_overrides, fold,
            parametric=parametric, workers=workers, variant=variant,
        )
        return self.run_sweep(spec, workers, checkpoint)

    # -- phase 3: general ----------------------------------------------------------

    @_phase_span("validate")
    def validate(
        self,
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 20_000.0,
        runs: int = 30,
        warmup: float = 0.0,
        seed: int = 20040628,
        variant: str = "dpm",
        relative_tolerance: float = 0.10,
        workers: Optional[int] = None,
    ) -> ValidationReport:
        """Cross-validate the general model per Sect. 5.1."""
        lts = self.build_lts("general", variant, const_overrides)
        return cross_validate(
            lts,
            self.family.measures,
            run_length,
            runs=runs,
            warmup=warmup,
            seed=seed,
            relative_tolerance=relative_tolerance,
            workers=self._executor(workers).workers,
            retry=self.retry,
            faults=self.faults,
        )

    @_phase_span("simulate:general")
    def simulate_general(
        self,
        variant: str = "dpm",
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 20_000.0,
        runs: int = 30,
        warmup: float = 0.0,
        seed: int = 20040628,
        confidence: float = 0.90,
        workers: Optional[int] = None,
        workload: Optional[Distribution] = None,
    ) -> ReplicationResult:
        """Estimate the measures on the general model by simulation.

        *workload* (default: the methodology's configured workload, if
        any) replaces the duration at the family's workload hook before
        simulating (docs/WORKLOADS.md).
        """
        lts = self._apply_workload(
            self.build_lts("general", variant, const_overrides),
            self._resolve_workload(workload),
        )
        return replicate(
            lts,
            self.family.measures,
            run_length,
            runs=runs,
            warmup=warmup,
            seed=seed,
            confidence=confidence,
            workers=self._executor(workers).workers,
            retry=self.retry,
            faults=self.faults,
        )

    @_phase_span("sweep:general")
    def sweep_general(
        self,
        parameter: str,
        values: Sequence[float],
        variant: str = "dpm",
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 20_000.0,
        runs: int = 10,
        warmup: float = 0.0,
        seed: int = 20040628,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
        workload: Optional[Distribution] = None,
    ) -> Dict[str, List[float]]:
        """Simulation sweep; returns mean series keyed by measure name.

        Each sweep point is one task (a full serial replication batch),
        so parallel means are bit-identical to the serial sweep.  A
        rate-only parameter reuses one state-space skeleton across all
        points.  *checkpoint* names a journal file enabling bit-identical
        resume after an interruption (docs/RELIABILITY.md).  *workload*
        (default: the methodology's configured workload) replaces the
        family's workload-hook duration at every point; its fingerprint
        is part of the checkpoint identity, so a journal written under
        one workload refuses to resume under another.
        """
        names = self.family.measure_names()
        spec = self._sweep_spec(
            "general", "simulate", _replicate_means,
            self._simulation(run_length, runs, warmup, seed),
            [self._variant_archi("general", variant)], parameter, values,
            const_overrides, lambda results: _columns(results, names),
            workloads=(self._resolve_workload(workload),),
            variant=variant,
        )
        return self.run_sweep(spec, workers, checkpoint)

    @_phase_span("sweep:general-paired")
    def sweep_general_paired(
        self,
        parameter: str,
        values: Sequence[float],
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 20_000.0,
        runs: int = 10,
        warmup: float = 0.0,
        seed: int = 20040628,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
        workload: Optional[Distribution] = None,
        crn: bool = True,
    ) -> Dict[str, Dict[str, List[float]]]:
        """Paired DPM vs NO-DPM sweep with common random numbers.

        Every sweep point simulates *both* general variants — the DPM
        model at the swept parameter value and the NO-DPM baseline —
        under the shared per-event-type stream discipline (``crn=True``,
        the default), so shared event types draw identical durations and
        the per-point delta confidence intervals shrink far below what
        independent replications would give (docs/SIMULATION.md).  The
        swept parameter binds only on the DPM variant; *const_overrides*
        bind on both.  Returns four series groups keyed by measure name:
        ``"dpm"`` and ``"nodpm"`` means, ``"delta"`` (dpm − nodpm mean
        difference) and ``"delta_half_width"`` (paired-t half-widths).
        """
        names = self.family.measure_names()
        spec = self._sweep_spec(
            "general-paired", "simulate", _paired_means,
            {
                **self._simulation(run_length, runs, warmup, seed),
                "crn": crn,
            },
            [
                self._variant_archi("general", "dpm"),
                self._variant_archi("general", "nodpm"),
            ],
            parameter, values, const_overrides,
            lambda results: {
                group: _columns([r[group] for r in results], names)
                for group in ("dpm", "nodpm", "delta", "delta_half_width")
            },
            workloads=(self._resolve_workload(workload),),
        )
        return self.run_sweep(spec, workers, checkpoint)

    @_phase_span("sweep:rare")
    def sweep_rare(
        self,
        parameter: str,
        values: Sequence[float],
        variant: str = "dpm",
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 20_000.0,
        levels: int = 4,
        splits: int = 4,
        segments: int = 32,
        rare_measure: Optional[str] = None,
        runs: int = 10,
        warmup: float = 0.0,
        seed: int = 20040628,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
        workload: Optional[Distribution] = None,
    ) -> Dict[str, List[float]]:
        """Rare-event splitting sweep over the general model.

        Like :meth:`sweep_general` but every point runs the splitting
        estimator, so measures whose per-point probability is far below
        ``1/(runs * run_length)`` still get stable estimates.  Returns
        the measure mean series plus three extra series:
        ``"rare_probability"`` (top-level occupancy product) and
        ``"rare_low"``/``"rare_high"`` (its asymmetric near-zero
        interval bounds).  The splitting configuration — levels, splits,
        segments, and the importance-defining *rare_measure* — is part
        of the checkpoint identity: a journal written under one
        splitting geometry refuses to resume under another, because the
        per-point samples would not be comparable (docs/RELIABILITY.md).
        """
        names = self.family.measure_names()
        spec = self._sweep_spec(
            "rare", "simulate", _splitting_estimates,
            {
                **self._simulation(run_length, runs, warmup, seed),
                "levels": levels,
                "splits": splits,
                "segments": segments,
                "rare_measure": rare_measure,
            },
            [self._variant_archi("general", variant)], parameter, values,
            const_overrides,
            lambda results: {
                **_columns([r["measures"] for r in results], names),
                **_columns(
                    results, ("rare_probability", "rare_low", "rare_high")
                ),
            },
            workloads=(self._resolve_workload(workload),),
            variant=variant,
        )
        return self.run_sweep(spec, workers, checkpoint)

    @_phase_span("sweep:workloads")
    def sweep_workloads(
        self,
        workloads: Mapping[str, Optional[Distribution]],
        parameter: str,
        values: Sequence[float],
        variant: str = "dpm",
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 20_000.0,
        runs: int = 10,
        warmup: float = 0.0,
        seed: int = 20040628,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
    ) -> Dict[str, Dict[str, List[float]]]:
        """Sweep a parameter under several workload classes at once.

        *workloads* maps class names (e.g. ``"poisson"``, ``"mmpp"``,
        ``"pareto"``) to the distribution injected at the family's
        workload hook (``None`` = the specification's own duration).
        Every (class, point) pair is one executor task, so all classes
        progress in parallel; the result maps each class name to the
        same per-measure series :meth:`sweep_general` returns.  The
        checkpoint fingerprint covers every class's workload fingerprint,
        so one journal resumes the whole grid.
        """
        if not workloads:
            raise AnalysisError("sweep_workloads needs at least one class")
        for workload in workloads.values():
            if workload is not None:
                self._resolve_workload(workload)  # hook presence check
        names = self.family.measure_names()
        classes = list(workloads)
        count = len(values)
        spec = self._sweep_spec(
            "workloads", "simulate", _replicate_means,
            self._simulation(run_length, runs, warmup, seed),
            [self._variant_archi("general", variant)], parameter, values,
            const_overrides,
            lambda results: {
                name: _columns(
                    results[position * count:(position + 1) * count], names
                )
                for position, name in enumerate(classes)
            },
            workloads=tuple(workloads.values()),
            variant=variant,
            classes=len(classes),
        )
        return self.run_sweep(spec, workers, checkpoint)

    # -- one-call driver ------------------------------------------------------

    def full_assessment(
        self,
        const_overrides: Optional[Mapping[str, object]] = None,
        run_length: float = 10_000.0,
        runs: int = 8,
        warmup: float = 300.0,
        seed: int = 20040628,
    ) -> "AssessmentReport":
        """Run all three phases at one operating point and bundle the
        results (the whole Fig. 1 workflow in one call)."""
        # Each model only sees the overrides it declares (the functional
        # model typically has no rate parameters).
        def filtered(archi):
            declared = {p.name for p in archi.const_params}
            return {
                k: v
                for k, v in (const_overrides or {}).items()
                if k in declared
            }

        functional = self.assess_functionality(
            filtered(self.family.functional_dpm)
        )
        markovian_dpm: Optional[Dict[str, float]] = None
        markovian_nodpm: Optional[Dict[str, float]] = None
        validation: Optional[ValidationReport] = None
        general_dpm: Optional[ReplicationResult] = None
        general_nodpm: Optional[ReplicationResult] = None
        if functional.holds:
            markovian_dpm = self.solve_markovian("dpm", const_overrides)
            markovian_nodpm = self.solve_markovian("nodpm")
            validation = self.validate(
                const_overrides,
                run_length=run_length,
                runs=runs,
                warmup=warmup,
                seed=seed,
            )
            if validation.passed:
                general_dpm = self.simulate_general(
                    "dpm",
                    const_overrides,
                    run_length,
                    runs=runs,
                    warmup=warmup,
                    seed=seed,
                )
                general_nodpm = self.simulate_general(
                    "nodpm",
                    None,
                    run_length,
                    runs=runs,
                    warmup=warmup,
                    seed=seed,
                )
        return AssessmentReport(
            family_name=self.family.name,
            functional=functional,
            markovian_dpm=markovian_dpm,
            markovian_nodpm=markovian_nodpm,
            validation=validation,
            general_dpm=general_dpm,
            general_nodpm=general_nodpm,
        )


@dataclass
class AssessmentReport:
    """Bundle of all three phases at one DPM operating point.

    The phases short-circuit exactly as the methodology prescribes: a
    failed functional check leaves the performance phases empty (fix the
    DPM first), and a failed validation leaves the general phase empty
    (fix the general model first).
    """

    family_name: str
    functional: "NoninterferenceResult"
    markovian_dpm: Optional[Dict[str, float]]
    markovian_nodpm: Optional[Dict[str, float]]
    validation: Optional["ValidationReport"]
    general_dpm: Optional[ReplicationResult]
    general_nodpm: Optional[ReplicationResult]

    @property
    def completed(self) -> bool:
        """True when every phase ran and passed its gate."""
        return (
            self.functional.holds
            and self.validation is not None
            and self.validation.passed
            and self.general_dpm is not None
        )

    def report(self) -> str:
        """Render the full assessment as plain text."""
        lines = [f"=== incremental DPM assessment: {self.family_name} ==="]
        lines.append("-- phase 1 (functional):")
        lines.append(self.functional.diagnostic())
        if self.markovian_dpm is None:
            lines.append(
                "phases 2-3 skipped: repair the DPM/system first "
                "(use the formula above as the diagnostic)"
            )
            return "\n".join(lines)
        lines.append("-- phase 2 (Markovian steady state):")
        for name, value in self.markovian_dpm.items():
            baseline = self.markovian_nodpm[name]
            lines.append(
                f"  {name}: DPM={value:.6g}  NO-DPM={baseline:.6g}"
            )
        lines.append("-- phase 3a (validation):")
        lines.append(str(self.validation))
        if self.general_dpm is None:
            lines.append(
                "phase 3b skipped: the general model failed validation"
            )
            return "\n".join(lines)
        lines.append("-- phase 3b (general model, simulated):")
        for name, estimate in self.general_dpm.estimates.items():
            baseline = self.general_nodpm[name]
            lines.append(
                f"  {name}: DPM={estimate}  NO-DPM={baseline}"
            )
        return "\n".join(lines)
