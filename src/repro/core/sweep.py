"""One sweep driver: every parameter sweep is a declarative :class:`SweepSpec`.

The paper's assessment is a set of parameter sweeps — DPM rates through
the Markovian models (phase 2) and through the general models (phase 3),
plus the fleet extension.  Each sweep entry point
(:meth:`~repro.core.methodology.IncrementalMethodology.sweep_markovian`,
``sweep_general``, ``sweep_general_paired``, ``sweep_rare``,
``sweep_workloads`` and :meth:`repro.fleet.FleetAssessment.sweep`) only
*declares* its sweep: the point function, its shared payload and items,
the labels, a fold from point results to the returned series, and the
identity fields.  :meth:`SweepDriver.run_sweep` owns everything the
sweeps have in common — the executor and its resilience kwargs, the log
line and span attributes, the timer span, the checkpoint journal, the
``repro_sweep_points_total`` counter and the fold.

The spec's content hash **is** the checkpoint fingerprint
(:meth:`SweepSpec.fingerprint`): the identity fields, the printed
content of every model the points use, the measure definitions and
:data:`PIPELINE_VERSION`.  A journal written for a different model,
measure or pipeline is refused with
:class:`~repro.errors.CheckpointError` instead of replaying stale points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..ctmc.solvers import resolve_method
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics
from ..obs import tracing
from ..runtime import (
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    SweepCheckpoint,
    Timer,
    TraceRecorder,
    resolve_workers,
    sweep_fingerprint,
)

#: Version of the point pipeline, hashed into every sweep fingerprint.
#: Bump it whenever a change may alter any point's numeric result
#: (generation, CTMC build, solvers, measures, simulation streams), so
#: journals written by the old code refuse to resume.
PIPELINE_VERSION = 1

_LOG = obs_log.get_logger("sweep")


def summarize_solver_records(
    records: Sequence[Mapping[str, object]],
) -> Dict[str, object]:
    """Aggregate per-point solver reports into one runtime-stats entry.

    ``backends`` counts how many points each backend solved, and the
    residual/mass-defect maxima bound the numerical quality of the whole
    sweep: the acceptance contract is ``max_residual < 1e-8``.
    """
    backends: Dict[str, int] = {}
    for record in records:
        name = str(record.get("method", "?"))
        backends[name] = backends.get(name, 0) + 1
    return {
        "points": len(records),
        "backends": backends,
        "max_residual": max(
            (float(r.get("residual", 0.0)) for r in records), default=0.0
        ),
        "max_mass_defect": max(
            (float(r.get("mass_defect", 0.0)) for r in records),
            default=0.0,
        ),
        "total_iterations": sum(
            int(r.get("iterations", 0)) for r in records
        ),
    }


@dataclass(frozen=True)
class SweepSpec:
    """One sweep, declared.

    ``point(shared, item)`` runs once per item on the executor (it must
    be a module-level function so the process pool can pickle it), and
    ``fold`` turns the input-ordered point results into the returned
    series.  ``kind`` labels the fingerprint and
    ``repro_sweep_points_total``; ``phase`` names the executor phase and
    the timer span; ``attributes`` go to the log line and the enclosing
    tracing span.

    ``identity`` holds the plain-data fields that, with ``models()`` (the
    printed content of every model the points use — called only when a
    journal is opened) and ``measures``, determine every point result.
    """

    kind: str
    phase: str
    point: Callable[[Any, Any], Any]
    shared: Any
    items: Sequence[Any]
    fold: Callable[[List[Any]], Any]
    identity: Mapping[str, object]
    models: Callable[[], Sequence[str]]
    measures: Sequence[object]
    attributes: Mapping[str, object] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Content hash of the sweep: its checkpoint identity.

        Measures hash by ``repr`` — their printed form rounds reward
        values to six digits, which would let an edited reward resume.
        """
        return sweep_fingerprint(
            pipeline=PIPELINE_VERSION,
            kind=self.kind,
            models=list(self.models()),
            measures=[repr(measure) for measure in self.measures],
            **self.identity,
        )


class SweepDriver:
    """Sweep plumbing shared by every assessment front end.

    Holds the parallelism, the reliability layer (retry policy, fault
    injector, trace recorder), the default solver and the phase timer,
    and runs :class:`SweepSpec` declarations through one code path.
    """

    #: Case label of ``repro_sweep_points_total`` and the sweep log line.
    case: str

    def __init__(
        self,
        workers: Optional[int] = 1,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[TraceRecorder] = None,
        solver: Optional[str] = None,
    ):
        self.workers = resolve_workers(workers)
        self.retry = retry
        self.faults = faults
        self.tracer = tracer
        #: Default steady-state backend for every Markovian solve
        #: (``None`` resolves through ``$REPRO_SOLVER`` to ``auto``).
        self.solver = solver
        self.timer = Timer()
        #: Per-point solver reports of every Markovian solve so far,
        #: in execution order (see runtime_stats()["solver"]).
        self.solver_records: List[Dict[str, object]] = []

    def _solver_method(self, method: Optional[str]) -> str:
        """Resolve a per-call method request against the default chain.

        Explicit *method* wins over the driver's ``solver`` which wins
        over ``$REPRO_SOLVER`` which defaults to ``auto``; the resolved
        name is what sweep fingerprints and workers see.
        """
        return resolve_method(method if method is not None else self.solver)

    def _executor(self, workers: Optional[int]) -> ParallelExecutor:
        return ParallelExecutor(self.workers if workers is None else workers)

    def _resilience(
        self, checkpoint: Optional[SweepCheckpoint], phase: str
    ) -> Dict[str, object]:
        """Executor kwargs engaging the fault-tolerant path when needed.

        With no retry policy, fault injector, tracer or checkpoint
        configured this returns ``{}`` and sweeps use the zero-overhead
        fast path, exactly as before the reliability layer existed.
        """
        if (
            self.retry is None
            and self.faults is None
            and self.tracer is None
            and checkpoint is None
        ):
            return {}
        if self.tracer is None:
            # Lazily attach an in-memory recorder so retry/checkpoint
            # counters always reach runtime_stats().
            self.tracer = TraceRecorder()
        return {
            "retry": self.retry,
            "faults": self.faults,
            "tracer": self.tracer,
            "checkpoint": checkpoint,
            "phase": phase,
        }

    def runtime_stats(self) -> Dict[str, object]:
        """Workers, per-phase wall-clock and solver summary so far.

        When the reliability layer is engaged (retry/faults/trace/
        checkpoint) the snapshot also carries retry and checkpoint-hit
        counters plus the aggregated trace.
        """
        stats: Dict[str, object] = {
            "workers": self.workers,
            "timings": self.timer.as_dict(),
        }
        if self.solver_records:
            stats["solver"] = summarize_solver_records(self.solver_records)
        if self.tracer is not None:
            stats["retries"] = self.tracer.retries
            stats["checkpoint_hits"] = self.tracer.checkpoint_hits
            stats["trace"] = self.tracer.summary()
        return stats

    def run_sweep(
        self,
        spec: SweepSpec,
        workers: Optional[int] = None,
        checkpoint: Optional[str] = None,
    ) -> Any:
        """Run *spec* and return its folded series.

        *workers* (default: the driver's) never changes a result digit.
        *checkpoint* names a journal file keyed by
        :meth:`SweepSpec.fingerprint`: completed points are replayed from
        it and new completions appended, so an interrupted sweep resumes
        bit-identically (docs/RELIABILITY.md).
        """
        executor = self._executor(workers)
        _LOG.info(
            "%s sweep: %s, %d tasks, workers=%d (%s)",
            spec.kind, self.case, len(spec.items), executor.workers,
            ", ".join(f"{k}={v}" for k, v in spec.attributes.items()),
        )
        tracing.add_attributes(**spec.attributes)
        journal = (
            SweepCheckpoint(checkpoint, spec.fingerprint())
            if checkpoint is not None
            else None
        )
        resilience = self._resilience(journal, spec.phase)
        try:
            with self.timer.span(spec.phase):
                results = executor.map(
                    spec.point, spec.items, spec.shared, **resilience
                )
        finally:
            if journal is not None:
                journal.close()
        registry = obs_metrics.get_registry()
        if registry.enabled and results:
            obs_metrics.SWEEP_POINTS.on(registry).labels(
                case=self.case, kind=spec.kind
            ).inc(len(results))
        return spec.fold(results)
