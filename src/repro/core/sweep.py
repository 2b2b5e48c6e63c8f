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
line and span attributes, the checkpoint journal, the
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
    ``repro_sweep_points_total``; ``phase`` labels the executor's point
    and attempt spans; ``attributes`` go to the log line and the
    enclosing tracing span.

    ``identity`` holds the plain-data fields that, with ``models()`` (the
    printed content of every model the points use — called only when a
    journal is opened) and ``measures``, determine every point result.
    ``points`` is the number of sweep points the items compute, when an
    item computes a chunk of them rather than one.
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
    points: Optional[int] = None

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

    Holds the parallelism, the reliability layer (retry policy and
    fault injector) and the default solver, and runs :class:`SweepSpec`
    declarations through one code path.  Its runtime stats are the span
    totals (:func:`repro.obs.tracing.totals`) of this process since the
    driver was created.
    """

    #: Case label of ``repro_sweep_points_total`` and the sweep log line.
    case: str

    def __init__(
        self,
        workers: Optional[int] = 1,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        solver: Optional[str] = None,
    ):
        self.workers = resolve_workers(workers)
        self.retry = retry
        self.faults = faults
        #: Default steady-state backend for every Markovian solve
        #: (``None`` resolves through ``$REPRO_SOLVER`` to ``auto``).
        self.solver = solver
        self._spans_before = tracing.totals()
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

    def runtime_stats(self) -> Dict[str, object]:
        """Workers, per-span wall-clock, counters and solver summary.

        ``timings`` maps every span name closed in this process or its
        pool workers since the driver was created to its seconds and
        count; ``retries`` and
        ``checkpoint_hits`` count the executor's ``retry`` attempts and
        journal-answered points, and ``trace`` holds every status count.
        """
        spans = tracing.totals().since(self._spans_before)
        stats: Dict[str, object] = {
            "workers": self.workers,
            "timings": spans.timings(),
            "retries": spans.count(tracing.STATUS_RETRY),
            "checkpoint_hits": spans.count(tracing.STATUS_CHECKPOINT_HIT),
            "trace": {"statuses": dict(sorted(spans.statuses.items()))},
        }
        if self.solver_records:
            stats["solver"] = summarize_solver_records(self.solver_records)
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
        try:
            results = executor.map(
                spec.point, spec.items, spec.shared, retry=self.retry,
                faults=self.faults, checkpoint=journal, phase=spec.phase,
            )
        finally:
            if journal is not None:
                journal.close()
        registry = obs_metrics.get_registry()
        if registry.enabled and results:
            obs_metrics.SWEEP_POINTS.on(registry).labels(
                case=self.case, kind=spec.kind
            ).inc(len(results) if spec.points is None else spec.points)
        return spec.fold(results)
