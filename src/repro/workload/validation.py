"""Trace cross-validation: closing the loop on the paper's Sect. 5.1.

The paper validates general models by plugging in exponential
distributions and checking the simulation against the analytic Markovian
solution (:func:`repro.core.validation.cross_validate`).  The workload
subsystem adds one more link to that chain: **generate** an exponential
trace, **replay** it through the general-phase simulator at the case
study's workload hook, and check that the batch-means estimates still
reproduce the analytic measures.  If they do, every stage — generator,
trace container, replay distribution, LTS rewrite, engine clock carry —
is jointly validated against ground truth, and non-Markovian traces can
be trusted to measure what they claim.

The verdict per measure is ``cross_validate``'s
(:func:`~repro.core.validation.judge_measures`): the analytic value must
fall inside the batch-means confidence interval *or* within a relative
tolerance of the mean.  Bootstrap replay of an exponential trace is
i.i.d. sampling of an empirical exponential distribution, so for traces
of a few thousand events the discretisation error is far below the
confidence half-widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from ..core.validation import (
    MeasureValidation,
    exponential_plugin,
    judge_measures,
)
from ..ctmc.build import build_ctmc
from ..ctmc.measures import Measure
from ..ctmc.steady_state import steady_state_solution
from ..errors import ValidationError
from ..lts.lts import LTS
from ..sim.batch_means import batch_means
from .generators import PoissonGenerator
from .hooks import apply_workload
from .replay import TraceReplay

__all__ = [
    "ReplayMeasureValidation",
    "ReplayValidationReport",
    "cross_validate_replay",
    "require_replay_valid",
]


class ReplayMeasureValidation(MeasureValidation):
    """Verdict for one measure of a replay cross-validation."""

    estimate_kind = "replayed"


@dataclass
class ReplayValidationReport:
    """Results of one trace cross-validation run."""

    hook: str
    trace_fingerprint: str
    trace_events: int
    measures: Dict[str, ReplayMeasureValidation]

    @property
    def passed(self) -> bool:
        return all(v.within_interval for v in self.measures.values())

    def __str__(self) -> str:
        header = (
            f"replay cross-validation "
            f"{'PASSED' if self.passed else 'FAILED'} "
            f"(hook {self.hook}, trace {self.trace_fingerprint[:12]}, "
            f"{self.trace_events} events)"
        )
        lines = [header]
        lines.extend(str(v) for v in self.measures.values())
        return "\n".join(lines)


def cross_validate_replay(
    general_lts: LTS,
    hook: str,
    hook_rate: float,
    measures: Sequence[Measure],
    batch_length: float,
    batches: int = 20,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    relative_tolerance: float = 0.10,
    trace_events: int = 4000,
) -> ReplayValidationReport:
    """Validate trace replay against the analytic Markovian solution.

    *general_lts* is first made fully Markovian with
    :func:`~repro.core.validation.exponential_plugin` (so the analytic
    side is well defined), then the *hook* transition's exponential
    duration (rate *hook_rate*) is replaced by a bootstrap
    :class:`TraceReplay` of a **generated exponential trace with the
    same rate** (``PoissonGenerator(hook_rate)``, *trace_events* events,
    derived from *seed*).  Batch means on the replayed model must
    reproduce the analytic measures of the untouched Markovian model.
    """
    markovian = exponential_plugin(general_lts)
    ctmc = build_ctmc(markovian)
    pi = steady_state_solution(ctmc).pi

    trace = PoissonGenerator(hook_rate).generate(trace_events, seed)
    replay = TraceReplay(trace, "bootstrap")
    replayed_lts = apply_workload(markovian, hook, replay)

    result = batch_means(
        replayed_lts,
        measures,
        batch_length,
        batches=batches,
        warmup=warmup,
        seed=seed,
        confidence=confidence,
    )

    report = judge_measures(
        ctmc, pi, measures, result, relative_tolerance,
        verdict=ReplayMeasureValidation,
    )
    return ReplayValidationReport(
        hook, trace.fingerprint, len(trace), report
    )


def require_replay_valid(report: ReplayValidationReport) -> None:
    """Raise :class:`ValidationError` unless the report passed."""
    if not report.passed:
        raise ValidationError(str(report))
