"""Cross-validation of general models against Markovian ones (Sect. 5.1).

The paper validates its general (simulated) models by plugging exponential
distributions — consistent with the rates of the Markovian model — into the
general description, simulating, and checking that the estimates agree with
the analytic Markovian results.  Here the plug-in is a mechanical transform
on the rate-labelled LTS: every generally distributed rate is replaced by
the exponential with the same mean.  The transformed model is then both

* solved analytically (it is now a Markovian model), and
* simulated with the discrete-event engine,

and the per-measure confidence intervals are compared against the analytic
values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Sequence

from ..aemilia.rates import GeneralRate
from ..ctmc.build import build_ctmc
from ..ctmc.chain import CTMC
from ..ctmc.measures import Measure, evaluate_measures
from ..ctmc.steady_state import steady_state_solution
from ..errors import ValidationError
from ..lts.lts import LTS
from ..sim.output import Estimate, replicate


def exponential_plugin(lts: LTS) -> LTS:
    """Replace every general rate by the exponential with the same mean."""
    result = LTS(lts.initial)
    for state in lts.states():
        result.add_state()
        result.set_state_info(state, lts.state_info(state))
    for transition in lts.transitions:
        rate = transition.rate
        if isinstance(rate, GeneralRate):
            rate = rate.exponential_equivalent()
        result.add_transition(
            transition.source,
            transition.label,
            transition.target,
            rate,
            transition.event,
            transition.weight,
        )
    return result


@dataclass
class MeasureValidation:
    """Validation verdict for one measure."""

    name: str
    analytic: float
    simulated: Estimate
    within_interval: bool
    relative_error: float

    #: How the report line names the estimate.
    estimate_kind: ClassVar[str] = "simulated"

    def __str__(self) -> str:
        flag = "OK " if self.within_interval else "FAIL"
        return (
            f"[{flag}] {self.name}: analytic={self.analytic:.6g}, "
            f"{self.estimate_kind}={self.simulated} "
            f"(rel.err {self.relative_error:.2%})"
        )


def judge_measures(
    ctmc: CTMC,
    pi,
    measures: Sequence[Measure],
    estimates,
    relative_tolerance: float,
    verdict: type = MeasureValidation,
) -> Dict[str, MeasureValidation]:
    """One *verdict* per measure: its analytic value under *pi* vs
    ``estimates[name]``.

    A measure validates when the analytic value falls inside the
    estimate's confidence interval *or* within ``relative_tolerance`` of
    its mean (the second clause keeps near-zero measures, whose
    intervals collapse, from failing on noise).
    """
    analytic = evaluate_measures(ctmc, pi, measures)
    report: Dict[str, MeasureValidation] = {}
    for measure in measures:
        value = analytic[measure.name]
        estimate = estimates[measure.name]
        scale = max(abs(value), abs(estimate.mean), 1e-12)
        relative_error = abs(value - estimate.mean) / scale
        within = estimate.overlaps(value) or (
            relative_error <= relative_tolerance
        )
        report[measure.name] = verdict(
            measure.name, value, estimate, within, relative_error
        )
    return report


@dataclass
class ValidationReport:
    """Results of one cross-validation run."""

    measures: Dict[str, MeasureValidation]

    @property
    def passed(self) -> bool:
        """True when every measure's CI covers the analytic value."""
        return all(v.within_interval for v in self.measures.values())

    def __str__(self) -> str:
        header = (
            "cross-validation PASSED"
            if self.passed
            else "cross-validation FAILED"
        )
        lines = [header]
        lines.extend(str(v) for v in self.measures.values())
        return "\n".join(lines)


def cross_validate(
    general_lts: LTS,
    measures: Sequence[Measure],
    run_length: float,
    runs: int = 30,
    warmup: float = 0.0,
    seed: int = 20040628,
    confidence: float = 0.90,
    relative_tolerance: float = 0.10,
    workers: int = 1,
    retry=None,
    faults=None,
) -> ValidationReport:
    """Validate the simulator against the analytic solution (Sect. 5.1).

    Each measure is judged by :func:`judge_measures`.  *retry*/*faults*
    are forwarded to the replication engine (docs/RELIABILITY.md); they
    cannot change the verdict, only survive worker failures while
    reaching it.
    """
    plugin = exponential_plugin(general_lts)
    ctmc = build_ctmc(plugin)
    pi = steady_state_solution(ctmc).pi
    replication = replicate(
        plugin,
        measures,
        run_length,
        runs=runs,
        warmup=warmup,
        seed=seed,
        confidence=confidence,
        workers=workers,
        retry=retry,
        faults=faults,
    )
    return ValidationReport(
        judge_measures(ctmc, pi, measures, replication, relative_tolerance)
    )


def require_valid(report: ValidationReport) -> None:
    """Raise :class:`ValidationError` unless the report passed."""
    if not report.passed:
        raise ValidationError(str(report))
