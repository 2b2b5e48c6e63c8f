"""Injecting workloads into case-study models.

:func:`apply_workload` is the bridge between the workload subsystem and
the general phase: it rewrites a rate-labelled LTS so that every timed
transition whose label matches a *pattern* (the case study's **workload
hook** — ``C.process_result_packet`` for the rpc client's processing
time, ``S.produce_frame`` for the streaming frame-arrival process) draws
its duration from a caller-supplied
:class:`~repro.distributions.Distribution` instead of the one written in
the specification.  The transform re-rates the matched positions
(:meth:`repro.lts.lts.LTS.rerated`), exactly like
:func:`repro.core.validation.exponential_plugin`, and composes with it:
``apply_workload(exponential_plugin(lts), ...)`` yields a model that is
Markovian everywhere except the workload hook — the configuration the
trade-off figures sweep.

Label patterns use the standard matching rules of
:func:`repro.lts.labels.matches` (exact label, ``#``-participant, or
``Inst.*`` wildcard).

:func:`parse_workload` turns the CLI's ``--workload`` argument into a
distribution: either a compact closed-form spec
(:func:`~repro.distributions.parse_distribution_spec`, e.g.
``pareto:1.5,3.23``) or a trace replay ``trace:PATH[:MODE]`` referencing
a trace file on disk.

:func:`workload_fingerprint` gives the stable identity string folded
into sweep-checkpoint fingerprints: closed-form distributions are
identified by their spec text, trace replays by mode plus the trace's
content fingerprint — so a resumed sweep refuses a journal written under
a different workload.
"""

from __future__ import annotations

from typing import Optional

from ..aemilia.rates import ExpRate, GeneralRate
from ..distributions import Distribution, parse_distribution_spec
from ..errors import SpecificationError, WorkloadError
from ..lts.labels import matches
from ..lts.lts import LTS
from .replay import REPLAY_MODES, TraceReplay
from .trace import read_trace

__all__ = [
    "apply_workload",
    "parse_workload",
    "workload_fingerprint",
]


def apply_workload(
    lts: LTS, pattern: str, distribution: Distribution
) -> LTS:
    """Rewrite timed transitions matching *pattern* to draw *distribution*.

    Matching transitions must carry an active timed rate (exponential or
    general); passive and immediate transitions matching the pattern are
    an error — a workload replaces a duration, not a synchronisation
    priority.  Raises :class:`WorkloadError` if nothing matches (the
    hook name is wrong, not the workload).  The result is a re-rated
    copy (:meth:`~repro.lts.lts.LTS.rerated`).
    """
    columns = lts.columns
    hooked = [matches(pattern, label) for label in columns.labels]
    rates = list(columns.rates)
    positions = []
    for p, rate in enumerate(rates):
        if rate is None or not hooked[columns.label_ids[p]]:
            continue
        if not isinstance(rate, (ExpRate, GeneralRate)):
            raise WorkloadError(
                f"workload hook {pattern!r} matched transition "
                f"{lts.transitions[p]} whose rate {rate} is not an active "
                f"timed rate"
            )
        positions.append(p)
    if not positions:
        raise WorkloadError(
            f"workload hook pattern {pattern!r} matched no timed "
            f"transition in the model"
        )
    hook = GeneralRate(distribution)
    for p in positions:
        rates[p] = hook
    return lts.rerated(positions, rates)


def parse_workload(text: str) -> Distribution:
    """Parse a ``--workload`` argument into a distribution.

    Two forms::

        <keyword>:<arg>,...        closed-form, e.g. exp:0.103
        trace:<path>[:<mode>]      replay a trace file (mode defaults
                                   to bootstrap)
    """
    if not isinstance(text, str) or not text.strip():
        raise WorkloadError(
            "empty workload spec; expected 'keyword:args' "
            "(e.g. 'pareto:1.5,3.23') or 'trace:PATH[:MODE]'"
        )
    text = text.strip()
    if text.startswith("trace:"):
        remainder = text[len("trace:"):]
        path, _, mode = remainder.rpartition(":")
        if path and mode in REPLAY_MODES:
            return TraceReplay(read_trace(path), mode)
        if not remainder:
            raise WorkloadError(
                f"workload spec {text!r} is missing the trace path "
                f"(expected 'trace:PATH[:MODE]')"
            )
        return TraceReplay(read_trace(remainder), "bootstrap")
    try:
        return parse_distribution_spec(text)
    except SpecificationError as error:
        raise WorkloadError(str(error)) from None


def workload_fingerprint(distribution: Optional[Distribution]) -> str:
    """Stable identity of a workload for checkpoint fingerprints."""
    if distribution is None:
        return "none"
    if isinstance(distribution, TraceReplay):
        return (
            f"replay:{distribution.mode}:{distribution.trace.fingerprint}"
        )
    return str(distribution)
