"""Discrete-event simulation of generally-timed models (Sect. 5 phase)."""

from ..distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Normal,
    Uniform,
    Weibull,
    make_distribution,
)
from .batch_means import BatchMeansResult, batch_means
from .engine import SimulationResult, Simulator, simulate
from .estimators import log_scale_interval, wilson_interval
from .output import (
    Estimate,
    PairedReplicationResult,
    RareEstimate,
    ReplicationResult,
    replicate,
    replicate_paired,
    resolve_engine,
    summarize,
    summarize_rare,
)
from .random import (
    event_generator,
    event_stream_key,
    generator_for_run,
    make_generator,
    splitting_event_generator,
)
from .splitting import (
    RESAMPLE_STREAM,
    ImportanceFunction,
    SplittingResult,
    reward_importance,
    split_replicate,
    tabulate_importance,
)
from .streams import (
    EventStreamAllocator,
    RunStreams,
    independent_allocator,
    normalize_stream_index,
    paired_allocators,
)
from .trace import EventTraceRecorder, TraceEntry

__all__ = [
    "Deterministic",
    "Distribution",
    "Erlang",
    "Exponential",
    "Normal",
    "Uniform",
    "Weibull",
    "make_distribution",
    "BatchMeansResult",
    "batch_means",
    "SimulationResult",
    "Simulator",
    "simulate",
    "log_scale_interval",
    "wilson_interval",
    "Estimate",
    "PairedReplicationResult",
    "RareEstimate",
    "ReplicationResult",
    "replicate",
    "replicate_paired",
    "resolve_engine",
    "summarize",
    "summarize_rare",
    "event_generator",
    "event_stream_key",
    "generator_for_run",
    "make_generator",
    "splitting_event_generator",
    "RESAMPLE_STREAM",
    "ImportanceFunction",
    "SplittingResult",
    "reward_importance",
    "split_replicate",
    "tabulate_importance",
    "EventStreamAllocator",
    "RunStreams",
    "independent_allocator",
    "normalize_stream_index",
    "paired_allocators",
    "EventTraceRecorder",
    "TraceEntry",
]
