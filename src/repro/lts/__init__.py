"""Labelled transition systems and behavioural equivalences."""

from .bisimulation import (
    PartitionResult,
    minimize,
    strong_bisimulation,
    strongly_bisimilar,
)
from .distinguish import distinguishing_formula, verify_distinguishing
from .hml import And, DiamondWeak, Formula, Not, Top, conjunction
from .labels import TAU, local_label, matches, matches_any, sync_label
from .lts import LTS, LTSColumns, Transition, build_lts
from .ops import disjoint_union, hide, relabel, restrict
from .reachability import reachable_states, restrict_to_reachable
from .weak import (
    WeakBisimulationResult,
    WeakEquivalenceCheck,
    WeakStructure,
    check_weak_equivalence,
    weak_bisimulation,
)

__all__ = [
    "PartitionResult",
    "minimize",
    "strong_bisimulation",
    "strongly_bisimilar",
    "distinguishing_formula",
    "verify_distinguishing",
    "And",
    "DiamondWeak",
    "Formula",
    "Not",
    "Top",
    "conjunction",
    "TAU",
    "local_label",
    "matches",
    "matches_any",
    "sync_label",
    "LTS",
    "LTSColumns",
    "Transition",
    "build_lts",
    "disjoint_union",
    "hide",
    "relabel",
    "restrict",
    "reachable_states",
    "restrict_to_reachable",
    "WeakBisimulationResult",
    "WeakEquivalenceCheck",
    "WeakStructure",
    "check_weak_equivalence",
    "weak_bisimulation",
]
