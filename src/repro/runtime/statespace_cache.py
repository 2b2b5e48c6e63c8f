"""Structural state-space caching for parameter sweeps.

Every figure of the paper sweeps a DPM operation parameter (shutdown
timeout, awake period) that appears **only in rate expressions** of the
architectural description.  Varying such a parameter cannot change which
states are reachable, which transitions exist, how synchronisations branch
or which immediate actions preempt — only the numeric rates on the
transitions.  The state space is therefore *structurally invariant* across
the sweep and should be derived once, not once per point (the fast
parametric model checking observation).

:func:`structural_params` classifies an architecture's ``const`` parameters:
a parameter is **structural** when it (or a constant whose default derives
from it) is read by a guard, a data argument, a passive/immediate
priority or weight, an instance argument or a formal default.  Everything
else is **rate-only**.

:class:`StructuralStateSpaceCache` keys generated skeletons by a content
fingerprint of the architecture *modulo rate values* — the pretty-printed
description (rate *expressions* included, their numeric values excluded)
plus the values of the structural parameters.  A cache hit replays the
recorded rate provenance under the new constant environment
(:class:`~repro.aemilia.semantics.RateProvenance`), which is bit-identical
to a fresh generation.  The replay is by affected positions: once per
skeleton and set of changed constants :meth:`ParametricLTS.readers` finds
the transitions whose rate reads them, and each point evaluates only
those into a copy of the skeleton's rate column; every other column is
shared (:meth:`~repro.lts.lts.LTS.rerated`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from ..aemilia.architecture import ArchiType, const_roots
from ..aemilia.ast import (
    ActionPrefix,
    Behavior,
    Choice,
    Guarded,
    ProcessCall,
    Stop,
)
from ..aemilia.expressions import Value
from ..aemilia.pretty import print_architecture
from ..aemilia.rates import (
    ExpSpec,
    GeneralSpec,
    ImmediateSpec,
    PassiveSpec,
)
from ..aemilia.semantics import (
    RateProvenance,
    StateSpaceGenerator,
    apply_branch_fraction,
)
from ..errors import SemanticsError
from ..lts.lts import LTS
from ..obs import metrics as obs_metrics
from ..obs import tracing


# ---------------------------------------------------------------------------
# Parameter classification.
# ---------------------------------------------------------------------------

def _collect_structural_names(term: Behavior, out: set) -> None:
    """Gather every variable name whose value shapes the state space."""
    if isinstance(term, Stop):
        return
    if isinstance(term, ActionPrefix):
        spec = term.rate
        if isinstance(spec, (PassiveSpec, ImmediateSpec)):
            # Passive weights drive branch probabilities; immediate
            # priorities drive preemption: both are structural.
            out |= spec.priority.free_variables()
            out |= spec.weight.free_variables()
        elif not isinstance(spec, (ExpSpec, GeneralSpec)):
            # Unknown rate kind: assume everything it reads is structural.
            out |= spec.free_variables()
        _collect_structural_names(term.continuation, out)
        return
    if isinstance(term, Choice):
        for alternative in term.alternatives:
            _collect_structural_names(alternative, out)
        return
    if isinstance(term, Guarded):
        out |= term.condition.free_variables()
        _collect_structural_names(term.behavior, out)
        return
    if isinstance(term, ProcessCall):
        for arg in term.args:
            out |= arg.free_variables()
        return
    raise SemanticsError(f"unknown behaviour node {term!r}")


def structural_params(archi: ArchiType) -> frozenset:
    """Const parameters whose value can change the state-space *structure*.

    The complement — the rate-only parameters — can be swept on a cached
    skeleton by relabeling rates.
    """
    const_names = frozenset(p.name for p in archi.const_params)
    roots = const_roots(archi)
    names: set = set()
    for elem_type in archi.elem_types.values():
        for definition in elem_type.definitions:
            for formal in definition.formals:
                if formal.default is not None:
                    names |= formal.default.free_variables()
            _collect_structural_names(definition.body, names)
    for instance in archi.instances:
        for arg in instance.args:
            names |= arg.free_variables()
    structural: frozenset = frozenset()
    # Formals may shadow a const name; treating every use as a const use
    # anyway only errs toward less caching, never toward wrong reuse.
    for name in names & const_names:
        structural |= roots[name]
    return structural


# ---------------------------------------------------------------------------
# Parametric skeletons.
# ---------------------------------------------------------------------------

class RateReaders(NamedTuple):
    """The transitions of a skeleton whose rate reads some constant of
    one changed set, grouped by the ``(spec, local env)`` they evaluate:
    per group, its provenance and ``(position, fraction)`` pairs."""

    positions: Tuple[int, ...]
    groups: Tuple[Tuple[RateProvenance, Tuple[Tuple[int, object], ...]], ...]


@dataclass
class ParametricLTS:
    """A generated state space plus per-transition rate provenance.

    ``relabel`` replays the provenance under a new constant environment:
    states, labels, events, branch weights and targets are reused verbatim;
    only rates whose spec reads a changed constant are re-evaluated.
    ``structural`` names the constants whose change would alter the
    structure itself (:func:`structural_params`); relabeling refuses them.
    """

    lts: LTS
    provenance: List[Optional[RateProvenance]]
    const_env: Dict[str, Value]
    structural: frozenset
    #: Per set of changed constants, the transitions reading them.
    _readers: Dict[frozenset, RateReaders] = field(
        default_factory=dict, repr=False, compare=False
    )

    def readers(self, changed: frozenset) -> RateReaders:
        """The positions whose provenance reads a constant of *changed*
        (computed once per skeleton and set of constants)."""
        readers = self._readers.get(changed)
        if readers is None:
            groups: Dict[tuple, tuple] = {}
            positions = []
            for position, prov in enumerate(self.provenance):
                if prov is None or changed.isdisjoint(prov.free_consts):
                    continue
                positions.append(position)
                key = (id(prov.spec), prov.env)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = (prov, [])
                group[1].append((position, prov.fraction))
            readers = self._readers[changed] = RateReaders(
                tuple(positions),
                tuple((prov, tuple(pairs)) for prov, pairs in groups.values()),
            )
        return readers

    def relabel(self, const_env: Mapping[str, Value]) -> LTS:
        """State space under *const_env*, bit-identical to regeneration.

        Only the positions whose rate reads a changed constant
        (:meth:`readers`) are evaluated, each distinct ``(spec, local
        env)`` once; the result shares every column of the skeleton but
        a copied rate column (:meth:`~repro.lts.lts.LTS.rerated`).
        """
        changed = frozenset(
            name
            for name in set(self.const_env) | set(const_env)
            if self.const_env.get(name) != const_env.get(name)
        )
        if not changed:
            return self.lts
        if not changed.isdisjoint(self.structural):
            raise SemanticsError(
                f"cannot relabel: structural constant(s) "
                f"{', '.join(sorted(changed & self.structural))} changed; "
                f"the state space must be regenerated"
            )
        readers = self.readers(changed)
        rates = list(self.lts.columns.rates)
        for prov, pairs in readers.groups:
            env = dict(const_env)
            env.update(prov.env)
            base = prov.spec.evaluate(env)
            for position, fraction in pairs:
                rates[position] = apply_branch_fraction(base, fraction)
        return self.lts.rerated(readers.positions, rates)


def generate_parametric(
    archi: ArchiType,
    const_overrides: Optional[Mapping[str, Value]] = None,
    max_states: int = 200_000,
    apply_preemption: bool = True,
) -> ParametricLTS:
    """Generate a state space recording rate provenance for relabeling."""
    generator = StateSpaceGenerator(
        archi,
        const_overrides,
        max_states,
        apply_preemption,
        record_provenance=True,
    )
    lts = generator.generate()
    return ParametricLTS(
        lts,
        generator.provenance,
        dict(generator.const_env),
        structural_params(archi),
    )


# ---------------------------------------------------------------------------
# The cache.
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    """Effectiveness counters of one structural cache.

    The ``hit``/``miss``/``relabel`` methods are the instrumented way to
    count: they mirror each event onto the ``repro_cache_events_total``
    metric (docs/OBSERVABILITY.md) besides bumping the local counter.
    """

    hits: int = 0
    misses: int = 0
    relabels: int = 0
    parametric_hits: int = 0
    parametric_builds: int = 0

    def _emit(self, kind: str, count: int = 1) -> None:
        registry = obs_metrics.get_registry()
        if registry.enabled:
            obs_metrics.CACHE_EVENTS.on(registry).labels(kind=kind).inc(
                count
            )

    def hit(self) -> None:
        self.hits += 1
        self._emit("hit")

    def miss(self) -> None:
        self.misses += 1
        self._emit("miss")

    def relabel(self, count: int = 1) -> None:
        if count:
            self.relabels += count
            self._emit("relabel", count)

    def parametric_hit(self) -> None:
        self.parametric_hits += 1
        self._emit("parametric_hit")

    def parametric_build(self) -> None:
        self.parametric_builds += 1
        self._emit("parametric_build")

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "relabels": self.relabels,
            "parametric_hits": self.parametric_hits,
            "parametric_builds": self.parametric_builds,
        }


class StructuralStateSpaceCache:
    """Cache of state-space skeletons keyed modulo rate values.

    ``enabled=False`` turns the cache into a pass-through that regenerates
    every request (the ablation baseline); counters keep ticking either
    way so benchmarks can report effectiveness.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.stats = CacheStats()
        self._skeletons: Dict[tuple, ParametricLTS] = {}
        #: Parametric (rational-function) solutions, keyed by skeleton
        #: key + sweep definition (see :meth:`parametric_solution`).
        self._parametric: Dict[tuple, object] = {}
        # id-keyed memos hold a reference to the archi so ids stay valid.
        self._structural: Dict[int, Tuple[ArchiType, frozenset]] = {}
        self._fingerprints: Dict[int, Tuple[ArchiType, str]] = {}

    # -- per-architecture memos -------------------------------------------

    def structural_params(self, archi: ArchiType) -> frozenset:
        """Memoised :func:`structural_params`."""
        cached = self._structural.get(id(archi))
        if cached is None or cached[0] is not archi:
            cached = (archi, structural_params(archi))
            self._structural[id(archi)] = cached
        return cached[1]

    def fingerprint(self, archi: ArchiType) -> str:
        """Content hash of the architecture modulo rate values."""
        cached = self._fingerprints.get(id(archi))
        if cached is None or cached[0] is not archi:
            digest = hashlib.sha256(
                print_architecture(archi).encode()
            ).hexdigest()
            cached = (archi, digest)
            self._fingerprints[id(archi)] = cached
        return cached[1]

    def is_rate_only(self, archi: ArchiType, parameter: str) -> bool:
        """True when sweeping *parameter* cannot change the structure."""
        return parameter not in self.structural_params(archi)

    # -- lookups -----------------------------------------------------------

    def _key(
        self,
        archi: ArchiType,
        env: Mapping[str, Value],
        max_states: int,
    ) -> tuple:
        structural = self.structural_params(archi)
        signature = tuple(
            (name, env[name]) for name in sorted(structural)
        )
        return (self.fingerprint(archi), max_states, signature)

    def skeleton(
        self,
        archi: ArchiType,
        const_overrides: Optional[Mapping[str, Value]] = None,
        max_states: int = 200_000,
    ) -> ParametricLTS:
        """Get (or generate and cache) the skeleton for this structure."""
        env = archi.bind_constants(const_overrides)
        key = self._key(archi, env, max_states)
        skeleton = self._skeletons.get(key) if self.enabled else None
        if skeleton is None:
            self.stats.miss()
            with tracing.span("statespace"):
                skeleton = generate_parametric(
                    archi, const_overrides, max_states
                )
            if self.enabled:
                self._skeletons[key] = skeleton
        else:
            self.stats.hit()
        return skeleton

    def lts(
        self,
        archi: ArchiType,
        const_overrides: Optional[Mapping[str, Value]] = None,
        max_states: int = 200_000,
    ) -> LTS:
        """Concrete state space under *const_overrides*, cache-aware."""
        env = archi.bind_constants(const_overrides)
        skeleton = self.skeleton(archi, const_overrides, max_states)
        if env == skeleton.const_env:
            return skeleton.lts
        self.stats.relabel()
        with tracing.span("relabel"):
            return skeleton.relabel(env)

    def parametric_solution(
        self,
        archi: ArchiType,
        parameter: str,
        measures,
        domain: Tuple[float, float],
        const_overrides: Optional[Mapping[str, Value]] = None,
        max_states: int = 200_000,
    ):
        """Get (or build and cache) the rational-function solution of a
        rate-only sweep over *parameter* on *domain*.

        The key covers the skeleton identity, the swept parameter and
        domain, the measures (their printed form is content-complete)
        and every *other* constant's bound value — the swept parameter's
        own base value is irrelevant, since the solution treats it
        symbolically.  Raises
        :class:`~repro.errors.ParametricError` when the chain cannot be
        eliminated; callers fall back to per-point solves.
        """
        from ..ctmc.parametric import build_parametric_solution

        env = archi.bind_constants(const_overrides)
        skeleton = self.skeleton(archi, const_overrides, max_states)
        key = (
            self._key(archi, env, max_states),
            parameter,
            tuple(str(m) for m in measures),
            (float(domain[0]), float(domain[1])),
            tuple(
                (name, env[name])
                for name in sorted(env)
                if name != parameter
            ),
        )
        solution = self._parametric.get(key) if self.enabled else None
        if solution is None:
            self.stats.parametric_build()
            with tracing.span("parametric"):
                solution = build_parametric_solution(
                    archi, skeleton, parameter, measures, domain, env
                )
            if self.enabled:
                self._parametric[key] = solution
        else:
            self.stats.parametric_hit()
        return solution

    def clear(self) -> None:
        """Drop all cached skeletons and reset the counters."""
        self._skeletons.clear()
        self._parametric.clear()
        self._structural.clear()
        self._fingerprints.clear()
        self.stats = CacheStats()
