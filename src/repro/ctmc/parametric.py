"""Parametric steady-state evaluation: solve once, evaluate per point.

Every figure of the paper sweeps a DPM rate parameter (shutdown timeout,
awake period) and re-derives steady-state measures.  The chain *structure*
is invariant across such a sweep (see
:mod:`repro.runtime.statespace_cache`), so instead of paying a full CTMC
solve per point, this module computes each measure **once as a rational
function of the swept parameter** and then evaluates sweep points by
plugging in scalars — microseconds per point — following the fast
parametric model checking approach (arXiv:2208.12723).

Pipeline (:func:`build_parametric_solution`):

1. **Atoms** — transitions whose recorded
   :class:`~repro.aemilia.semantics.RateProvenance` reads the swept
   parameter (directly or through a derived constant) are *parametric*;
   each distinct ``(spec, local env)`` pair becomes one exact
   :class:`~repro.ctmc.ratfunc.RationalFunction` atom ``R(p)`` (e.g.
   ``exp(1/p)`` -> ``1/p``).  Non-rational expressions (``floor``,
   comparisons, ...) raise :class:`~repro.errors.ParametricError`.
2. **Node ring** — instead of eliminating states over symbolic rational
   functions (whose exact coefficients swell catastrophically), every
   rate is represented by its *values at Chebyshev nodes* spanning the
   sweep domain: a numpy vector.  Elementwise vector arithmetic is a
   commutative ring, so one elimination pass computes all nodes at once.
3. **GTH elimination** — states of the recurrent class are eliminated in
   Markowitz min-fill order by the Grassmann-Taksar-Heyman update
   ``q_ij += q_ik * q_kj / S_k``, which is subtraction-free and hence
   numerically benign; back-substitution recovers the (unnormalised)
   steady-state vector at every node.  Fill-in and size budgets abort
   oversized eliminations with a recoverable :class:`ParametricError`.
4. **Reconstruction** — each measure's per-node values are fitted by the
   AAA algorithm into a barycentric rational
   (:func:`~repro.ctmc.ratfunc.aaa_fit`); non-support nodes double as
   holdout validation, and a spectral pole check rejects fits with
   spurious poles inside the sweep domain.

The resulting :class:`ParametricSolution` is picklable (it ships to
sweep worker processes) and evaluates all measures at one parameter
value in microseconds.  Callers treat every :class:`ParametricError` as
"fall back to :mod:`repro.ctmc.solvers`".
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..aemilia.architecture import const_roots
from ..aemilia.expressions import (
    BinaryOp,
    Expr,
    Literal,
    UnaryOp,
    Variable,
)
from ..aemilia.rates import ExpSpec
from ..errors import ParametricError
from ..obs import metrics as obs_metrics
from ..obs import tracing
from .build import elimination_plan
from .measures import Measure, RewardTable
from .ratfunc import BarycentricRational, RationalFunction, aaa_fit

@dataclass(frozen=True)
class ParametricOptions:
    """Budgets and tolerances of the parametric pipeline.

    The defaults are sized for the case-study chains (48 and 891
    recurrent states); anything beyond the budgets falls back to the
    concrete solvers rather than risking a slow or inaccurate
    elimination.
    """

    #: Chebyshev-Lobatto sample nodes spanning the sweep domain.
    nodes: int = 129
    #: AAA support budget — the degree guard of the reconstruction.
    max_support: int = 40
    #: Relative fit tolerance validated on the non-support nodes.
    fit_tolerance: float = 1e-11
    #: Largest recurrent class the elimination will attempt.
    max_states: int = 4_000
    #: Fill-in budget: total GTH update operations across the run.
    max_fill_ops: int = 2_000_000
    #: Degree budget for one rate atom's exact rational function.
    atom_degree_limit: int = 8

    def __post_init__(self):
        if self.nodes < 8:
            raise ParametricError(
                "parametric solving needs at least 8 sample nodes"
            )


# ---------------------------------------------------------------------------
# Symbolic layer: rate expressions -> exact rational atoms.
# ---------------------------------------------------------------------------


def dependent_consts(archi, parameter: str) -> frozenset:
    """Constants whose value changes when *parameter* changes: those
    :func:`~repro.aemilia.architecture.const_roots` traces back to it."""
    return frozenset(
        name
        for name, roots in const_roots(archi).items()
        if parameter in roots and name != parameter
    )


class _AtomBuilder:
    """Converts rate expressions into rational functions of the parameter."""

    def __init__(
        self,
        parameter: str,
        const_env: Mapping[str, object],
        defaults: Mapping[str, Expr],
        dependent: frozenset,
        degree_limit: int,
    ):
        self.parameter = parameter
        self.const_env = const_env
        self.defaults = defaults
        self.dependent = dependent
        self.degree_limit = degree_limit
        self._derived: Dict[str, RationalFunction] = {}

    def convert(
        self, expr: Expr, local_env: Mapping[str, object]
    ) -> RationalFunction:
        rational = self._convert(expr, local_env)
        if rational.degree > self.degree_limit:
            raise ParametricError(
                f"rate expression degree {rational.degree} exceeds the "
                f"atom budget {self.degree_limit}",
                reason="budget",
            )
        return rational

    def _constant(self, value: object) -> RationalFunction:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParametricError(
                f"non-numeric value {value!r} in a rate expression",
                reason="unsupported",
            )
        return RationalFunction.constant(Fraction(value))

    def _convert(
        self, expr: Expr, local_env: Mapping[str, object]
    ) -> RationalFunction:
        if isinstance(expr, Literal):
            return self._constant(expr.value)
        if isinstance(expr, Variable):
            name = expr.name
            if name in local_env:
                # Local data bindings shadow constants (and the
                # parameter itself, in which case the transition is
                # simply not parametric through this occurrence).
                return self._constant(local_env[name])
            if name == self.parameter:
                return RationalFunction.x()
            if name in self.dependent:
                derived = self._derived.get(name)
                if derived is None:
                    derived = self._convert(self.defaults[name], {})
                    self._derived[name] = derived
                return derived
            if name in self.const_env:
                return self._constant(self.const_env[name])
            raise ParametricError(
                f"unbound name {name!r} in a rate expression",
                reason="unsupported",
            )
        if isinstance(expr, UnaryOp) and expr.op == "-":
            return -self._convert(expr.operand, local_env)
        if isinstance(expr, BinaryOp) and expr.op in {"+", "-", "*", "/"}:
            left = self._convert(expr.left, local_env)
            right = self._convert(expr.right, local_env)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right.num.is_zero:
                raise ParametricError(
                    "division by zero in a rate expression",
                    reason="unsupported",
                )
            return left / right
        raise ParametricError(
            f"rate expression {expr} is not rational in "
            f"{self.parameter!r} (only +, -, *, / are)",
            reason="unsupported",
        )


# ---------------------------------------------------------------------------
# The parametric solution object.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParametricSolution:
    """All steady-state measures of one chain as functions of a parameter.

    Produced once per (skeleton, parameter, domain) by
    :func:`build_parametric_solution`; evaluation at a sweep point costs
    one barycentric evaluation per measure.  Frozen and built from plain
    arrays/dicts, so it pickles to worker processes unchanged.
    """

    parameter: str
    domain: Tuple[float, float]
    measure_names: Tuple[str, ...]
    fits: Dict[str, BarycentricRational]
    fit_errors: Dict[str, float]
    #: Mirrors the SolverReport fields of a concrete solve.
    size: int
    nnz: int
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def max_fit_error(self) -> float:
        return max(self.fit_errors.values(), default=0.0)

    def _check_domain(self, value: float) -> None:
        low, high = self.domain
        slack = 1e-9 * max(high - low, abs(high), 1.0)
        if not (low - slack <= value <= high + slack):
            raise ParametricError(
                f"sweep value {value} lies outside the fitted domain "
                f"[{low}, {high}]; rebuild the parametric solution",
                reason="fit",
            )

    def evaluate(self, value: float) -> Dict[str, float]:
        """All measures at one parameter value (microseconds)."""
        self._check_domain(float(value))
        out = {
            name: float(self.fits[name](float(value)))
            for name in self.measure_names
        }
        _record_evaluation(1)
        return out

    def evaluate_many(
        self, values: Sequence[float]
    ) -> Dict[str, np.ndarray]:
        """All measures over a grid at once: element ``i`` of each is
        ``==`` to ``evaluate(values[i])[name]``, and the first value
        outside the domain raises the error :meth:`evaluate` raises."""
        points = [float(value) for value in values]
        for value in points:
            self._check_domain(value)
        out = {
            name: self.fits[name](np.array(points, float))
            for name in self.measure_names
        }
        _record_evaluation(len(points))
        return out

    def report_dict(self) -> Dict[str, object]:
        """Per-point solver record, shaped like ``SolverReport.as_dict``.

        ``residual`` carries the validated relative fit error — the
        quantity bounding how far a parametric point can drift from a
        concrete solve — so the sweep-level ``max_residual < 1e-8``
        acceptance contract keeps guarding parametric sweeps too.
        """
        return {
            "method": "parametric",
            "size": self.size,
            "nnz": self.nnz,
            "iterations": 0,
            "residual": self.max_fit_error,
            "mass_defect": 0.0,
            "fallbacks": [],
        }


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def _record_elimination(status: str, seconds: float) -> None:
    tracing.record_span(
        "parametric:build", seconds,
        status="ok" if status == "built" else "error",
        outcome=status,
    )
    registry = obs_metrics.get_registry()
    if not registry.enabled:
        return
    obs_metrics.PARAMETRIC_ELIMINATIONS.on(registry).labels(
        status=status
    ).inc()


def _record_evaluation(points: int) -> None:
    registry = obs_metrics.get_registry()
    if points > 0 and registry.enabled:
        obs_metrics.PARAMETRIC_EVALUATIONS.on(registry).inc(points)


def record_parametric_fallback(reason: str) -> None:
    """Count one fall-back from the parametric path (docs/OBSERVABILITY.md)."""
    tracing.add_event("parametric:fallback", reason=reason)
    registry = obs_metrics.get_registry()
    if registry.enabled:
        obs_metrics.PARAMETRIC_FALLBACKS.on(registry).labels(
            reason=reason
        ).inc()


# ---------------------------------------------------------------------------
# Capture: LTS + provenance -> recurrent-class contributions.
# ---------------------------------------------------------------------------


class _EntryStore:
    """The off-diagonal generator over the node ring, one row per entry.

    Entry ``e`` is the node vector ``values[e]``.  ``out_edges[s]`` maps
    each target of state ``s`` to its entry id in insertion order, and
    ``in_edges[s]`` holds the states with an entry into ``s``.  Rows
    ``used`` and beyond are unwritten capacity.
    """

    def __init__(self, size: int, node_count: int, capacity: int):
        self.values = np.empty((capacity, node_count))
        self.out_edges: List[Dict[int, int]] = [{} for _ in range(size)]
        self.in_edges: List[set] = [set() for _ in range(size)]
        self.used = 0

    def add(self, source: int, target: int) -> int:
        """A new entry ``source -> target``; its row is unwritten."""
        entry = self.take()
        self.out_edges[source][target] = entry
        self.in_edges[target].add(source)
        return entry

    def take(self) -> int:
        """A fresh entry id; :meth:`reserve` makes room for its row."""
        self.used += 1
        return self.used - 1

    def reserve(self) -> np.ndarray:
        """The values, grown (doubling) to hold every taken entry."""
        capacity = self.values.shape[0]
        if self.used > capacity:
            grown = np.empty(
                (max(self.used, 2 * capacity), self.values.shape[1])
            )
            grown[:capacity] = self.values
            self.values = grown
        return self.values


@dataclass
class _Capture:
    """The recurrent class's atoms and rewards over the node ring (its
    generator is the :class:`_EntryStore` captured alongside)."""

    recurrent: List[int]                      # CTMC state ids, sorted
    atom_values: np.ndarray                   # (atoms, nodes)
    #: per-measure constant reward per position: state rewards plus
    #: constant-rate transition rewards (self-loops included).
    const_rewards: Dict[str, np.ndarray]
    #: per-measure parametric transition rewards:
    #: measure -> list of (position, atom, coefficient).
    param_rewards: Dict[str, List[Tuple[int, int, float]]]
    nnz: int
    parametric_transitions: int


def _capture_chain(
    lts,
    provenance,
    atom_builder: _AtomBuilder,
    dependent: frozenset,
    parameter: str,
    measures: Sequence[Measure],
    nodes: np.ndarray,
    options: ParametricOptions,
) -> Tuple[_EntryStore, _Capture]:
    """Replay :func:`~repro.ctmc.build.build_ctmc`'s construction with
    symbolic parametric rates; returns the generator entries over the
    node ring and the rest of the chain.

    Every CTMC-level transition contribution is split into a constant
    float part and a sum of ``coefficient * atom(p)`` parts.  Vanishing
    states are resolved by the LTS's shared
    :class:`~repro.ctmc.build.EliminationPlan` (their weights are
    structural, so the resolution is parameter-independent).
    """
    watched = dependent | {parameter}
    plan = elimination_plan(lts)
    rates = lts.columns.rates

    # The recurrent class is structural: the plan's pattern caches it.
    bsccs = plan.pattern.bsccs
    if len(bsccs) != 1:
        raise ParametricError(
            f"chain has {len(bsccs)} bottom strongly connected "
            f"components; parametric solving needs exactly one",
            reason="structure",
        )
    recurrent = sorted(bsccs[0])
    if len(recurrent) > options.max_states:
        raise ParametricError(
            f"recurrent class has {len(recurrent)} states, above the "
            f"parametric elimination budget {options.max_states}",
            reason="budget",
        )
    # Atom table: one exact rational function per distinct (spec, env).
    atom_index: Dict[tuple, int] = {}
    atom_functions: List[RationalFunction] = []

    def atom_for(prov) -> int:
        key = (id(prov.spec), prov.env)
        cached = atom_index.get(key)
        if cached is not None:
            return cached
        if not isinstance(prov.spec, ExpSpec):
            raise ParametricError(
                f"parametric transition has non-exponential rate spec "
                f"{prov.spec}; only exp(...) rates can be swept "
                f"symbolically",
                reason="unsupported",
            )
        rational = atom_builder.convert(
            prov.spec.rate, dict(prov.env)
        )
        atom_index[key] = len(atom_functions)
        atom_functions.append(rational)
        return atom_index[key]

    table = RewardTable(measures)
    size = len(recurrent)

    # The plan's contributions out of the recurrent class, in order;
    # each transition's contributions are adjacent (one run per read).
    sources = plan.pattern.sources[plan.entries]
    position_of = np.full(plan.pattern.num_states, -1, np.intp)
    position_of[recurrent] = np.arange(size)
    chosen = np.flatnonzero(position_of[sources] >= 0)
    reads = plan.reads[chosen]
    starts = np.flatnonzero(np.diff(reads, prepend=-1))
    # Per run, its rate: a constant, or multiplier * atom(p) when it
    # reads the swept parameter.
    run_constant = np.zeros(starts.size)
    run_multiplier = np.zeros(starts.size)
    run_atom = np.full(starts.size, -1, np.intp)
    for run, position in enumerate(plan.walk[reads[starts]].tolist()):
        prov = provenance[position]
        if prov is not None and not watched.isdisjoint(prov.free_consts):
            run_atom[run] = atom_for(prov)
            run_multiplier[run] = (
                prov.fraction if prov.fraction is not None else 1.0
            )
        else:
            run_constant[run] = rates[position].rate
    parametric_transitions = int(np.count_nonzero(run_atom >= 0))
    run_of = np.repeat(
        np.arange(starts.size), np.diff(np.append(starts, reads.size))
    )
    probabilities = plan.probabilities[chosen]
    constants = run_constant[run_of] * probabilities
    coefficients = run_multiplier[run_of] * probabilities
    atoms = run_atom[run_of]
    parametric = atoms >= 0
    source_positions = position_of[sources[chosen]]
    target_positions = position_of[plan.targets[chosen]]

    # Every sum below is np.bincount's: in contribution order, from 0.0,
    # as the per-contribution accumulation into dicts added.
    def sums(keys: np.ndarray, weights: np.ndarray):
        """(distinct keys ascending, the sum of each one's weights)."""
        distinct, inverse = np.unique(keys, return_inverse=True)
        return distinct, np.bincount(inverse, weights, distinct.size)

    # Transition rewards per rewarded measure, from the few dozen
    # distinct label-count maps the contributions share.
    rewarded = [
        (j, m.name)
        for j, m in enumerate(table.measures)
        if m.has_trans_clauses()
    ]
    count_ids, count_index = np.unique(
        plan.count_ids[chosen], return_inverse=True
    )
    reward_rows = []
    for count_id in count_ids.tolist():
        impulses = [
            (count, table.impulses(label))
            for label, count in plan.count_maps[count_id].items()
        ]
        reward_rows.append([
            sum(count * row[j] for count, row in impulses)
            for j, _ in rewarded
        ])
    reward_matrix = np.array(reward_rows, float).reshape(
        count_ids.size, len(rewarded)
    )
    atom_count = max(1, len(atom_functions))
    const_trans: Dict[str, np.ndarray] = {}
    param_rewards: Dict[str, List[Tuple[int, int, float]]] = {
        m.name: [] for m in measures
    }
    for column, (_, name) in enumerate(rewarded):
        reward = reward_matrix[count_index, column]
        touched = reward != 0.0
        plain = touched & ~parametric
        const_trans[name] = np.bincount(
            source_positions[plain], constants[plain] * reward[plain], size
        )
        swept = touched & parametric
        keys, totals = sums(
            source_positions[swept] * atom_count + atoms[swept],
            coefficients[swept] * reward[swept],
        )
        param_rewards[name] = [
            (*divmod(key, atom_count), total)
            for key, total in zip(keys.tolist(), totals.tolist())
        ]

    # Generator entries: one per distinct off-diagonal (source, target)
    # (self-loops never enter the generator), in (source, target) order.
    off = np.flatnonzero(source_positions != target_positions)
    pair_keys, pair_index = np.unique(
        source_positions[off] * size + target_positions[off],
        return_inverse=True,
    )
    nnz = pair_keys.size
    plain = ~parametric[off]
    entry_constants = np.bincount(
        pair_index[plain], constants[off][plain], nnz
    )
    swept = ~plain
    entry_atoms, entry_coefficients = sums(
        pair_index[swept] * atom_count + atoms[off][swept],
        coefficients[off][swept],
    )

    # Evaluate the atoms on the node grid and validate they stay
    # positive, finite rates over the whole sweep domain (a pole or
    # sign change inside the domain would make some point's chain
    # ill-defined).
    dense = np.linspace(nodes[0], nodes[-1], 1025)
    atom_values = np.empty((len(atom_functions), nodes.size))
    for index, rational in enumerate(atom_functions):
        dense_values = rational.evaluate_nodes(dense)
        if not np.all(np.isfinite(dense_values)) or np.any(
            dense_values <= 0.0
        ):
            raise ParametricError(
                "a parametric rate atom is non-positive or has a pole "
                "inside the sweep domain",
                reason="structure",
            )
        atom_values[index] = rational.evaluate_nodes(nodes)

    # Materialise the node-ring generator entries.  The capacity leaves
    # room for the elimination's fill-in (the streaming chain's 3,362
    # entries peak at 11,843 rows).
    entries = _EntryStore(size, nodes.size, 4 * nnz)
    for source_position, target_position in map(
        divmod, pair_keys.tolist(), repeat(size)
    ):
        entries.add(source_position, target_position)
    values = entries.reserve()
    values[:nnz] = entry_constants[:, None]
    for key, coefficient in zip(
        entry_atoms.tolist(), entry_coefficients.tolist()
    ):
        entry, atom = divmod(key, atom_count)
        values[entry] += coefficient * atom_values[atom]

    # Constant reward per position: state rewards (enabled labels are
    # structural) plus the accumulated constant-rate transition rewards.
    const_rewards: Dict[str, np.ndarray] = {}
    for j, m in enumerate(table.measures):
        rewards = const_trans.get(m.name, np.zeros(size))
        if m.has_state_clauses():
            rewards = rewards + [
                table.state_rewards(plan.enabled[state])[j]
                for state in recurrent
            ]
        const_rewards[m.name] = rewards

    return entries, _Capture(
        recurrent=recurrent,
        atom_values=atom_values,
        const_rewards=const_rewards,
        param_rewards=param_rewards,
        nnz=nnz,
        parametric_transitions=parametric_transitions,
    )


# ---------------------------------------------------------------------------
# GTH elimination over the node ring.
# ---------------------------------------------------------------------------

#: Most (source, target) products one gather/scatter forms (a source
#: with more targets goes alone): it bounds the temporaries of a large
#: pivot to about that many node vectors each.
_FILL_BLOCK_ROWS = 128


def _eliminate(
    entries: _EntryStore, options: ParametricOptions
) -> Tuple[np.ndarray, int]:
    """GTH state elimination; returns (x matrix, fill ops used).

    ``x[i]`` is the unnormalised steady-state weight vector of position
    ``i`` over the sample nodes.  Elimination order is Markowitz
    min-fill (in-degree x out-degree product, smallest index as the
    deterministic tie-break), kept in a heap with lazy deletion; every
    update is the subtraction-free GTH rule, so no cancellation can
    occur at any node.

    Most of a case study's entries have the same value at every node.
    Such an entry is carried as a Python float (``scalar[e]``; its row
    of *entries* is unused) until a node-varying product lands on it.
    A pivot ``k`` whose exit rates are all scalars forms the products
    ``q_ik / S_k * q_kj`` of its scalar sources in plain floats.  Its
    other products are one gather/scatter over the rows: formed at
    once, at most :data:`_FILL_BLOCK_ROWS` at a time, and added onto
    their destination rows by one gather, add and scatter, with fresh
    fill rows zeroed (``0.0 + p == p``: no product is ``-0.0``) and the
    diagonal products sent to a trash row.  Every element sees
    the same IEEE divide, multiply and add as a per-pair update over
    node vectors, so ``x`` is bit-identical to one
    (``tests/test_parametric_elimination.py``).  The rows of a pivot's
    out-entries are reused for fill; its in-entries stay in place for
    the back-substitution.
    """
    out_edges = entries.out_edges
    in_edges = entries.in_edges
    size = len(out_edges)
    node_count = entries.values.shape[1]
    trash = entries.take()
    values = entries.reserve()
    scalar: List[Optional[float]] = [None] * entries.used
    free: List[int] = []
    # One node carries nothing: numpy sums a single column of exit
    # rates pairwise, where the scalar path adds them in row order.
    # Sweeps sample at least 8 nodes; one node occurs only in the
    # differential tests.
    if node_count > 1:
        bits = values[:trash].view(np.int64)
        for entry in np.flatnonzero((bits[:, 1:] == bits[:, :1]).all(1)):
            scalar[entry] = float(values[entry, 0])

    def widen(ids: List[int]) -> None:
        """Write the scalar entries *ids* out as rows."""
        if ids:
            values[ids] = np.array([scalar[e] for e in ids])[:, None]
            for e in ids:
                scalar[e] = None

    def new_entry(i: int, j: int) -> int:
        """A fill entry ``i -> j``: a freed row, else a fresh one with
        room made for its row."""
        nonlocal values
        if free:
            entry = free.pop()
        else:
            entry = entries.take()
            scalar.append(None)
            values = entries.reserve()
        out_edges[i][j] = entry
        in_edges[j].add(i)
        return entry

    keys = [len(in_edges[s]) * len(out_edges[s]) for s in range(size)]
    heap = [(key, s) for s, key in enumerate(keys)]
    heapq.heapify(heap)
    steps: List[Tuple[int, object, List[int], List[int]]] = []
    ops = 0
    while len(steps) < size - 1:
        key, k = heapq.heappop(heap)
        if keys[k] != key:
            continue  # stale, or already eliminated (key -1)
        keys[k] = -1
        outs = out_edges[k]
        sources = in_edges[k]
        out_edges[k] = in_edges[k] = None
        outs.pop(k, None)
        sources.discard(k)
        if not outs:
            raise ParametricError(
                "a recurrent state lost all outgoing rates during "
                "elimination (inconsistent chain)",
                reason="structure",
            )
        targets = list(outs)
        out_ids = list(outs.values())
        sources = sorted(sources)
        in_ids = [out_edges[i].pop(k) for i in sources]
        width = len(targets)
        ops += len(sources) * width - sum(map(outs.__contains__, sources))
        if ops > options.max_fill_ops:
            raise ParametricError(
                f"GTH fill-in exceeded the budget of "
                f"{options.max_fill_ops} update operations",
                reason="budget",
            )
        column = [scalar[e] for e in out_ids]
        if None in column:
            widen([e for e in out_ids if scalar[e] is not None])
            widen([e for e in in_ids if scalar[e] is not None])
            q_out = values.take(out_ids, 0)
            exit_total = np.add.reduce(q_out)
            vector_sources, vector_ids = sources, in_ids
        else:
            # Scalar exit rates: summed in row order, as the reduction
            # over node vectors adds each node.
            exit_total = column[0]
            for rate in column[1:]:
                exit_total += rate
            q_out = np.array(column)[:, None]
            vector_sources, vector_ids = [], []
            for i, entry in zip(sources, in_ids):
                q_ik = scalar[entry]
                if q_ik is None:
                    vector_sources.append(i)
                    vector_ids.append(entry)
                    continue
                factor = q_ik / exit_total
                row = out_edges[i]
                onto_rows: List[int] = []
                onto: List[float] = []
                for j, q_kj, entry in zip(
                    targets, column, map(row.get, targets)
                ):
                    if entry is None:
                        if j != i:  # the diagonal stays implicit in GTH
                            scalar[new_entry(i, j)] = factor * q_kj
                        continue
                    value = scalar[entry]
                    if value is None:
                        onto_rows.append(entry)
                        onto.append(factor * q_kj)
                    else:
                        scalar[entry] = value + factor * q_kj
                if onto_rows:
                    values[onto_rows] += np.array(onto)[:, None]
        free.extend(out_ids)
        block = max(1, _FILL_BLOCK_ROWS // width)
        for start in range(0, len(vector_sources), block):
            dest: List[int] = []
            fresh: List[int] = []
            for i in vector_sources[start:start + block]:
                row = out_edges[i]
                found = list(map(row.get, targets))
                if i in outs:
                    # The diagonal stays implicit in GTH.
                    found[targets.index(i)] = trash
                if None in found:
                    for index, entry in enumerate(found):
                        if entry is None:
                            entry = new_entry(i, targets[index])
                            found[index] = entry
                            fresh.append(entry)
                dest += found
            if fresh:
                values[fresh] = 0.0
                for entry in fresh:
                    scalar[entry] = None
            widen([e for e in dest if scalar[e] is not None])
            dest = np.array(dest, np.intp)
            products = (
                values.take(vector_ids[start:start + block], 0) / exit_total
            )[:, None] * q_out
            total = values.take(dest, 0)
            total += products.reshape(-1, node_count)
            values[dest] = total
        for j in targets:
            in_edges[j].discard(k)
        for s in (*sources, *targets):
            key = len(in_edges[s]) * len(out_edges[s])
            if keys[s] != key:
                keys[s] = key
                heapq.heappush(heap, (key, s))
        steps.append((k, exit_total, sources, in_ids))
    x = np.zeros((size, node_count))
    if size:
        x[keys.index(max(keys))] = 1.0  # the one state never eliminated
    widen([e for *_, in_ids in steps for e in in_ids if scalar[e] is not None])
    # The back-substitution adds in source order, as a per-source loop
    # does: a reduction over the rows of several nodes adds them one
    # after another, but numpy sums a single column pairwise.
    if node_count > 1:
        row_sum = np.add.reduce
    else:
        def row_sum(rows: np.ndarray) -> np.ndarray:
            return np.add.accumulate(rows)[-1]
    for k, exit_total, sources, in_ids in reversed(steps):
        total = x[k]  # zero, for a state no source enters
        if sources:
            total = x.take(sources, 0)
            total *= values.take(in_ids, 0)
            total = row_sum(total)
        np.divide(total, exit_total, out=x[k])
    return x, ops


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------


def _chebyshev_nodes(low: float, high: float, count: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [low, high], ascending, ends included."""
    angles = np.pi * np.arange(count) / (count - 1)
    return (low + high) / 2.0 - (high - low) / 2.0 * np.cos(
        np.pi - angles
    )


def build_parametric_solution(
    archi,
    skeleton,
    parameter: str,
    measures: Sequence[Measure],
    domain: Tuple[float, float],
    const_env: Mapping[str, object],
    options: ParametricOptions = ParametricOptions(),
) -> ParametricSolution:
    """Compute every measure of *skeleton* as a rational function.

    *skeleton* is a :class:`~repro.runtime.statespace_cache.ParametricLTS`
    (an LTS plus per-transition rate provenance); *const_env* is the
    fully bound constant environment of the sweep's base point
    (``archi.bind_constants(const_overrides)``) and *domain* the closed
    parameter interval the sweep covers.  Raises
    :class:`~repro.errors.ParametricError` — always recoverable by
    falling back to per-point solves — when the rates are not rational
    in the parameter, a budget is exceeded, or the reconstruction fails
    validation.
    """
    started = time.perf_counter()
    try:
        low, high = float(domain[0]), float(domain[1])
        if not (np.isfinite(low) and np.isfinite(high)) or not low < high:
            raise ParametricError(
                f"parametric sweep domain [{low}, {high}] must be a "
                f"finite non-degenerate interval",
                reason="unsupported",
            )
        lts = (
            skeleton.lts
            if dict(const_env) == dict(skeleton.const_env)
            else skeleton.relabel(const_env)
        )
        dependent = dependent_consts(archi, parameter)
        atom_builder = _AtomBuilder(
            parameter,
            const_env,
            {p.name: p.default for p in archi.const_params},
            dependent,
            options.atom_degree_limit,
        )
        nodes = _chebyshev_nodes(low, high, options.nodes)
        entries, capture = _capture_chain(
            lts, skeleton.provenance, atom_builder, dependent,
            parameter, measures, nodes, options,
        )
        x, fill_ops = _eliminate(entries, options)
        del entries  # the store's rows are freed before the fits
        total = x.sum(axis=0)
        fits: Dict[str, BarycentricRational] = {}
        fit_errors: Dict[str, float] = {}
        support: Dict[str, int] = {}
        for m in measures:
            values = capture.const_rewards[m.name] @ x
            for position, atom, coefficient in capture.param_rewards[
                m.name
            ]:
                values = values + coefficient * (
                    x[position] * capture.atom_values[atom]
                )
            values = values / total
            fit, error = aaa_fit(
                nodes,
                values,
                relative_tolerance=options.fit_tolerance,
                max_support=options.max_support,
            )
            spurious = fit.real_poles_in(low, high)
            if spurious.size:
                raise ParametricError(
                    f"fitted measure {m.name!r} has spurious poles "
                    f"inside the sweep domain (at {spurious[:3]})",
                    reason="fit",
                )
            fits[m.name] = fit
            fit_errors[m.name] = error
            support[m.name] = fit.nodes.size
        elapsed = time.perf_counter() - started
        solution = ParametricSolution(
            parameter=parameter,
            domain=(low, high),
            measure_names=tuple(m.name for m in measures),
            fits=fits,
            fit_errors=fit_errors,
            size=len(capture.recurrent),
            nnz=capture.nnz,
            diagnostics={
                "states": lts.num_states,
                "transitions": lts.num_transitions,
                "recurrent": len(capture.recurrent),
                "parametric_transitions": capture.parametric_transitions,
                "atoms": int(capture.atom_values.shape[0]),
                "nodes": int(nodes.size),
                "fill_ops": fill_ops,
                "support": support,
                "elimination_seconds": elapsed,
            },
        )
    except ParametricError:
        _record_elimination("failed", time.perf_counter() - started)
        raise
    _record_elimination("built", elapsed)
    return solution


__all__ = [
    "ParametricOptions",
    "ParametricSolution",
    "build_parametric_solution",
    "dependent_consts",
    "record_parametric_fallback",
]
