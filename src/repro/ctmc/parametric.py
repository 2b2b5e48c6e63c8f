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

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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
from .build import _VanishingResolver, build_ctmc, classify_states
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
    """Constants whose value changes when *parameter* changes.

    A constant's default may reference earlier constants, so dependence
    propagates along the declaration order (mirrors the root analysis of
    :func:`repro.runtime.statespace_cache.structural_params`).
    """
    dependent = {parameter}
    for param in archi.const_params:
        if param.name == parameter:
            continue
        if param.default.free_variables() & dependent:
            dependent.add(param.name)
    return frozenset(dependent - {parameter})


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
        started = time.perf_counter()
        out = {
            name: float(self.fits[name](float(value)))
            for name in self.measure_names
        }
        _record_evaluation(1, time.perf_counter() - started)
        return out

    def evaluate_many(
        self, values: Sequence[float]
    ) -> Dict[str, np.ndarray]:
        """Vectorized evaluation of a whole grid at once."""
        points = np.asarray(list(values), float)
        for value in (points.min(), points.max()) if points.size else ():
            self._check_domain(float(value))
        started = time.perf_counter()
        out = {
            name: np.asarray(self.fits[name](points), float)
            for name in self.measure_names
        }
        _record_evaluation(
            int(points.size), time.perf_counter() - started
        )
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
    obs_metrics.PARAMETRIC_ELIMINATION_SECONDS.on(registry).observe(
        seconds
    )


def _record_evaluation(points: int, seconds: float) -> None:
    if points <= 0:
        return
    registry = obs_metrics.get_registry()
    if not registry.enabled:
        return
    obs_metrics.PARAMETRIC_EVALUATIONS.on(registry).inc(points)
    obs_metrics.PARAMETRIC_EVAL_SECONDS.on(registry).observe(
        seconds / points
    )


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


@dataclass
class _Capture:
    """The chain over the node ring, ready for elimination."""

    recurrent: List[int]                      # CTMC state ids, sorted
    out_edges: Dict[int, Dict[int, np.ndarray]]   # position-indexed Q
    in_edges: Dict[int, set]
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
) -> _Capture:
    """Mirror ``build_ctmc``'s construction with symbolic parametric rates.

    Every CTMC-level transition contribution is split into a constant
    float part and a sum of ``coefficient * atom(p)`` parts; vanishing
    states are resolved exactly as :func:`repro.ctmc.build.build_ctmc`
    resolves them (their weights are structural, so the resolution is
    parameter-independent).
    """
    watched = dependent | {parameter}
    provenance_of = {
        id(transition): prov
        for transition, prov in zip(lts.transitions, provenance)
    }
    tangible, vanishing = classify_states(lts)
    tangible_index = {state: i for i, state in enumerate(tangible)}
    is_vanishing = {state: False for state in lts.states()}
    for state in vanishing:
        is_vanishing[state] = True
    resolver = _VanishingResolver(lts, is_vanishing)

    # The concrete CTMC (rates at the base point) supplies the recurrent
    # class and the enabled-label sets; both are parameter-independent.
    ctmc = build_ctmc(lts)
    bsccs = ctmc.bottom_strongly_connected_components()
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
    position_of = {state: i for i, state in enumerate(recurrent)}
    recurrent_lts_states = {
        state for state in tangible if tangible_index[state] in position_of
    }

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

    out_edges: Dict[int, Dict[int, List]] = {
        i: {} for i in range(len(recurrent))
    }
    in_edges: Dict[int, set] = {i: set() for i in range(len(recurrent))}
    #: measure -> position -> accumulated constant reward rate.
    const_trans: Dict[str, Dict[int, float]] = {
        m.name: {} for m in measures
    }
    param_rewards: Dict[str, Dict[Tuple[int, int], float]] = {
        m.name: {} for m in measures
    }
    parametric_transitions = 0
    table = RewardTable(measures)

    def add_contribution(
        source_position: int,
        target_position: int,
        constant: float,
        atom: Optional[int],
        coefficient: float,
        counts: Mapping[str, float],
    ) -> None:
        """One CTMC transition contribution (already vanishing-resolved)."""
        impulses = [
            (count, table.impulses(label)) for label, count in counts.items()
        ]
        for j, m in enumerate(table.measures):
            if not m.has_trans_clauses():
                continue
            reward = sum(count * row[j] for count, row in impulses)
            if reward == 0.0:
                continue
            if atom is None:
                bucket = const_trans[m.name]
                bucket[source_position] = (
                    bucket.get(source_position, 0.0) + constant * reward
                )
            else:
                key = (source_position, atom)
                bucket = param_rewards[m.name]
                bucket[key] = (
                    bucket.get(key, 0.0) + coefficient * reward
                )
        if source_position == target_position:
            return  # self-loops never enter the generator
        row = out_edges[source_position]
        entry = row.get(target_position)
        if entry is None:
            entry = [0.0, {}]  # [constant, {atom: coefficient}]
            row[target_position] = entry
            in_edges[target_position].add(source_position)
        if atom is None:
            entry[0] += constant
        else:
            entry[1][atom] = entry[1].get(atom, 0.0) + coefficient

    for state in sorted(recurrent_lts_states):
        source_position = position_of[tangible_index[state]]
        for transition in lts.outgoing(state):
            prov = provenance_of[id(transition)]
            parametric = (
                prov is not None
                and not watched.isdisjoint(prov.free_consts)
            )
            if parametric:
                parametric_transitions += 1
                atom = atom_for(prov)
                multiplier = (
                    prov.fraction if prov.fraction is not None else 1.0
                )
                constant = 0.0
            else:
                atom = None
                multiplier = 0.0
                constant = transition.rate.rate
            base_counts = {transition.label: 1.0}
            if not is_vanishing[transition.target]:
                target_position = position_of[
                    tangible_index[transition.target]
                ]
                add_contribution(
                    source_position, target_position,
                    constant, atom, multiplier, base_counts,
                )
                continue
            for target, probability, counts in resolver.resolve(
                transition.target
            ):
                merged = {
                    label: count / probability
                    for label, count in counts.items()
                }
                merged[transition.label] = (
                    merged.get(transition.label, 0.0) + 1.0
                )
                add_contribution(
                    source_position,
                    position_of[tangible_index[target]],
                    constant * probability,
                    atom,
                    multiplier * probability,
                    merged,
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

    # Materialise the node-ring generator entries.
    nnz = 0
    vector_out: Dict[int, Dict[int, np.ndarray]] = {}
    for source_position, row in out_edges.items():
        vector_row: Dict[int, np.ndarray] = {}
        for target_position, (constant, atoms) in sorted(row.items()):
            vector = np.full(nodes.size, constant)
            for atom, coefficient in sorted(atoms.items()):
                vector = vector + coefficient * atom_values[atom]
            vector_row[target_position] = vector
            nnz += 1
        vector_out[source_position] = vector_row

    # Constant reward per position: state rewards (enabled labels are
    # structural) plus the accumulated constant-rate transition rewards.
    const_rewards: Dict[str, np.ndarray] = {}
    for j, m in enumerate(table.measures):
        rewards = np.zeros(len(recurrent))
        for position, ctmc_state in enumerate(recurrent):
            value = const_trans[m.name].get(position, 0.0)
            if m.has_state_clauses():
                enabled = ctmc.enabled_labels(ctmc_state)
                value += table.state_rewards(enabled)[j]
            rewards[position] = value
        const_rewards[m.name] = rewards

    return _Capture(
        recurrent=recurrent,
        out_edges=vector_out,
        in_edges=in_edges,
        atom_values=atom_values,
        const_rewards=const_rewards,
        param_rewards={
            name: [
                (position, atom, coefficient)
                for (position, atom), coefficient in sorted(
                    bucket.items()
                )
            ]
            for name, bucket in param_rewards.items()
        },
        nnz=nnz,
        parametric_transitions=parametric_transitions,
    )


# ---------------------------------------------------------------------------
# GTH elimination over the node ring.
# ---------------------------------------------------------------------------


def _eliminate(
    capture: _Capture, options: ParametricOptions
) -> Tuple[np.ndarray, int]:
    """GTH state elimination; returns (x matrix, fill ops used).

    ``x[i]`` is the unnormalised steady-state weight vector of position
    ``i`` over the sample nodes.  Elimination order is Markowitz
    min-fill (in-degree x out-degree product, smallest index as the
    deterministic tie-break); every update is the subtraction-free GTH
    rule, so no cancellation can occur at any node.
    """
    out_edges = capture.out_edges
    in_edges = capture.in_edges
    size = len(capture.recurrent)
    node_count = capture.atom_values.shape[1] if size else 0
    remaining = set(range(size))
    eliminations: List[Tuple[int, np.ndarray, Dict[int, np.ndarray]]] = []
    ops = 0
    while len(remaining) > 1:
        k = min(
            remaining,
            key=lambda s: (len(in_edges[s]) * len(out_edges[s]), s),
        )
        outs = out_edges.pop(k)
        sources = in_edges.pop(k)
        outs.pop(k, None)
        sources.discard(k)
        if not outs:
            raise ParametricError(
                "a recurrent state lost all outgoing rates during "
                "elimination (inconsistent chain)",
                reason="structure",
            )
        exit_total = np.add.reduce(list(outs.values()))
        saved: Dict[int, np.ndarray] = {}
        for i in sorted(sources):
            q_ik = out_edges[i].pop(k)
            saved[i] = q_ik
            factor = q_ik / exit_total
            row = out_edges[i]
            for j, q_kj in outs.items():
                if j == i:
                    continue  # the diagonal stays implicit in GTH
                ops += 1
                existing = row.get(j)
                if existing is None:
                    row[j] = factor * q_kj
                    in_edges[j].add(i)
                else:
                    row[j] = existing + factor * q_kj
            if ops > options.max_fill_ops:
                raise ParametricError(
                    f"GTH fill-in exceeded the budget of "
                    f"{options.max_fill_ops} update operations",
                    reason="budget",
                )
        for j in outs:
            in_edges[j].discard(k)
        remaining.discard(k)
        eliminations.append((k, exit_total, saved))
    x = np.zeros((size, node_count))
    if remaining:
        x[remaining.pop()] = 1.0
    for k, exit_total, saved in reversed(eliminations):
        acc = np.zeros(node_count)
        for i, q_ik in saved.items():
            acc += x[i] * q_ik
        x[k] = acc / exit_total
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
        capture = _capture_chain(
            lts, skeleton.provenance, atom_builder, dependent,
            parameter, measures, nodes, options,
        )
        x, fill_ops = _eliminate(capture, options)
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
