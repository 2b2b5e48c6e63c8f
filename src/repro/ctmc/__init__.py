"""Continuous-time Markov chain machinery (the paper's Sect. 4 phase)."""

from .build import build_ctmc, classify_states
from .chain import CTMC, CTMCTransition
from .kronecker import (
    KroneckerGenerator,
    KroneckerOperator,
    KroneckerTerm,
    kron_vector,
)
from .lumping import lump, lumping_partition
from .measure_lang import parse_measures
from .measures import (
    Measure,
    RewardClause,
    RewardKind,
    RewardTable,
    evaluate_measure,
    evaluate_measures,
    measure,
    state_clause,
    state_reward_vector,
    trans_clause,
)
from .parametric import (
    ParametricOptions,
    ParametricSolution,
    build_parametric_solution,
)
from .ratfunc import BarycentricRational, Polynomial, RationalFunction, aaa_fit
from .rewards import (
    absorption_probability,
    accumulated_state_reward,
    mean_time_to_absorption,
)
from .solvers import (
    SolverReport,
    SteadyStateSolution,
    available_solvers,
    register_solver,
    resolve_method,
    select_method,
    solve_steady_state,
    solver_choices,
    unregister_solver,
)
from .steady_state import steady_state, steady_state_solution
from .transient import expected_state_reward_at, transient_distribution

__all__ = [
    "build_ctmc",
    "classify_states",
    "CTMC",
    "CTMCTransition",
    "KroneckerGenerator",
    "KroneckerOperator",
    "KroneckerTerm",
    "kron_vector",
    "lump",
    "lumping_partition",
    "parse_measures",
    "Measure",
    "RewardClause",
    "RewardKind",
    "RewardTable",
    "evaluate_measure",
    "evaluate_measures",
    "measure",
    "state_clause",
    "state_reward_vector",
    "trans_clause",
    "ParametricOptions",
    "ParametricSolution",
    "build_parametric_solution",
    "BarycentricRational",
    "Polynomial",
    "RationalFunction",
    "aaa_fit",
    "absorption_probability",
    "accumulated_state_reward",
    "mean_time_to_absorption",
    "steady_state",
    "steady_state_solution",
    "SolverReport",
    "SteadyStateSolution",
    "available_solvers",
    "register_solver",
    "unregister_solver",
    "resolve_method",
    "select_method",
    "solve_steady_state",
    "solver_choices",
    "expected_state_reward_at",
    "transient_distribution",
]
