"""Ablation: state-space machinery costs.

Benchmarks (a) exhaustive state-space generation of the streaming
Markovian model, (b) CTMC construction with vanishing-state elimination,
(c) the tau-SCC condensation that makes the weak-bisimulation check of
Sect. 3 tractable (212 s -> ~1 s on the streaming functional model when it
was introduced), (d) the guard-evaluation memo used during generation,
and (e) the three layers of the streaming Markovian skeleton's compile:
generation, elimination plan and one ``awake_period`` relabel (their
sizes are gated, their seconds printed).
"""

import statistics
import time

import numpy as np
import pytest

from repro.aemilia import generate_lts
from repro.aemilia.expressions import EvaluationCache, GUARD_CACHE, binop, lit, var
from repro.casestudies.streaming import functional, markovian
from repro.ctmc import build_ctmc
from repro.ctmc.build import EliminationPlan, classify_states, elimination_plan
from repro.lts import hide, matches_any
from repro.lts.weak import WeakStructure, tau_condensation
from repro.runtime import generate_parametric


@pytest.fixture(scope="module")
def streaming_archi():
    return markovian.dpm_architecture()


def test_statespace_generation(benchmark, streaming_archi):
    lts = benchmark.pedantic(
        lambda: generate_lts(streaming_archi, {"awake_period": 100.0}),
        rounds=1,
        iterations=1,
    )
    print(f"\n  streaming Markovian state space: {lts}")
    assert lts.num_states > 1_000


def test_ctmc_construction(benchmark, streaming_archi):
    lts = generate_lts(streaming_archi, {"awake_period": 100.0})
    ctmc = benchmark.pedantic(
        lambda: build_ctmc(lts), rounds=1, iterations=1
    )
    print(f"\n  tangible chain: {ctmc}")
    assert ctmc.num_states < lts.num_states


def test_tau_condensation_reduction(benchmark):
    archi = functional.functional_architecture()
    lts = generate_lts(archi, functional.FUNCTIONAL_CAPACITIES)
    low = functional.LOW_PATTERNS
    hidden = hide(lts, lambda label: not matches_any(low, label))

    quotient, _ = benchmark.pedantic(
        lambda: tau_condensation(hidden), rounds=1, iterations=1
    )
    reduction = lts.num_states / max(quotient.num_states, 1)
    print(
        f"\n  functional model: {lts.num_states} states -> "
        f"{quotient.num_states} tau-SCC classes ({reduction:.1f}x)"
    )
    assert quotient.num_states < lts.num_states
    # The quotient must still be cheap to saturate.
    WeakStructure(quotient)


def test_guard_memoization_microbenchmark(benchmark):
    """The guard memo must answer repeated (expr, env) lookups faster
    than re-walking the expression tree, without changing any value.

    Generation evaluates the same handful of guards under the same
    handful of local environments thousands of times — exactly the access
    pattern the memo is keyed for.
    """
    occupancy = binop(
        "-", binop("+", var("queue"), var("produced")), var("consumed")
    )
    guard = binop(
        "and",
        binop(
            "and",
            binop("<", occupancy, var("capacity")),
            binop(">=", binop("+", var("queue"), lit(1)), lit(1)),
        ),
        binop(
            "<=",
            binop("+", binop("*", lit(2), var("queue")), lit(1)),
            binop("*", lit(3), var("capacity")),
        ),
    )
    envs = [
        {"queue": q, "produced": q + 1, "consumed": 1, "capacity": 10}
        for q in range(8)
    ]
    repeats = 2_000

    expected = [guard.evaluate(env) for env in envs]

    started = time.perf_counter()
    for _ in range(repeats):
        for env in envs:
            guard.evaluate(env)
    raw_seconds = time.perf_counter() - started

    cache = EvaluationCache()

    def memoized():
        for _ in range(repeats):
            for env in envs:
                cache.evaluate(guard, env)

    # Timed here: with --benchmark-disable the fixture keeps no stats.
    started = time.perf_counter()
    benchmark.pedantic(memoized, rounds=1, iterations=1)
    memo_seconds = time.perf_counter() - started

    assert [cache.evaluate(guard, env) for env in envs] == expected
    assert cache.misses == len(envs)
    assert cache.hits >= repeats * len(envs)
    print(
        f"\n  guard evaluation: raw {raw_seconds * 1e3:.1f} ms, memoized "
        f"{memo_seconds * 1e3:.1f} ms "
        f"({raw_seconds / max(memo_seconds, 1e-9):.1f}x), "
        f"hit rate {cache.hits / (cache.hits + cache.misses):.1%}"
    )


def test_guard_memo_used_by_generation(streaming_archi):
    """State-space generation actually routes guards through the memo."""
    GUARD_CACHE.clear()
    generate_lts(streaming_archi, {"awake_period": 100.0})
    total = GUARD_CACHE.hits + GUARD_CACHE.misses
    assert total > 0, "generation never consulted the guard memo"
    print(
        f"\n  generation guard lookups: {total}, "
        f"hit rate {GUARD_CACHE.hits / total:.1%}"
    )


def _seconds(fn, repeats):
    """(median seconds of *repeats* calls, the last call's value)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), value


def test_skeleton_compile_layers(streaming_archi):
    """The per-skeleton work of a Markovian ``awake_period`` sweep.

    The sizes are exact: the skeleton, its tangible/vanishing split, the
    elimination plan's flat arrays, and the 506 positions whose rate
    reads ``awake_period`` (the only ones a relabel evaluates).  A
    relabel shares every column but the rates, and the skeleton's
    elimination plan.  The seconds are printed only.
    """
    generate_s, skeleton = _seconds(
        lambda: generate_parametric(streaming_archi), 3
    )
    lts = skeleton.lts
    assert (lts.num_states, lts.num_transitions) == (10_571, 18_513)
    tangible, vanishing = classify_states(lts)
    assert (len(tangible), len(vanishing)) == (1_782, 8_789)
    plan_s, plan = _seconds(lambda: EliminationPlan(lts), 3)
    assert plan.tangible == tangible
    # The plan's flat arrays: the tangible states' transitions (the
    # walk), the paths they resolve to (the contributions), the entries
    # those merge into, and the distinct label-count maps the
    # contributions share.
    into_tangible = ~np.isin(lts.arrays()[2][plan.walk], vanishing)
    assert (plan.walk.size, into_tangible.sum()) == (7_876, 3_993)
    assert plan.walk.size - into_tangible.sum() == 3_883
    assert plan.reads.size == 8_822
    assert (plan.pattern.sources.size, len(plan._merged)) == (8_587, 228)
    assert len(plan.count_maps) == 31

    env = streaming_archi.bind_constants({"awake_period": 28.185})
    relabel_s, relabeled = _seconds(lambda: skeleton.relabel(env), 9)
    positions = skeleton.readers(frozenset({"awake_period"})).positions
    assert len(positions) == 506
    differs = [
        p for p, (old, new) in enumerate(
            zip(lts.columns.rates, relabeled.columns.rates)
        )
        if old is not new
    ]
    assert differs == list(positions)
    assert relabeled.columns.sources is lts.columns.sources
    assert elimination_plan(relabeled) is elimination_plan(lts)
    print(
        f"\n  streaming skeleton compile: generate {generate_s:.3f} s, "
        f"elimination plan {plan_s:.3f} s, relabel "
        f"{relabel_s * 1e3:.2f} ms ({len(positions)} of "
        f"{lts.num_transitions} positions re-rated)"
    )
