"""Literal pins of the stream-driven replication protocols.

CRN pairs (:func:`~repro.sim.output.replicate_paired`) and splitting
trees (:func:`~repro.sim.splitting.split_replicate`) run
:class:`~repro.sim.engine.Simulator` on per-event-type streams
(one :class:`~repro.sim.streams.RunStreams` per run).  The values
in ``sim_pins.json`` were recorded while these protocols still ran on
the vectorized kernel, whose trajectories were bit-identical to the
reference engine's on shared streams; every test here compares with
``==``, so the protocols keep producing exactly those numbers.

Pinned per configuration: each run's measures, ``events_fired``,
``final_state``, deadlock flag and residual clocks (in order) on the
streams the protocol assigns to it, and the protocol's own outputs
(per-run samples; for splitting trees also each tree's events, clones
and merges from its ``splitting:tree`` span, the occupancies, and the
totals).  Configurations:

* ``split_smoke`` — the splitting benchmark's smoke cascade;
* ``split_rpc`` — the rpc general model (deterministic timeouts and
  Gaussian service times) under splitting, with a warm-up;
* ``split_cascade`` — the splitting determinism case of
  ``tests/test_splitting.py``;
* ``paired_crn`` / ``paired_independent`` — rpc DPM
  (``shutdown_timeout=15``) against NO-DPM, with and without common
  random numbers;
* ``split_one`` — ``split_replicate(splits=1)``, which is naive
  replication on the per-event-type streams.

Re-record (only for an intended change of the numbers) with
``PYTHONPATH=src python -m tests.test_sim_pins`` from the repository
root.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.aemilia.semantics import generate_lts
from repro.casestudies import rpc, streaming
from repro.distributions import Normal
from repro.obs import tracing
from repro.obs.tracing import Tracer
from repro.sim import (
    RunStreams,
    Simulator,
    replicate,
    replicate_paired,
    split_replicate,
)
from tests.test_splitting import abort_measures, cascade_lts

PINS_PATH = Path(__file__).with_name("sim_pins.json")

SEED = 20040628


@lru_cache(maxsize=None)
def _rpc_model(variant, shutdown_timeout=None):
    family = rpc.family()
    archi = family.general_dpm if variant == "dpm" else family.general_nodpm
    overrides = (
        None
        if shutdown_timeout is None
        else {"shutdown_timeout": shutdown_timeout}
    )
    return generate_lts(archi, overrides, 200_000)


def _trajectory(simulator, run_length, warmup, streams):
    result = simulator.run(run_length, streams, warmup)
    return {
        "measures": result.measures,
        "events_fired": result.events_fired,
        "final_state": result.final_state,
        "deadlocked": result.deadlocked,
        "final_clocks": [list(item) for item in result.final_clocks.items()],
    }


def _tree_roots(lts, measures, run_length, warmup, seed, runs):
    """Each run on its own ``(seed, run index)`` streams: the naive
    replication that ``splits=1`` collapses to."""
    simulator = Simulator(lts, measures)
    return [
        _trajectory(
            simulator, run_length, warmup,
            RunStreams(seed, index),
        )
        for index in range(runs)
    ]


def _splitting(lts, measures, run_length, workers=1, **settings):
    tracer = Tracer()
    previous = tracing.set_tracer(tracer)
    try:
        result = split_replicate(
            lts, measures, run_length, workers=workers, **settings
        )
    finally:
        tracing.set_tracer(previous)
        tracer.close()
    trees = sorted(
        (record["attrs"] for record in tracer.records()
         if record["name"] == "splitting:tree"),
        key=lambda attrs: attrs["index"],
    )
    return {
        "trees": [
            [tree["events"], tree["clones"], tree["merges"]]
            for tree in trees
        ],
        "samples": result.samples,
        "occupancy": result.occupancy,
        "events": result.events,
        "clones": result.clones,
        "merges": result.merges,
        "peak": result.peak_trajectories,
    }


def split_smoke(workers=1):
    lts = cascade_lts(3, 0.5, 4.0, 4.0)
    return {
        "protocol": _splitting(
            lts, abort_measures(), 100.0, workers, levels=3, splits=4,
            segments=200, runs=12, seed=11,
        ),
    }


def split_rpc(workers=1):
    lts = _rpc_model("dpm", 4.0)
    return {
        "protocol": _splitting(
            lts, rpc.family().measures, 60.0, workers, levels=2,
            splits=2, segments=4, runs=3, warmup=10.0, seed=5,
        ),
    }


def split_cascade(workers=1):
    lts = cascade_lts(3, 1.0, 2.0, 2.0)
    return {
        "protocol": _splitting(
            lts, abort_measures(), 50.0, workers, levels=3, splits=3,
            segments=25, runs=4, warmup=5.0, seed=41,
        ),
    }


def split_one(workers=1):
    lts = cascade_lts(3, 1.0, 2.0, 2.0)
    return {
        "protocol": _splitting(
            lts, abort_measures(), 400.0, workers, levels=3, splits=1,
            segments=17, runs=6, warmup=20.0, seed=97,
        ),
        "runs": _tree_roots(lts, abort_measures(), 400.0, 20.0, 97, 6),
    }


def _paired(crn, workers=1):
    runs, run_length, warmup = 4, 300.0, 50.0
    lts_dpm, lts_nodpm = _rpc_model("dpm", 15.0), _rpc_model("nodpm")
    measures = rpc.family().measures
    paired = replicate_paired(
        lts_dpm, lts_nodpm, measures, run_length, runs=runs,
        warmup=warmup, seed=SEED, crn=crn, workers=workers,
    )
    # The independent baseline offsets the second variant's seed.
    second_seed = SEED if crn else SEED ^ 0x5EEDC0DE
    runs_of = {}
    for key, lts, seed in (
        ("first", lts_dpm, SEED),
        ("second", lts_nodpm, second_seed),
    ):
        simulator = Simulator(lts, measures)
        runs_of[key] = [
            _trajectory(simulator, run_length, warmup, RunStreams(seed, row))
            for row in range(runs)
        ]
    return {
        "protocol": {
            "first": paired.first.samples,
            "second": paired.second.samples,
            "crn": paired.crn,
        },
        "runs": runs_of,
    }


def paired_crn(workers=1):
    return _paired(True, workers)


def paired_independent(workers=1):
    return _paired(False, workers)


CONFIGS = {
    "split_smoke": split_smoke,
    "split_rpc": split_rpc,
    "split_cascade": split_cascade,
    "split_one": split_one,
    "paired_crn": paired_crn,
    "paired_independent": paired_independent,
}


def _normalised(value):
    """*value* as the JSON file stores it (tuples become lists)."""
    return json.loads(json.dumps(value))


@lru_cache(maxsize=None)
def _pins():
    return json.loads(PINS_PATH.read_text())


class TestProtocolPins:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_matches_the_recorded_values(self, name):
        assert _normalised(CONFIGS[name]()) == _pins()[name]

    @pytest.mark.parametrize("name", ["paired_crn", "split_rpc"])
    def test_worker_count_changes_nothing(self, name):
        assert _normalised(CONFIGS[name](workers=2)) == _pins()[name]

    @pytest.mark.parametrize("crn", [True, False], ids=["crn", "independent"])
    def test_pairs_are_the_pinned_trajectories(self, crn):
        """Run *i* of each variant is the trajectory on stream row *i*."""
        pinned = _pins()["paired_crn" if crn else "paired_independent"]
        for key in ("first", "second"):
            for name, samples in pinned["protocol"][key].items():
                assert samples == [
                    run["measures"][name] for run in pinned["runs"][key]
                ]


@pytest.mark.parametrize("case", ["rpc", "streaming"])
def test_streams_and_per_run_generators_agree_statistically(case):
    """``replicate`` draws one generator per run; the paired protocol
    one substream per event type.  Different bits, the same estimator:
    every measure's 95% intervals overlap at matched budgets."""
    family = {"rpc": rpc.family, "streaming": streaming.family}[case]()
    lts = generate_lts(family.general_dpm, None, 200_000)
    settings = dict(runs=10, warmup=200.0, seed=SEED, confidence=0.95)
    per_run = replicate(lts, family.measures, 2_000.0, **settings)
    streams = replicate_paired(
        lts, lts, family.measures, 2_000.0, **settings
    ).first
    for name in family.measure_names():
        assert per_run[name].overlaps_estimate(streams[name]), (
            f"{case}/{name}: {per_run[name]} vs {streams[name]}"
        )


class TestCommonRandomNumbers:
    def test_paired_allocators_share_streams(self):
        """The two variants of run *i* hold separate ``RunStreams``
        (each consumes at its own pace) over identical substreams."""
        dist = Normal(1.0, 0.2)
        for run in range(3):
            first, second = RunStreams(SEED, run), RunStreams(SEED, run)
            assert [
                first.duration("E.event", dist) for _ in range(5)
            ] == [second.duration("E.event", dist) for _ in range(5)]

    def test_crn_narrows_delta_intervals(self):
        """CRN pairing beats independent pairing at equal event budget.

        shutdown_timeout=15.0 is a genuine fig. 3 sweep point where the
        DPM-on and DPM-off trajectories stay aligned (the policy rarely
        engages), which is exactly the regime CRN exploits: every
        measure's paired-delta interval must be strictly narrower than
        the independent-pairing one.
        """
        family = rpc.family()
        settings = dict(runs=16, warmup=100.0, seed=SEED)
        lts_dpm, lts_nodpm = _rpc_model("dpm", 15.0), _rpc_model("nodpm")
        paired = replicate_paired(
            lts_dpm, lts_nodpm, family.measures, 1_500.0,
            crn=True, **settings,
        )
        independent = replicate_paired(
            lts_dpm, lts_nodpm, family.measures, 1_500.0,
            crn=False, **settings,
        )
        assert paired.crn and not independent.crn
        for name in family.measure_names():
            assert (
                paired.delta[name].half_width
                < independent.delta[name].half_width
            ), (
                f"{name}: paired {paired.delta[name]} not narrower "
                f"than independent {independent.delta[name]}"
            )


if __name__ == "__main__":
    recorded = {name: _normalised(build()) for name, build in CONFIGS.items()}
    PINS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_PATH}")
