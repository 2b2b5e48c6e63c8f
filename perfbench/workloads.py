"""The four sweep workloads of the benchmark.

Each workload is one complete sweep of the streaming case study through
the public :class:`~repro.core.methodology.IncrementalMethodology` API.
:func:`make` draws its inputs from the workload seed; the program only
ever sees the drawn values.  :meth:`Workload.reference` recomputes the
checked points by an independent path (fresh state spaces, ``direct``
solves) so every timed call can be checked against it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.aemilia.semantics import generate_lts
from repro.casestudies import streaming
from repro.core.methodology import IncrementalMethodology, ModelFamily
from repro.ctmc.build import build_ctmc
from repro.ctmc.measures import evaluate_measures
from repro.ctmc.steady_state import steady_state_solution
from repro.runtime import StructuralStateSpaceCache
from repro.sim.output import replicate

NAMES = ("markov-sweep", "markov-dense", "general-sweep")

#: The paper's PSP awake-period range [ms].
AWAKE_RANGE = (10.0, 800.0)
#: The methodology's default state-space bound, passed explicitly so the
#: traced pass and the references explore exactly what the sweep does.
MAX_STATES = 200_000
#: Agreement required between a Markovian sweep and its reference.
RELATIVE_TOLERANCE = 1e-9

Series = Dict[str, List[float]]


@dataclass
class Workload:
    """One seeded sweep: its inputs, the timed call and its reference."""

    name: str
    family: ModelFamily
    phase: str  # "markovian" or "general"
    parameter: str
    values: List[float]
    #: Grid indices the reference recomputes (every point but on the
    #: dense grid, where a seeded sample is checked).
    checked: List[int]
    sim_seed: Optional[int] = None
    run_length: float = 0.0
    runs: int = 0
    warmup: float = 0.0

    @property
    def archi(self):
        return getattr(self.family, f"{self.phase}_dpm")

    def sweep(self) -> Series:
        """One complete sweep call, as a user makes it: fresh methodology
        and cache, one worker, default solver and engine."""
        methodology = IncrementalMethodology(
            self.family,
            max_states=MAX_STATES,
            workers=1,
            statespace_cache=StructuralStateSpaceCache(),
        )
        if self.phase == "general":
            return methodology.sweep_general(
                self.parameter, self.values, "dpm",
                run_length=self.run_length, runs=self.runs,
                warmup=self.warmup, seed=self.sim_seed, workers=1,
            )
        return methodology.sweep_markovian(
            self.parameter, self.values, "dpm", workers=1
        )

    def reference(self) -> Dict[int, Dict[str, float]]:
        """Measures at every checked point, each from a fresh state space."""
        out = {}
        for index in self.checked:
            lts = generate_lts(
                self.archi, {self.parameter: self.values[index]}, MAX_STATES
            )
            if self.phase == "general":
                replication = replicate(
                    lts, self.family.measures, self.run_length,
                    runs=self.runs, warmup=self.warmup, seed=self.sim_seed,
                    engine="reference",
                )
                out[index] = {
                    name: est.mean
                    for name, est in replication.estimates.items()
                }
            else:
                ctmc = build_ctmc(lts)
                pi = steady_state_solution(ctmc, method="direct").pi
                out[index] = evaluate_measures(
                    ctmc, pi, self.family.measures
                )
        return out

    def agrees(
        self, series: Series, reference: Dict[int, Dict[str, float]]
    ) -> bool:
        """Simulation means must be bit-identical; analytic values must
        agree within :data:`RELATIVE_TOLERANCE`."""
        if sorted(series) != sorted(self.family.measure_names()):
            return False
        for name, values in series.items():
            if len(values) != len(self.values):
                return False
            for index, expected in reference.items():
                got = values[index]
                if self.phase == "general":
                    if got != expected[name]:
                        return False
                elif not abs(got - expected[name]) <= (
                    RELATIVE_TOLERANCE * abs(expected[name])
                ):
                    return False
        return True


def _awake_grid(rng: random.Random, points: int) -> List[float]:
    """One awake period per log-spaced stratum of :data:`AWAKE_RANGE`.

    Stratifying keeps the simulation work of a general sweep (short
    periods fire more events) nearly the same for every seed.
    """
    low, high = (math.log(bound) for bound in AWAKE_RANGE)
    width = (high - low) / points
    return [
        round(math.exp(rng.uniform(low + i * width, low + (i + 1) * width)), 3)
        for i in range(points)
    ]


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload *name* with inputs drawn from *seed*.

    *tiny* shrinks every size (self-test only); the dense grid keeps 100
    points, the smallest the ``auto`` solver takes parametrically.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r} (use one of {NAMES})")
    rng = random.Random(f"{name}:{seed}")
    family = streaming.family()
    if name == "markov-sweep":
        values = _awake_grid(rng, 2 if tiny else 6)
        return Workload(
            name, family, "markovian", "awake_period", values,
            list(range(len(values))),
        )
    if name == "markov-dense":
        # Fixed end points keep the fitted domain (and so the one-time
        # elimination) identical across seeds; the seed draws the rest.
        points = 100 if tiny else 250
        inner = sorted(
            round(rng.uniform(*AWAKE_RANGE), 3) for _ in range(points - 2)
        )
        values = [AWAKE_RANGE[0]] + inner + [AWAKE_RANGE[1]]
        checked = sorted(rng.sample(range(points), 2 if tiny else 5))
        return Workload(
            name, family, "markovian", "awake_period", values, checked
        )
    # general-sweep: the fig6 --quick settings.
    values = _awake_grid(rng, 2 if tiny else 6)
    return Workload(
        name, family, "general", "awake_period", values,
        list(range(len(values))),
        sim_seed=rng.randrange(1, 2**31),
        run_length=2_000.0 if tiny else 30_000.0,
        runs=2 if tiny else 3,
        warmup=200.0 if tiny else 2_000.0,
    )
