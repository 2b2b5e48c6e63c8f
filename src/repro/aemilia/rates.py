"""Action rates of the specification language.

Following the stochastic process algebra underlying the paper's ADL, every
action carries a *rate* that determines its timing:

* **passive** (written ``_`` or ``_(priority, weight)``) — the action has no
  timing of its own; it either synchronises with an active partner (input
  interactions) or is a pure *observability marker* (monitor self-loops used
  by reward measures).  Functional (untimed) models use passive rates
  everywhere.
* **exponential** (``exp(lambda)``) — duration exponentially distributed with
  rate ``lambda``; the Markovian models of Sect. 4 use these.
* **immediate** (``inf(priority, weight)``) — zero duration; among enabled
  immediate actions, the highest priority wins and equal priorities are
  resolved probabilistically by weight.  Immediate actions preempt timed
  ones.
* **general** (``det(v)``, ``normal(mu, sigma)``, ...) — generally
  distributed duration; the general models of Sect. 5 use these and are
  analysed by simulation.

Rates in behaviour syntax may contain expressions over ``const`` parameters
(e.g. ``exp(1 / service_time)``).  :class:`RateSpec` is the syntactic form;
:meth:`RateSpec.evaluate` produces the concrete :class:`Rate` used by the
semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from ..errors import SpecificationError
from ..distributions import (
    DISTRIBUTION_KEYWORDS,
    Distribution,
    Exponential,
    make_distribution,
)
from .expressions import Env, Expr, Literal


# ---------------------------------------------------------------------------
# Concrete (evaluated) rates.
# ---------------------------------------------------------------------------

class Rate:
    """Base class of concrete rates attached to LTS transitions."""

    #: True for rates that let their transition fire spontaneously.
    is_active = True

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class PassiveRate(Rate):
    """Passive rate: synchronises with an active partner or marks a state."""

    priority: int = 0
    weight: float = 1.0
    is_active = False

    def __post_init__(self):
        if not (self.weight > 0) or not math.isfinite(self.weight):
            raise SpecificationError(
                f"passive weight must be positive and finite, got "
                f"{self.weight}"
            )
        if self.priority < 0:
            raise SpecificationError(
                f"passive priority must be >= 0, got {self.priority}"
            )

    def __str__(self) -> str:
        if self.priority == 0 and self.weight == 1.0:
            return "_"
        return f"_({self.priority}, {self.weight:g})"


@dataclass(frozen=True)
class ExpRate(Rate):
    """Exponentially distributed duration with parameter ``rate``."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0) or not math.isfinite(self.rate):
            raise SpecificationError(
                f"exponential rate must be positive and finite, got {self.rate}"
            )

    def __str__(self) -> str:
        return f"exp({self.rate:g})"


@dataclass(frozen=True)
class ImmediateRate(Rate):
    """Immediate (zero-duration) rate with priority and weight."""

    priority: int = 1
    weight: float = 1.0

    def __post_init__(self):
        if self.priority < 1:
            raise SpecificationError(
                f"immediate priority must be >= 1, got {self.priority}"
            )
        if not (self.weight > 0) or not math.isfinite(self.weight):
            raise SpecificationError(
                f"immediate weight must be positive and finite, got "
                f"{self.weight}"
            )

    def __str__(self) -> str:
        return f"inf({self.priority}, {self.weight:g})"


@dataclass(frozen=True)
class GeneralRate(Rate):
    """Generally distributed duration (phase-3 models)."""

    distribution: Distribution

    def __str__(self) -> str:
        return str(self.distribution)

    def exponential_equivalent(self) -> "ExpRate":
        """Exponential rate with the same mean (validation plug-in)."""
        return ExpRate(self.distribution.exponential_equivalent().rate)


def rate_as_distribution(rate: Rate) -> Distribution:
    """Return the duration distribution of an active timed rate."""
    if isinstance(rate, ExpRate):
        return Exponential(rate.rate)
    if isinstance(rate, GeneralRate):
        return rate.distribution
    raise SpecificationError(f"rate {rate} has no duration distribution")


# ---------------------------------------------------------------------------
# Syntactic rate specifications (may contain const-parameter expressions).
# ---------------------------------------------------------------------------

class RateSpec:
    """Base class of syntactic rates appearing in behaviour terms."""

    def evaluate(self, env: Env) -> Rate:
        """Evaluate parameter expressions, producing a concrete rate."""
        raise NotImplementedError

    def free_variables(self) -> frozenset:
        """Variables the rate depends on (const parameters)."""
        raise NotImplementedError


def _numeric(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecificationError(f"{what} must be numeric, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PassiveSpec(RateSpec):
    """Syntactic passive rate ``_`` / ``_(priority, weight)``."""

    priority: Expr = field(default_factory=lambda: Literal(0))
    weight: Expr = field(default_factory=lambda: Literal(1.0))

    def evaluate(self, env: Env) -> PassiveRate:
        priority = self.priority.evaluate(env)
        weight = _numeric(self.weight.evaluate(env), "passive weight")
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise SpecificationError(
                f"passive priority must be an integer, got {priority!r}"
            )
        return PassiveRate(priority, weight)

    def free_variables(self) -> frozenset:
        return self.priority.free_variables() | self.weight.free_variables()

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class ExpSpec(RateSpec):
    """Syntactic exponential rate ``exp(expr)``."""

    rate: Expr

    def evaluate(self, env: Env) -> ExpRate:
        return ExpRate(_numeric(self.rate.evaluate(env), "exp rate"))

    def free_variables(self) -> frozenset:
        return self.rate.free_variables()

    def __str__(self) -> str:
        return f"exp({self.rate})"


@dataclass(frozen=True)
class ImmediateSpec(RateSpec):
    """Syntactic immediate rate ``inf`` / ``inf(priority, weight)``."""

    priority: Expr = field(default_factory=lambda: Literal(1))
    weight: Expr = field(default_factory=lambda: Literal(1.0))

    def evaluate(self, env: Env) -> ImmediateRate:
        priority = self.priority.evaluate(env)
        weight = _numeric(self.weight.evaluate(env), "immediate weight")
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise SpecificationError(
                f"immediate priority must be an integer, got {priority!r}"
            )
        return ImmediateRate(priority, weight)

    def free_variables(self) -> frozenset:
        return self.priority.free_variables() | self.weight.free_variables()

    def __str__(self) -> str:
        return f"inf({self.priority}, {self.weight})"


@dataclass(frozen=True)
class GeneralSpec(RateSpec):
    """Syntactic general-distribution rate, e.g. ``normal(mu, sigma)``."""

    keyword: str
    args: Tuple[Expr, ...]

    def __post_init__(self):
        if self.keyword not in DISTRIBUTION_KEYWORDS:
            known = ", ".join(sorted(DISTRIBUTION_KEYWORDS))
            raise SpecificationError(
                f"unknown distribution {self.keyword!r} (known: {known})"
            )

    def evaluate(self, env: Env) -> Rate:
        values = [
            _numeric(arg.evaluate(env), f"{self.keyword} argument")
            for arg in self.args
        ]
        if self.keyword == "exp":
            # exp(...) written in a general model is still a plain
            # exponential rate; keeping it as ExpRate lets the Markovian
            # builder accept mixed models.
            return ExpRate(values[0])
        return GeneralRate(make_distribution(self.keyword, values))

    def free_variables(self) -> frozenset:
        result: frozenset = frozenset()
        for arg in self.args:
            result |= arg.free_variables()
        return result

    def __str__(self) -> str:
        return f"{self.keyword}({', '.join(str(a) for a in self.args)})"
