"""Probability distributions for generally-timed models.

The general models of the paper (Sect. 5) replace exponential delays with
deterministic and normal delays.  This module provides those plus a few more
standard non-negative duration distributions, each exposing:

* :meth:`Distribution.sample` — draw a duration from a NumPy generator,
* :attr:`Distribution.mean` / :attr:`Distribution.variance` — analytic
  moments, used by validation and by tests,
* :meth:`Distribution.exponential_equivalent` — the exponential distribution
  with the same mean, used for the parametric cross-validation of Sect. 5.1.

Durations are times, hence never negative; the normal distribution is
left-truncated at zero on sampling (with the small parameterisations used by
the paper — e.g. mean 0.8 ms, sigma 0.0345 ms — truncation is negligible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SpecificationError


class Distribution:
    """Base class of duration distributions."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one duration (non-negative float)."""
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw *size* durations in one vectorized call.

        Used by :class:`repro.sim.streams.RunStreams` to refill one
        run's per-event-type buffers: one numpy call amortises the
        per-draw overhead across a whole block.  The base implementation
        falls back to repeated scalar :meth:`sample` calls — exactly the
        stream a sequential consumer would see — so stateful
        distributions (e.g. trace replay cursors) keep their semantics
        without a vectorized override.
        """
        return np.array([self.sample(rng) for _ in range(size)], float)

    @property
    def mean(self) -> float:
        """Analytic mean of the distribution."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Analytic variance of the distribution."""
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        """P(X <= x) of the *sampling* distribution.

        Used by the workload-fitting Kolmogorov-Smirnov test
        (:mod:`repro.workload.fit`); where sampling truncates (the
        left-truncated normal) the CDF reports the truncated law, so the
        KS statistic compares what :meth:`sample` actually draws.
        """
        raise NotImplementedError

    def exponential_equivalent(self) -> "Exponential":
        """Exponential distribution with the same mean (for validation)."""
        mean = self.mean
        if mean <= 0 or not math.isfinite(mean):
            raise SpecificationError(
                f"{self!r} has non-positive or infinite mean; "
                f"no exponential equivalent"
            )
        return Exponential(1.0 / mean)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with rate ``rate`` (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0) or not math.isfinite(self.rate):
            raise SpecificationError(
                f"exponential rate must be positive and finite, got {self.rate}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return rng.exponential(1.0 / self.rate)

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    @property
    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return 1.0 - math.exp(-self.rate * x)

    def exponential_equivalent(self) -> "Exponential":
        return self

    def __str__(self) -> str:
        return f"exp({self.rate:g})"


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Constant (degenerate) duration."""

    value: float

    def __post_init__(self):
        if self.value < 0 or not math.isfinite(self.value):
            raise SpecificationError(
                f"deterministic duration must be >= 0 and finite, got {self.value}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, float)

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def cdf(self, x: float) -> float:
        return 1.0 if x >= self.value else 0.0

    def __str__(self) -> str:
        return f"det({self.value:g})"


@dataclass(frozen=True)
class Normal(Distribution):
    """Normal duration, left-truncated at zero when sampled.

    ``mean``/``variance`` report the untruncated moments; the case-study
    parameterisations keep the truncated mass far below 1e-6 so the
    difference is immaterial (asserted in tests).
    """

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0 or not math.isfinite(self.sigma):
            raise SpecificationError(
                f"normal sigma must be positive and finite, got {self.sigma}"
            )
        if not math.isfinite(self.mu):
            raise SpecificationError(f"normal mu must be finite, got {self.mu}")

    def sample(self, rng: np.random.Generator) -> float:
        value = rng.normal(self.mu, self.sigma)
        while value < 0:
            value = rng.normal(self.mu, self.sigma)
        return value

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        values = rng.normal(self.mu, self.sigma, size)
        bad = values < 0
        while bad.any():
            values[bad] = rng.normal(self.mu, self.sigma, int(bad.sum()))
            bad = values < 0
        return values

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma

    def cdf(self, x: float) -> float:
        # The sampling law is the normal truncated to [0, inf).
        if x <= 0:
            return 0.0

        def phi(z: float) -> float:
            return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

        below_zero = phi(-self.mu / self.sigma)
        return (phi((x - self.mu) / self.sigma) - below_zero) / (
            1.0 - below_zero
        )

    def __str__(self) -> str:
        return f"normal({self.mu:g}, {self.sigma:g})"


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform duration on ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self):
        if self.low < 0 or self.high <= self.low:
            raise SpecificationError(
                f"uniform bounds must satisfy 0 <= low < high, "
                f"got [{self.low}, {self.high}]"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return rng.uniform(self.low, self.high)

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size)

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        width = self.high - self.low
        return width * width / 12.0

    def cdf(self, x: float) -> float:
        if x <= self.low:
            return 0.0
        if x >= self.high:
            return 1.0
        return (x - self.low) / (self.high - self.low)

    def __str__(self) -> str:
        return f"unif({self.low:g}, {self.high:g})"


@dataclass(frozen=True)
class Erlang(Distribution):
    """Erlang distribution: sum of ``shape`` exponentials of rate ``rate``."""

    shape: int
    rate: float

    def __post_init__(self):
        if self.shape < 1 or not isinstance(self.shape, int):
            raise SpecificationError(
                f"Erlang shape must be a positive integer, got {self.shape}"
            )
        if not (self.rate > 0) or not math.isfinite(self.rate):
            raise SpecificationError(
                f"Erlang rate must be positive and finite, got {self.rate}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return rng.gamma(self.shape, 1.0 / self.rate)

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, size)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        # Regularised lower incomplete gamma at integer shape:
        # 1 - exp(-rx) * sum_{n<shape} (rx)^n / n!
        rx = self.rate * x
        term = 1.0
        total = 1.0
        for n in range(1, self.shape):
            term *= rx / n
            total += term
        return 1.0 - math.exp(-rx) * total

    def __str__(self) -> str:
        return f"erlang({self.shape}, {self.rate:g})"


@dataclass(frozen=True)
class Weibull(Distribution):
    """Weibull distribution with shape ``k`` and scale ``lam``."""

    k: float
    lam: float

    def __post_init__(self):
        if self.k <= 0 or self.lam <= 0:
            raise SpecificationError(
                f"Weibull parameters must be positive, got k={self.k}, lam={self.lam}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return self.lam * rng.weibull(self.k)

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.lam * rng.weibull(self.k, size)

    @property
    def mean(self) -> float:
        return self.lam * math.gamma(1.0 + 1.0 / self.k)

    @property
    def variance(self) -> float:
        g1 = math.gamma(1.0 + 1.0 / self.k)
        g2 = math.gamma(1.0 + 2.0 / self.k)
        return self.lam * self.lam * (g2 - g1 * g1)

    def cdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        return 1.0 - math.exp(-((x / self.lam) ** self.k))

    def __str__(self) -> str:
        return f"weibull({self.k:g}, {self.lam:g})"


@dataclass(frozen=True)
class Pareto(Distribution):
    """Pareto (type I) distribution: shape ``alpha``, minimum ``xm``.

    The canonical heavy-tailed duration law (workload interarrivals,
    service bursts): P(X > x) = (xm / x)^alpha for x >= xm.  The mean is
    infinite for ``alpha <= 1`` and the variance for ``alpha <= 2``; such
    parameterisations sample fine but have no exponential equivalent.
    """

    alpha: float
    xm: float

    def __post_init__(self):
        if not (self.alpha > 0) or not math.isfinite(self.alpha):
            raise SpecificationError(
                f"Pareto alpha must be positive and finite, got {self.alpha}"
            )
        if not (self.xm > 0) or not math.isfinite(self.xm):
            raise SpecificationError(
                f"Pareto xm must be positive and finite, got {self.xm}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        # numpy's rng.pareto draws the Lomax (Pareto II) law on [0, inf);
        # shifting by 1 and scaling by xm gives classical Pareto I.
        return self.xm * (1.0 + rng.pareto(self.alpha))

    def sample_block(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.xm * (1.0 + rng.pareto(self.alpha, size))

    @property
    def mean(self) -> float:
        if self.alpha <= 1.0:
            return math.inf
        return self.alpha * self.xm / (self.alpha - 1.0)

    @property
    def variance(self) -> float:
        if self.alpha <= 2.0:
            return math.inf
        excess = self.alpha - 1.0
        return (
            self.xm * self.xm * self.alpha
            / (excess * excess * (self.alpha - 2.0))
        )

    def cdf(self, x: float) -> float:
        if x <= self.xm:
            return 0.0
        return 1.0 - (self.xm / x) ** self.alpha

    def __str__(self) -> str:
        return f"pareto({self.alpha:g}, {self.xm:g})"


#: Distribution constructors by specification-language keyword.
DISTRIBUTION_KEYWORDS = {
    "exp": (1, lambda rate: Exponential(rate)),
    "det": (1, lambda value: Deterministic(value)),
    "normal": (2, lambda mu, sigma: Normal(mu, sigma)),
    "unif": (2, lambda low, high: Uniform(low, high)),
    "erlang": (2, lambda shape, rate: Erlang(int(shape), rate)),
    "weibull": (2, lambda k, lam: Weibull(k, lam)),
    "pareto": (2, lambda alpha, xm: Pareto(alpha, xm)),
}


def parse_distribution_spec(spec: str) -> Distribution:
    """Parse a compact ``keyword:arg,...`` spec, e.g. ``"normal:0.8,0.0345"``.

    The textual form used by the ``--workload`` CLI flag and the workload
    fit reports: the keyword, a colon, then comma-separated numeric
    arguments (``"exp:0.103"``, ``"pareto:1.2,9.7"``).  Raises
    :class:`~repro.errors.SpecificationError` pinpointing exactly what is
    wrong — the keyword, the arity, or the single argument that failed to
    parse.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise SpecificationError(
            f"empty distribution spec {spec!r}; expected 'keyword:arg,...' "
            f"such as 'normal:0.8,0.0345'"
        )
    keyword, separator, argtext = spec.partition(":")
    keyword = keyword.strip()
    if keyword not in DISTRIBUTION_KEYWORDS:
        known = ", ".join(sorted(DISTRIBUTION_KEYWORDS))
        raise SpecificationError(
            f"unknown distribution {keyword!r} in spec {spec!r} "
            f"(known: {known})"
        )
    arity, _ = DISTRIBUTION_KEYWORDS[keyword]
    if not separator or not argtext.strip():
        raise SpecificationError(
            f"distribution spec {spec!r} is missing its arguments: "
            f"{keyword!r} expects {arity} (as in "
            f"'{keyword}:{','.join(['<value>'] * arity)}')"
        )
    parts = [part.strip() for part in argtext.split(",")]
    values = []
    for position, part in enumerate(parts, start=1):
        try:
            values.append(float(part))
        except ValueError:
            raise SpecificationError(
                f"distribution spec {spec!r}: argument {position} "
                f"({part!r}) is not a number"
            ) from None
    if len(values) != arity:
        raise SpecificationError(
            f"distribution spec {spec!r}: {keyword!r} expects {arity} "
            f"argument(s), got {len(values)}"
        )
    if keyword == "erlang" and values[0] != int(values[0]):
        raise SpecificationError(
            f"distribution spec {spec!r}: Erlang shape must be a positive "
            f"integer, got {values[0]:g}"
        )
    return make_distribution(keyword, values)


def make_distribution(keyword: str, args=None) -> Distribution:
    """Construct a distribution from a keyword plus numeric arguments, or
    from a compact spec string such as ``"pareto:1.2,9.7"``.

    The two calling conventions::

        make_distribution("normal", [0.8, 0.0345])
        make_distribution("normal:0.8,0.0345")

    The second (``args`` omitted) routes through
    :func:`parse_distribution_spec`, which the ``--workload`` CLI parsing
    shares.
    """
    if args is None:
        return parse_distribution_spec(keyword)
    try:
        arity, factory = DISTRIBUTION_KEYWORDS[keyword]
    except KeyError:
        known = ", ".join(sorted(DISTRIBUTION_KEYWORDS))
        raise SpecificationError(
            f"unknown distribution {keyword!r} (known: {known})"
        ) from None
    args = list(args)
    if len(args) != arity:
        raise SpecificationError(
            f"distribution {keyword!r} expects {arity} argument(s), got {len(args)}"
        )
    return factory(*args)
