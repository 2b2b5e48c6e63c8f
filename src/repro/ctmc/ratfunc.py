"""Univariate rational-function arithmetic for parametric solving.

Two representations, used at the two ends of the parametric pipeline
(:mod:`repro.ctmc.parametric`, docs/SOLVERS.md):

* **Exact**: :class:`Polynomial` / :class:`RationalFunction` over
  :class:`fractions.Fraction` coefficients.  Used for the *symbolic* layer
  — turning a rate expression like ``exp(1 / awake_period)`` into the
  rational atom ``1/p`` — where degrees stay tiny and exactness means the
  atom analysis (degree, positivity, pole location) is trustworthy.
  Deliberately *not* used for state elimination: coefficients derived
  from floats carry ~2^52 denominators and naive elimination over them
  suffers classic coefficient swell.

* **Stabilized float**: :class:`BarycentricRational` — a rational
  function represented by its values at support nodes with barycentric
  weights.  This is the numerically stable form the per-measure
  steady-state functions are reconstructed into (:func:`aaa_fit`, the
  AAA algorithm of Nakatsukasa-Sete-Trefethen), evaluated in
  microseconds per sweep point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import numpy as np

from ..errors import ParametricError

Scalar = Union[int, float, Fraction]


def _fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


# ---------------------------------------------------------------------------
# Exact polynomials.
# ---------------------------------------------------------------------------


class Polynomial:
    """A univariate polynomial with exact Fraction coefficients.

    Coefficients are stored low-degree first and trimmed, so the zero
    polynomial has no coefficients and ``degree == -1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        trimmed = [_fraction(c) for c in coeffs]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(trimmed)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        return cls((value,))

    @classmethod
    def x(cls) -> "Polynomial":
        """The identity polynomial ``p``."""
        return cls((0, 1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scale(self, factor: Scalar) -> "Polynomial":
        factor = _fraction(factor)
        return Polynomial([c * factor for c in self.coeffs])

    def pow(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("Polynomial.pow needs a non-negative exponent")
        result = Polynomial.constant(1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- evaluation --------------------------------------------------------

    def evaluate(self, value: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        value = _fraction(value)
        acc = Fraction(0)
        for coefficient in reversed(self.coeffs):
            acc = acc * value + coefficient
        return acc

    def evaluate_float(self, value: float) -> float:
        acc = 0.0
        for coefficient in reversed(self.coeffs):
            acc = acc * value + float(coefficient)
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        terms = [
            f"{c}*p^{i}" if i else f"{c}"
            for i, c in enumerate(self.coeffs)
            if c != 0
        ]
        return f"Polynomial({' + '.join(terms)})"


def _poly_divmod(
    a: Polynomial, b: Polynomial
) -> Tuple[Polynomial, Polynomial]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    remainder = list(a.coeffs)
    lead = b.coeffs[-1]
    while len(remainder) >= len(b.coeffs):
        factor = remainder[-1] / lead
        shift = len(remainder) - len(b.coeffs)
        quotient[shift] = factor
        for i, c in enumerate(b.coeffs):
            remainder[shift + i] -= factor * c
        while remainder and remainder[-1] == 0:
            remainder.pop()
        if not remainder:
            break
    return Polynomial(quotient), Polynomial(remainder)


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic Euclidean GCD — cheap only for the small degrees of atoms."""
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    lead = a.coeffs[-1]
    return Polynomial([c / lead for c in a.coeffs])


#: Exact cancellation is skipped above this degree: the Euclid remainder
#: sequence over Fractions swells quadratically and the exact layer only
#: ever needs tiny degrees (rate-expression atoms).
GCD_DEGREE_LIMIT = 24


# ---------------------------------------------------------------------------
# Exact rational functions.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """An exact quotient of polynomials ``num / den`` in one parameter.

    Normalised on construction: common polynomial factors are cancelled
    (for degrees within :data:`GCD_DEGREE_LIMIT`) and the denominator is
    made monic, so structurally equal functions compare equal.
    """

    num: Polynomial
    den: Polynomial

    def __post_init__(self):
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = self.num, self.den
        if num.is_zero:
            den = Polynomial.constant(1)
        elif (
            num.degree <= GCD_DEGREE_LIMIT
            and den.degree <= GCD_DEGREE_LIMIT
        ):
            common = _poly_gcd(num, den)
            if common.degree > 0:
                num, _ = _poly_divmod(num, common)
                den, _ = _poly_divmod(den, common)
        lead = den.coeffs[-1]
        if lead != 1:
            num = Polynomial([c / lead for c in num.coeffs])
            den = Polynomial([c / lead for c in den.coeffs])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar) -> "RationalFunction":
        return cls(Polynomial.constant(value), Polynomial.constant(1))

    @classmethod
    def x(cls) -> "RationalFunction":
        """The identity function ``p``."""
        return cls(Polynomial.x(), Polynomial.constant(1))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """max(deg num, deg den) — the size guard the budgets use."""
        return max(self.num.degree, self.den.degree)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.num, self.den * other.den
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(
            self.num * other.den, self.den * other.num
        )

    def compose(self, inner: "RationalFunction") -> "RationalFunction":
        """``self(inner(p))`` — substitute *inner* for the parameter.

        Computed via Horner over the coefficients so numerator and
        denominator are composed against the same inner function.
        """
        num = RationalFunction.constant(0)
        for coefficient in reversed(self.num.coeffs):
            num = num * inner + RationalFunction.constant(coefficient)
        den = RationalFunction.constant(0)
        for coefficient in reversed(self.den.coeffs):
            den = den * inner + RationalFunction.constant(coefficient)
        return num / den

    # -- evaluation --------------------------------------------------------

    def evaluate(self, value: Scalar) -> Fraction:
        """Exact evaluation; raises ZeroDivisionError exactly at poles."""
        value = _fraction(value)
        denominator = self.den.evaluate(value)
        if denominator == 0:
            raise ZeroDivisionError(
                f"rational function has a pole at {value}"
            )
        return self.num.evaluate(value) / denominator

    def evaluate_float(self, value: float) -> float:
        return self.num.evaluate_float(value) / self.den.evaluate_float(
            value
        )

    def evaluate_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at many points (the node ring)."""
        num = np.zeros_like(nodes)
        for coefficient in reversed(
            self.num.coeffs or (Fraction(0),)
        ):
            num = num * nodes + float(coefficient)
        den = np.zeros_like(nodes)
        for coefficient in reversed(self.den.coeffs):
            den = den * nodes + float(coefficient)
        # A node sitting on a pole yields inf/nan by design; downstream
        # finiteness checks reject such chains, so no warning is needed.
        with np.errstate(divide="ignore", invalid="ignore"):
            return num / den

    def __repr__(self) -> str:
        return f"RationalFunction({self.num!r} / {self.den!r})"


# ---------------------------------------------------------------------------
# Barycentric rational functions (the stabilized-float representation).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarycentricRational:
    """A rational interpolant in barycentric form.

    ``r(x) = sum_j w_j f_j / (x - z_j)  /  sum_j w_j / (x - z_j)``

    Exact (by construction) at the support nodes ``z``; smooth and
    numerically stable in between.  Degree is at most ``len(z) - 1``
    over ``len(z) - 1``.  Picklable — plain numpy arrays — so parametric
    solutions can ship to worker processes.
    """

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("nodes", "values", "weights"):
            object.__setattr__(
                self, name, np.asarray(getattr(self, name), float)
            )
        if not (
            self.nodes.shape == self.values.shape == self.weights.shape
        ) or self.nodes.ndim != 1 or self.nodes.size == 0:
            raise ParametricError(
                "barycentric support nodes/values/weights must be "
                "equal-length non-empty vectors",
                reason="fit",
            )
        # Precomputed (z_j, w_j*f_j, w_j, f_j) rows as plain floats: the
        # scalar fast path below runs once per sweep point per measure,
        # and with <= max_support terms a Python loop beats the array
        # machinery's per-call overhead several-fold.
        object.__setattr__(
            self,
            "_support",
            list(
                zip(
                    self.nodes.tolist(),
                    (self.weights * self.values).tolist(),
                    self.weights.tolist(),
                    self.values.tolist(),
                )
            ),
        )

    def __getstate__(self):
        return (self.nodes, self.values, self.weights)

    def __setstate__(self, state):
        nodes, values, weights = state
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        self.__post_init__()

    @property
    def degree(self) -> int:
        return int(self.nodes.size) - 1

    def __call__(
        self, x: Union[float, np.ndarray]
    ) -> Union[float, np.ndarray]:
        scalar = np.isscalar(x)
        if scalar:
            # Dedicated scalar path: a dense parametric sweep calls this
            # once per (point, measure), and the generic array path's
            # errstate/atleast_1d overhead would dominate the microsecond
            # evaluation cost it exists to deliver.
            point = float(x)
            numerator = 0.0
            denominator = 0.0
            for node, weighted, weight, value in self._support:
                difference = point - node
                if difference == 0.0:
                    return value
                numerator += weighted / difference
                denominator += weight / difference
            return numerator / denominator
        # The array path adds node by node in the scalar path's order,
        # so every element is == to the scalar evaluation of its point.
        points = np.atleast_1d(np.asarray(x, float))
        numerator = np.zeros(points.shape)
        denominator = np.zeros(points.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            for node, weighted, weight, _ in self._support:
                difference = points - node
                numerator += weighted / difference
                denominator += weight / difference
            out = numerator / denominator
        # A point on a support node takes that node's stored value.
        on_node = (points[:, None] - self.nodes) == 0.0
        exact = on_node.any(axis=1)
        if exact.any():
            out[exact] = self.values[on_node[exact].argmax(axis=1)]
        return out

    def poles(self) -> np.ndarray:
        """Complex poles of the interpolant (generalized eig pencil)."""
        size = self.nodes.size
        if size < 2:
            return np.empty(0, complex)
        from scipy import linalg as scipy_linalg

        pencil_a = np.zeros((size + 1, size + 1))
        pencil_a[0, 1:] = self.weights
        pencil_a[1:, 0] = 1.0
        pencil_a[1:, 1:] = np.diag(self.nodes)
        pencil_e = np.eye(size + 1)
        pencil_e[0, 0] = 0.0
        eigenvalues = scipy_linalg.eigvals(pencil_a, pencil_e)
        return eigenvalues[np.isfinite(eigenvalues)]

    def real_poles_in(self, low: float, high: float) -> np.ndarray:
        """Real poles inside ``[low, high]`` (spurious-pole detection)."""
        poles = self.poles()
        if poles.size == 0:
            return np.empty(0)
        span = max(high - low, 1.0)
        real = poles[np.abs(poles.imag) <= 1e-10 * span].real
        return real[(real >= low) & (real <= high)]


def aaa_fit(
    nodes: np.ndarray,
    values: np.ndarray,
    relative_tolerance: float = 1e-12,
    max_support: int = 40,
) -> Tuple[BarycentricRational, float]:
    """Fit a barycentric rational to samples by the AAA algorithm.

    Greedily moves the worst-fit sample into the support set and
    recomputes the weights as the smallest singular vector of the
    Loewner matrix.  Returns the interpolant and its worst *relative*
    error over the non-support samples — those samples never constrain
    the fit directly, so the error doubles as holdout validation.

    Raises :class:`~repro.errors.ParametricError` when *max_support*
    terms cannot reach *relative_tolerance* (degree budget exceeded —
    the caller falls back to concrete per-point solving).
    """
    nodes = np.asarray(nodes, float)
    values = np.asarray(values, float)
    if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 2:
        raise ParametricError(
            "AAA needs at least two one-dimensional samples", reason="fit"
        )
    if not np.all(np.isfinite(values)):
        raise ParametricError(
            "AAA samples contain non-finite values", reason="fit"
        )
    scale = float(np.abs(values).max(initial=0.0))
    if scale == 0.0:
        support = np.array([nodes[0]])
        return (
            BarycentricRational(support, np.zeros(1), np.ones(1)),
            0.0,
        )
    in_support = np.zeros(nodes.size, bool)
    approximation = np.full(nodes.size, values.mean())
    best: Tuple[float, BarycentricRational] = (float("inf"), None)
    limit = min(max_support, nodes.size - 1)
    for _ in range(limit):
        gap = np.abs(values - approximation)
        gap[in_support] = -1.0
        in_support[int(np.argmax(gap))] = True
        support_nodes = nodes[in_support]
        support_values = values[in_support]
        rest_nodes = nodes[~in_support]
        rest_values = values[~in_support]
        cauchy = 1.0 / (
            rest_nodes[:, None] - support_nodes[None, :]
        )
        loewner = (
            rest_values[:, None] - support_values[None, :]
        ) * cauchy
        _, _, vh = np.linalg.svd(loewner, full_matrices=False)
        weights = vh[-1].conj()
        with np.errstate(divide="ignore", invalid="ignore"):
            rest_fit = (cauchy @ (weights * support_values)) / (
                cauchy @ weights
            )
        approximation = values.copy()
        approximation[~in_support] = rest_fit
        if not np.all(np.isfinite(rest_fit)):
            continue
        error = float(
            np.abs(rest_fit - rest_values).max(initial=0.0)
        ) / scale
        candidate = BarycentricRational(
            support_nodes.copy(), support_values.copy(), weights.real
        )
        if error < best[0]:
            best = (error, candidate)
        if error <= relative_tolerance:
            return candidate, error
    if best[1] is not None and best[0] <= relative_tolerance:
        return best[1], best[0]
    raise ParametricError(
        f"AAA fit did not reach relative tolerance "
        f"{relative_tolerance:.1e} within {limit} support points "
        f"(best {best[0]:.3e})",
        reason="budget",
    )


__all__: List[str] = [
    "BarycentricRational",
    "GCD_DEGREE_LIMIT",
    "Polynomial",
    "RationalFunction",
    "aaa_fit",
]
