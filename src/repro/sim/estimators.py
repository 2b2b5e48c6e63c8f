"""Interval estimators for simulated measures.

Simulated trajectories earn rewards from the same
:class:`~repro.ctmc.measures.RewardTable` the analytic solver reads
(each engine accumulates ``STATE_REWARD`` rates over sojourn time and
``TRANS_REWARD`` impulses at firings, per unit of measured model time),
which is what makes the cross-validation of Sect. 5.1 meaningful.  This
module holds the interval constructions for the resulting estimates
whose plain Student-t form breaks down near zero.
"""

from __future__ import annotations

import math
from typing import Tuple

from scipy import stats


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The normal (Wald) interval ``p ± z·sqrt(p(1-p)/n)`` collapses to
    zero width at ``p ∈ {0, 1}`` and goes negative near 0 — exactly the
    regime rare-event probabilities live in.  The Wilson construction
    inverts the score test instead, so the bounds always stay inside
    ``[0, 1]`` and zero observed events still yield a strictly positive
    upper bound (for ``k = 0``: ``z² / (n + z²)``, the rigorous cousin
    of the "rule of three").
    """
    if trials <= 0:
        raise ValueError(f"need at least one trial, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    n = float(trials)
    p = successes / n
    denominator = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denominator
    spread = (
        z
        * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
        / denominator
    )
    return max(0.0, centre - spread), min(1.0, centre + spread)


def log_scale_interval(
    mean: float, std_dev: float, runs: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Delta-method confidence interval for a positive mean, on the log
    scale.

    A Student-t interval on ``log(mean)`` has half-width
    ``t · s / (√n · mean)``; exponentiating gives a *multiplicative*
    interval ``mean · exp(±half)`` whose lower bound can never go
    negative — the correct shape for a near-zero probability, where the
    additive t interval reports impossible values
    (docs/RELIABILITY.md).
    """
    if runs < 2:
        raise ValueError(f"need at least two runs, got {runs}")
    if mean <= 0.0:
        raise ValueError(f"log-scale interval needs mean > 0, got {mean}")
    critical = float(stats.t.ppf(0.5 + confidence / 2.0, runs - 1))
    half = critical * std_dev / (math.sqrt(runs) * mean)
    return mean * math.exp(-half), mean * math.exp(half)
