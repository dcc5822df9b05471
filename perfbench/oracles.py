"""Ground truth the benchmark computes itself, independently of factlaw.

The probability ops return estimates, so their checks compare against exact
binomial probabilities obtained by integer counting and accept an output
unless its probability under the exact model is below ``IMPLAUSIBLE``.
"""

from __future__ import annotations

import math
from fractions import Fraction

# An output this unlikely under the exact model is treated as wrong.  At this
# level a correct program fails a check about once in a billion ops.
IMPLAUSIBLE = 1e-9


def window_probability(
    n: int, p: Fraction, target: Fraction, epsilon: Fraction
) -> Fraction:
    """P(|X/n - target| <= epsilon) for X ~ Binomial(n, p), exactly.

    Sums C(n, k) a^k b^(n-k) over the window, with p = a/(a+b), as integers
    and divides once by (a+b)^n.
    """
    if not 0 < p < 1:
        raise ValueError("p must lie strictly between 0 and 1")
    lo = max(0, math.ceil((target - epsilon) * n))
    hi = min(n, math.floor((target + epsilon) * n))
    a, den = p.numerator, p.denominator
    b = den - a
    term = math.comb(n, lo) * a**lo * b ** (n - lo)
    total = 0
    for k in range(lo, hi + 1):
        total += term
        if k < n:
            term = term * (n - k) * a // ((k + 1) * b)
    return Fraction(total, den**n)


def binomial_pmf(m: int, p: float) -> list[float]:
    return [math.comb(m, k) * p**k * (1 - p) ** (m - k) for k in range(m + 1)]


def deviation_probability(hits: int, m: int, p: float) -> float:
    """P(|Y - m p| >= |hits - m p|) for Y ~ Binomial(m, p)."""
    gap = abs(hits - m * p) - 1e-12
    return sum(q for k, q in enumerate(binomial_pmf(m, p)) if abs(k - m * p) >= gap)


def reach_probability(m: int, p: float, need: int) -> float:
    """P(Y >= need) for Y ~ Binomial(m, p)."""
    return sum(binomial_pmf(m, p)[need:])


def draw_count_plausible(count: int, draws: int, p: Fraction) -> bool:
    """A label count of ``draws`` independent draws lies within 7 sigma of its mean."""
    mean = draws * p
    sigma = math.sqrt(draws * p * (1 - p))
    return abs(count - mean) <= 7 * sigma + 1
