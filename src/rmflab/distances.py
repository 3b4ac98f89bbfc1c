"""Distance of an empirical sample from the standard normal: exact
Wasserstein-1 and Kolmogorov statistics and the K <= 2*sqrt(W) inequality
check.

Wasserstein-1 against the continuous reference is integrated EXACTLY in
closed form plateau by plateau (antiderivative t*Phi(t) + phi(t)), with the
two tails handled analytically, rather than by Monte Carlo or quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(t: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * t * t)


def normal_cdf(t: float) -> float:
    """Phi(t), via the complementary error function (abs error << 1e-9)."""
    return 0.5 * math.erfc(-t / _SQRT2)


# Acklam's rational approximation to the normal quantile (relative error
# below 1.15e-9 on (0,1)), sharpened by one Newton step on Phi.
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)
_Q_LOW = 0.02425


def normal_quantile(q: float) -> float:
    """Phi^{-1}(q) for q in (0,1); inverts normal_cdf to well below 1e-8
    over q in [1e-9, 1 - 1e-9]."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile argument must lie in (0,1), got {q}")
    if q < _Q_LOW:
        t = math.sqrt(-2.0 * math.log(q))
        x = ((((((_QC[0] * t + _QC[1]) * t + _QC[2]) * t + _QC[3]) * t + _QC[4]) * t + _QC[5])
             / ((((_QD[0] * t + _QD[1]) * t + _QD[2]) * t + _QD[3]) * t + 1.0))
    elif q <= 1.0 - _Q_LOW:
        t = q - 0.5
        t2 = t * t
        x = ((((((_QA[0] * t2 + _QA[1]) * t2 + _QA[2]) * t2 + _QA[3]) * t2 + _QA[4]) * t2 + _QA[5]) * t
             / (((((_QB[0] * t2 + _QB[1]) * t2 + _QB[2]) * t2 + _QB[3]) * t2 + _QB[4]) * t2 + 1.0))
    else:
        t = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -((((((_QC[0] * t + _QC[1]) * t + _QC[2]) * t + _QC[3]) * t + _QC[4]) * t + _QC[5])
              / ((((_QD[0] * t + _QD[1]) * t + _QD[2]) * t + _QD[3]) * t + 1.0))
    d = normal_pdf(x)
    if d > 0.0:
        x -= (normal_cdf(x) - q) / d
    return x


@dataclass(frozen=True)
class SampleSet:
    """A finite sample as ascending values with their counts (default one
    each); values may repeat.  from_values gives the distinct values."""

    values: tuple[float, ...]
    counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.counts is None:
            object.__setattr__(self, "counts", (1,) * len(self.values))
        v = np.asarray(self.values, dtype=np.float64)
        if v.size < 1:
            raise ValueError("sample must contain at least one value")
        if not np.isfinite(v).all():
            raise ValueError("sample values must be finite")
        if (v[1:] < v[:-1]).any():
            raise ValueError("sample values must be sorted ascending")
        if len(self.counts) != v.size or min(self.counts) < 1:
            raise ValueError("sample needs one positive count per value")

    @classmethod
    def from_values(cls, values) -> "SampleSet":
        """The distinct values of an array or any iterable of numbers, with
        their counts."""
        if isinstance(values, np.ndarray):
            v = values.astype(np.float64, copy=False)
        else:
            v = np.fromiter(values, dtype=np.float64)
        distinct, counts = np.unique(v, return_counts=True)
        return cls(tuple(distinct.tolist()), tuple(counts.tolist()))

    @property
    def n(self) -> int:
        return sum(self.counts)


def kolmogorov_stat(sample: SampleSet) -> float:
    """sup_t |F_n(t) - Phi(t)|: at a value with a sample points below it and
    b up to it the empirical CDF jumps from a/n to b/n.  The rounded
    j/n - Phi is monotone in j, so |j/n - Phi| over a <= j <= b is largest
    at j = a or j = b: the result is that of a pass over every order
    statistic, bit for bit."""
    n = sample.n
    d = 0.0
    below = 0
    for x, k in zip(sample.values, sample.counts):
        c = normal_cdf(x)
        through = below + k
        d = max(d, abs(through / n - c), abs(below / n - c))
        below = through
    return d


def wasserstein1(sample: SampleSet) -> float:
    """Integral of |F_n(t) - Phi(t)| dt, exactly.

    On the plateau of F_n at level c between consecutive distinct values the
    integrand is |c - Phi(t)|; it is split at the crossing Phi^{-1}(c) when
    interior and integrated in closed form with G(t) = t*Phi(t) + phi(t) - c*t.
    The level-0 and level-1 tails reduce to x1*Phi(x1) + phi(x1) and
    phi(xn) - xn*(1 - Phi(xn)).
    """
    xs = sample.values
    n = sample.n

    x1, xn = xs[0], xs[-1]
    total = x1 * normal_cdf(x1) + normal_pdf(x1)
    total += normal_pdf(xn) - xn * (1.0 - normal_cdf(xn))

    def g(t: float, c: float) -> float:
        return t * normal_cdf(t) + normal_pdf(t) - c * t

    j = 0
    for a, b, k in zip(xs, xs[1:], sample.counts):
        j += k
        if a == b:
            continue
        c = j / n
        t_star = normal_quantile(c)
        if t_star <= a:
            total += g(b, c) - g(a, c)
        elif t_star >= b:
            total += g(a, c) - g(b, c)
        else:
            total += (g(a, c) - g(t_star, c)) + (g(b, c) - g(t_star, c))
    return total


def kkw_from(k: float, w1: float) -> tuple[bool, float]:
    """Check K <= 2*sqrt(W) for a Kolmogorov distance k and a Wasserstein-1
    distance w1 already computed; returns (holds, K / (2*sqrt(W)))."""
    bound = 2.0 * math.sqrt(w1)
    return k <= bound, k / bound

