"""Closed-form evaluators for every explicit bound the experiments compare
against.  All logarithms are natural.  Implicit-constant bounds are
constant-free comparators: runs report observed/bound ratios and only the
explicit-constant inequality (the 80 x^2 delta^3 ... non-diagonal bound) is
ever asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numtheory import z_of_delta


@dataclass(frozen=True)
class BoundInputs:
    """(x, x+y], its square-free count S and z; delta = y / x is derived."""

    x: int
    y: int
    s_count: int
    z: float

    @property
    def delta(self) -> float:
        return self.y / self.x

    @classmethod
    def from_interval(cls, x: int, y: int, s_count: int) -> "BoundInputs":
        if not 0 <= s_count <= y:
            raise ValueError(f"S must lie in [0, y], got S={s_count}, y={y}")
        return cls(x, y, s_count, z_of_delta(y / x))


def _log_y(b: BoundInputs) -> float:
    """ln y, by which the third term of both distance bounds divides."""
    if b.y < 2:
        raise ValueError(f"the distance bounds divide by ln y and need y >= 2, got y={b.y}")
    return math.log(b.y)


def wasserstein_bound_terms(b: BoundInputs) -> tuple[float, float, float]:
    """The three summands (y/S)^{3/2} (ln 1/d)^{-1/2}, (y/S) sqrt(d ln x),
    y ln x / (S^{3/2} ln y); requires S >= 1 and y >= 2."""
    ys = b.y / b.s_count
    t1 = ys ** 1.5 / math.sqrt(math.log(1.0 / b.delta))
    t2 = ys * math.sqrt(b.delta * math.log(b.x))
    t3 = b.y * math.log(b.x) / (b.s_count ** 1.5 * _log_y(b))
    return t1, t2, t3


def kolmogorov_bound_terms(b: BoundInputs) -> tuple[float, float, float]:
    """The three summands of the Kolmogorov-side bound; term by term these
    are the square roots of wasserstein_bound_terms."""
    ys = b.y / b.s_count
    t1 = ys ** 0.75 / math.log(1.0 / b.delta) ** 0.25
    t2 = math.sqrt(ys) * (b.delta * math.log(b.x)) ** 0.25
    t3 = math.sqrt(b.y * math.log(b.x)) / (b.s_count ** 0.75 * math.sqrt(_log_y(b)))
    return t1, t2, t3


def wasserstein_bound(b: BoundInputs) -> float:
    """min(1, sum of wasserstein_bound_terms); the clamp 1 when S = 0 (degenerate
    interval) so batch sweeps never abort."""
    if b.s_count <= 0:
        return 1.0
    return min(1.0, sum(wasserstein_bound_terms(b)))


def kolmogorov_bound(b: BoundInputs) -> float:
    """min(1, sum of kolmogorov_bound_terms); clamp as in wasserstein_bound."""
    if b.s_count <= 0:
        return 1.0
    return min(1.0, sum(kolmogorov_bound_terms(b)))


def nondiagonal_bound(x: int, delta: float) -> float:
    """Explicit non-diagonal square-quadruple bound
    80 x^2 d^3 (1 + 2 ln x)(1 + 2 d ln x)."""
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    lx = math.log(x)
    return 80.0 * x * x * delta ** 3 * (1.0 + 2.0 * lx) * (1.0 + 2.0 * delta * lx)


def delta3_sum_bound(x: int, y: int, z: float) -> float:
    """Constant-free comparator y^{3/2}/sqrt(z) + y ln x / ln y for the
    summed third moments of the per-prime increments."""
    if y < 2:
        raise ValueError(f"y must be >= 2, got {y}")
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    return y ** 1.5 / math.sqrt(z) + y * math.log(x) / math.log(y)


def exchange_variance_bound(x: int, delta: float, z: float) -> float:
    """Constant-free comparator x^2 d^2 (1 + d ln x)(1/z + d ln x) for the
    variance of the conditional exchange statistic."""
    if z <= 0:
        raise ValueError(f"z must be positive, got {z}")
    dlx = delta * math.log(x)
    return x * x * delta * delta * (1.0 + dlx) * (1.0 / z + dlx)

