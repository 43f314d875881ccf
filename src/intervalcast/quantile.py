"""Empirical quantile estimators for small samples.

Two estimators are supported: linear interpolation between order statistics
(Hyndman-Fan type 7, the default) and the generalized inverse of the empirical
distribution function (type 1). For sample size 11 and levels 0.5 / 0.8 the two
coincide, so interval endpoints equal observed errors directly.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence


class EmptyErrorSetError(ValueError):
    pass


class InvalidErrorValueError(ValueError):
    pass


class QuantileMethod(Enum):
    INVERSE_ECDF = "type1"
    LINEAR = "type7"

    @classmethod
    def parse(cls, token: str) -> "QuantileMethod":
        token = token.strip().lower().replace("-", "_")
        aliases = {
            "type1": cls.INVERSE_ECDF,
            "inverse_ecdf": cls.INVERSE_ECDF,
            "type7": cls.LINEAR,
            "linear": cls.LINEAR,
            "linear_interpolation": cls.LINEAR,
        }
        if token not in aliases:
            raise ValueError(f"unknown quantile method {token!r}")
        return aliases[token]


def empirical_quantile(
    samples: Sequence[float],
    tau: float,
    method: QuantileMethod = QuantileMethod.LINEAR,
) -> float:
    """Empirical tau-quantile of ``samples``.

    LINEAR evaluates the fractional ascending rank 1 + (n-1)*tau and linearly
    interpolates between the two bracketing order statistics. INVERSE_ECDF
    returns the smallest sample value whose empirical CDF reaches tau.
    """
    return _read_sorted(_sorted_finite(samples), tau, method)


def empirical_quantiles(
    samples: Sequence[float],
    taus: Sequence[float],
    method: QuantileMethod = QuantileMethod.LINEAR,
) -> list[float]:
    """``empirical_quantile`` at each level of ``taus``, from one sorted copy
    of ``samples`` checked once."""
    xs = _sorted_finite(samples)
    return [_read_sorted(xs, tau, method) for tau in taus]


def _sorted_finite(samples: Sequence[float]) -> list[float]:
    if len(samples) == 0:
        raise EmptyErrorSetError("empty error set: no samples to take a quantile of")
    xs = sorted(map(float, samples))
    if not all(map(math.isfinite, xs)):
        raise InvalidErrorValueError("invalid error value: samples must be finite")
    return xs


def _read_sorted(xs: list[float], tau: float, method: QuantileMethod) -> float:
    """The tau-quantile of the ascending, finite, nonempty ``xs``."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"quantile level {tau} outside (0, 1)")
    n = len(xs)
    if method is QuantileMethod.LINEAR:
        rank = 1.0 + (n - 1) * tau
        j = int(math.floor(rank))
        g = rank - j
        if j >= n:
            return xs[-1]
        if g == 0.0:
            return xs[j - 1]
        return xs[j - 1] + g * (xs[j] - xs[j - 1])
    # Inverse ECDF: smallest k with k/n >= tau, evaluated with the same
    # floating-point comparison an ECDF scan would use. k/n rounds
    # monotonically in k, so stepping from ceil(n*tau) finds it.
    k = min(max(math.ceil(n * tau), 1), n)
    while k > 1 and (k - 1) / n >= tau:
        k -= 1
    while k < n and k / n < tau:
        k += 1
    return xs[k - 1]
