"""Empirical quantile estimators for small samples.

Two estimators are supported: linear interpolation between order statistics
(Hyndman-Fan type 7, the default) and the generalized inverse of the empirical
distribution function (type 1). For sample size 11 and levels 0.5 / 0.8 the two
coincide, so interval endpoints equal observed errors directly.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

from intervalcast.domain import Token


class EmptyErrorSetError(ValueError):
    pass


class InvalidErrorValueError(ValueError):
    pass


class QuantileMethod(Token):
    INVERSE_ECDF = "type1"
    LINEAR = "type7"
    LINEAR_INTERPOLATION = "type7"  # an alias of LINEAR, read from text


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
    return empirical_quantiles(samples, (tau,), method)[0]


def empirical_quantiles(
    samples: Sequence[float],
    taus: Sequence[float],
    method: QuantileMethod = QuantileMethod.LINEAR,
) -> list[float]:
    """``empirical_quantile`` at each level of ``taus``, from one sorted copy
    of ``samples`` checked once."""
    xs = sorted_samples(samples)
    return read_sorted(xs, index_table(len(xs), tuple(map(float, taus)), method))


def sorted_samples(samples: Sequence[float]) -> list[float]:
    """``samples`` as ascending floats, checked nonempty and finite."""
    if len(samples) == 0:
        raise EmptyErrorSetError("empty error set: no samples to take a quantile of")
    xs = sorted(map(float, samples))
    if not all(map(math.isfinite, xs)):
        raise InvalidErrorValueError("invalid error value: samples must be finite")
    return xs


IndexTable = tuple[tuple[int, Optional[float]], ...]


@lru_cache(maxsize=1024)
def index_table(n: int, taus: tuple[float, ...], method: QuantileMethod) -> IndexTable:
    """Where each tau-quantile of ``n`` ascending samples is read: ``(i, None)``
    reads ``xs[i]`` and ``(i, g)`` interpolates by ``g`` from ``xs[i]`` toward
    ``xs[i + 1]``. It depends on n, tau and the method only (Hyndman & Fan 1996)."""
    table = []
    for tau in taus:
        if not (0.0 < tau < 1.0):
            raise ValueError(f"quantile level {tau} outside (0, 1)")
        if method is QuantileMethod.LINEAR:
            rank = 1.0 + (n - 1) * tau
            j = int(math.floor(rank))
            g = rank - j
            table.append((j - 1, None if g == 0.0 else g))  # rank <= n, and rank == n has g == 0.0
            continue
        # Inverse ECDF: smallest k with k/n >= tau, evaluated with the same
        # floating-point comparison an ECDF scan would use. k/n rounds
        # monotonically in k, so stepping from ceil(n*tau) finds it.
        k = min(max(math.ceil(n * tau), 1), n)
        while k > 1 and (k - 1) / n >= tau:
            k -= 1
        while k < n and k / n < tau:
            k += 1
        table.append((k - 1, None))
    return tuple(table)


def read_sorted(xs: Sequence[float], table: IndexTable) -> list[float]:
    """The quantiles that ``table`` locates in the ascending, finite ``xs``."""
    return [xs[i] if g is None else xs[i] + g * (xs[i + 1] - xs[i]) for i, g in table]
