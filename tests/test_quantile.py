import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcast.quantile import (
    EmptyErrorSetError,
    InvalidErrorValueError,
    QuantileMethod,
    empirical_quantile,
    empirical_quantiles,
    index_table,
    read_sorted,
)


def ecdf_inverse_oracle(samples, tau):
    """Smallest sample value whose empirical CDF reaches tau, by exhaustive scan."""
    xs = sorted(samples)
    n = len(xs)
    for v in xs:
        if sum(1 for s in xs if s <= v) / n >= tau:
            return v
    return xs[-1]


def test_linear_eleven_values_tau_08():
    samples = [round(0.1 * i, 10) for i in range(1, 12)]
    # Fractional rank 1 + 10*0.8 = 9: the 9th ascending order statistic.
    assert empirical_quantile(samples, 0.8) == pytest.approx(0.9, abs=1e-12)


def test_linear_median_of_consecutive_integers():
    assert empirical_quantile(list(range(1, 12)), 0.5) == 6


def test_linear_interpolates_between_order_statistics():
    assert empirical_quantile([1, 2, 3, 4], 0.5) == 2.5


def test_methods_coincide_for_eleven_samples_at_default_levels():
    samples = list(np.random.default_rng(1).normal(size=11))
    for tau in (0.5, 0.8):
        assert empirical_quantile(samples, tau, QuantileMethod.LINEAR) == pytest.approx(
            empirical_quantile(samples, tau, QuantileMethod.INVERSE_ECDF), abs=0
        )


def test_empty_and_invalid_samples():
    with pytest.raises(EmptyErrorSetError):
        empirical_quantile([], 0.5)
    with pytest.raises(InvalidErrorValueError):
        empirical_quantile([1.0, float("nan")], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 0.0)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.0)


@pytest.mark.parametrize("method", list(QuantileMethod))
def test_monotone_in_tau(method, rng):
    for _ in range(50):
        samples = list(rng.normal(size=rng.integers(1, 15)))
        taus = np.sort(rng.uniform(0.01, 0.99, size=10))
        values = [empirical_quantile(samples, t, method) for t in taus]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("method", list(QuantileMethod))
def test_bracketing_and_permutation_invariance(method, rng):
    for _ in range(50):
        samples = list(rng.normal(size=rng.integers(1, 15)))
        tau = float(rng.uniform(0.01, 0.99))
        value = empirical_quantile(samples, tau, method)
        assert min(samples) <= value <= max(samples)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert empirical_quantile(shuffled, tau, method) == value


def test_inverse_ecdf_matches_scan_oracle(rng):
    for n in range(1, 21):
        samples = list(rng.normal(size=n))
        for tau in [0.05 * k for k in range(1, 20)]:
            assert empirical_quantile(samples, tau, QuantileMethod.INVERSE_ECDF) == (
                ecdf_inverse_oracle(samples, tau)
            )


@settings(max_examples=500, deadline=None)
@given(
    n=st.integers(1, 200),
    k=st.integers(0, 200),
    nudge=st.sampled_from([0.0, 1e-17, -1e-17, 1e-12, -1e-12]),
    tau=st.one_of(st.none(), st.floats(1e-9, 1 - 1e-9)),
)
def test_inverse_ecdf_is_the_first_k_over_n_reaching_tau(n, k, nudge, tau):
    # Levels at and next to the steps k/n, where a closed form could round
    # differently from the scan.
    if tau is None:
        tau = min(max(k % (n + 1) / n + nudge, 1e-9), 1 - 1e-9)
    xs = list(range(n))
    first = next((j for j in range(1, n + 1) if j / n >= tau), n)
    assert empirical_quantile(xs, tau, QuantileMethod.INVERSE_ECDF) == first - 1


def test_linear_matches_numpy(rng):
    for n in range(1, 21):
        samples = rng.normal(size=n)
        for tau in [0.05 * k for k in range(1, 20)]:
            expected = float(np.quantile(samples, tau, method="linear"))
            got = empirical_quantile(list(samples), tau, QuantileMethod.LINEAR)
            assert got == pytest.approx(expected, abs=1e-12)


# The levels a pipeline reads: tau and the directional (1 -+ tau) / 2.
PIPELINE_TAUS = sorted(
    {t for k in range(1, 10) for t in (k / 10, (1 - k / 10) / 2, (1 + k / 10) / 2)}
)


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60),
    taus=st.lists(
        st.one_of(st.sampled_from(PIPELINE_TAUS), st.floats(1e-6, 1 - 1e-6)),
        min_size=1, max_size=20,
    ),
    method=st.sampled_from(list(QuantileMethod)),
)
def test_multi_level_reader_equals_single_level_calls(samples, taus, method):
    together = empirical_quantiles(samples, taus, method)
    assert together == [empirical_quantile(samples, tau, method) for tau in taus]


def test_multi_level_reader_checks_the_window():
    with pytest.raises(EmptyErrorSetError):
        empirical_quantiles([], [0.5])
    with pytest.raises(InvalidErrorValueError):
        empirical_quantiles([1.0, float("inf")], [0.5])
    with pytest.raises(ValueError):
        empirical_quantiles([1.0], [0.5, 1.0])


def scan_read(xs, tau, method):
    """The tau-quantile of the ascending ``xs`` computed afresh at each call:
    the per-call reader that ``index_table`` replaced, kept as its oracle."""
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
    k = min(max(math.ceil(n * tau), 1), n)
    while k > 1 and (k - 1) / n >= tau:
        k -= 1
    while k < n and k / n < tau:
        k += 1
    return xs[k - 1]


def step_levels(n):
    """Levels at and next to every step k/n of the ECDF and k/(n-1) of the
    type-7 rank, inside (0, 1)."""
    steps = {k / n for k in range(n + 1)} | {k / (n - 1) for k in range(n) if n > 1}
    near = {t for s in steps for t in (s, math.nextafter(s, 0.0), math.nextafter(s, 1.0))}
    return sorted(t for t in near if 0.0 < t < 1.0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 80),
    data=st.data(),
    method=st.sampled_from(list(QuantileMethod)),
)
def test_index_table_reads_equal_the_per_call_scan(n, data, method):
    # Ties, signed zeros and wide magnitudes, where a read of the wrong
    # order statistic or an interpolation with g == 0 would show.
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    xs = sorted(data.draw(st.lists(values, min_size=n, max_size=n)))
    taus = step_levels(n) + data.draw(st.lists(st.floats(1e-9, 1 - 1e-9), max_size=5))
    got = read_sorted(xs, index_table(n, tuple(taus), method))
    assert list(map(repr, got)) == [repr(scan_read(xs, tau, method)) for tau in taus]


def test_index_table_covers_every_step_up_to_eighty():
    rng = np.random.default_rng(7)
    for n in range(1, 81):
        xs = sorted(float(x) for x in np.round(rng.normal(size=n), 1))
        taus = tuple(step_levels(n) + PIPELINE_TAUS)
        for method in QuantileMethod:
            got = read_sorted(xs, index_table(n, taus, method))
            assert list(map(repr, got)) == [repr(scan_read(xs, tau, method)) for tau in taus]


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, float("nan")])
def test_index_table_rejects_levels_outside_the_unit_interval(tau):
    with pytest.raises(ValueError, match="outside"):
        index_table(5, (0.5, tau), QuantileMethod.LINEAR)


def linear_entry_with_last_arm(n, tau):
    """The linear read's table entry as it was computed with a separate
    ``j >= n`` arm, kept as the oracle of the general arm alone."""
    rank = 1.0 + (n - 1) * tau
    j = int(math.floor(rank))
    g = rank - j
    return (n - 1, None) if j >= n else (j - 1, None if g == 0.0 else g)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_linear_rank_that_rounds_to_n_reads_the_last_sample(n):
    tau = 1 - 2**-53
    assert 1.0 + (n - 1) * tau == n  # the rank rounds up to n, with g == 0.0
    assert index_table(n, (tau,), QuantileMethod.LINEAR) == ((n - 1, None),)


def test_linear_table_equals_the_one_with_a_last_sample_arm():
    ends = {5e-324, 2**-53, 2**-52, 1e-300, 1 - 2**-53, 1 - 2**-52, 1 - 1e-16}
    for n in range(1, 201):
        steps = {k / (n - 1) for k in range(n)} if n > 1 else set()
        near = {t for s in steps | ends for t in (s, math.nextafter(s, 0.0), math.nextafter(s, 1.0))}
        taus = tuple(sorted(t for t in near if 0.0 < t < 1.0))
        want = tuple(linear_entry_with_last_arm(n, tau) for tau in taus)
        assert index_table(n, taus, QuantileMethod.LINEAR) == want
