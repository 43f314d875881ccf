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
