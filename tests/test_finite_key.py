"""Fluctuation intervals and worst-case decoy estimation."""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mdiqkd import (
    ConfigError,
    DEFAULT_EPSILON,
    FiniteKeyConfig,
    FluctuationMethod,
    Scenario,
    SourceKind,
    SystemParams,
    comparison_scenarios,
    evaluate_point,
)
from mdiqkd.decoy import estimate
from mdiqkd.finite_key import interval_kernel

from test_decoy import _inputs


def _kernel(method, pulse_pairs, **kwargs):
    return interval_kernel(FiniteKeyConfig(method, pulse_pairs, **kwargs))


def test_standard_interval_reference_case():
    # gain 1e-6 over 1e12 pulses: delta = 5 / sqrt(1e6) = 0.005
    lower, upper = _kernel(FluctuationMethod.STANDARD, 1e12, sigmas=5.0)(1e-6)
    assert lower == pytest.approx(0.995e-6, rel=1e-12)
    assert upper == pytest.approx(1.005e-6, rel=1e-12)


def test_standard_interval_clamps_lower_at_zero():
    lower, upper = _kernel(FluctuationMethod.STANDARD, 1e6, sigmas=5.0)(1e-12)  # delta >> 1
    assert lower == 0.0
    assert upper > 1e-12


def test_standard_interval_vanishing_gain():
    lower, upper = _kernel(FluctuationMethod.STANDARD, 1e12, sigmas=5.0)(0.0)
    assert lower == 0.0
    assert upper == pytest.approx(25.0 / 1e12, rel=1e-15)


def test_chernoff_interval_reference_case():
    # frozen deviations for X = 1e6, eps = 2.865e-7
    lower, upper = _kernel(FluctuationMethod.CHERNOFF, 1e12, epsilon=2.865e-7)(1e-6)
    lower_dev = 6722.840315103048
    upper_dev = 11228.062871698417
    assert lower == pytest.approx((1e6 - lower_dev) / 1e12, rel=1e-12)
    assert upper == pytest.approx((1e6 + upper_dev) / 1e12, rel=1e-12)
    # the upper tail needs a larger deviation than the lower tail at
    # equal failure probability
    assert upper_dev > lower_dev


def test_chernoff_interval_clamps_to_physical_counts():
    lower, upper = _kernel(FluctuationMethod.CHERNOFF, 10.0, epsilon=1e-7)(0.5)
    assert lower == 0.0  # deviation exceeds the count
    assert upper == 1.0  # clamped at N


def test_chernoff_interval_zero_count():
    assert _kernel(FluctuationMethod.CHERNOFF, 1e10, epsilon=1e-7)(0.0) == (0.0, 0.0)


def test_default_epsilon_matches_five_sigma_tail():
    # one-sided 5-sigma Gaussian tail: erfc(5 / sqrt 2) / 2
    tail = math.erfc(5.0 / math.sqrt(2.0)) / 2.0
    assert DEFAULT_EPSILON == pytest.approx(tail, rel=1e-3)


def test_gain_interval_dispatch():
    assert _kernel(FluctuationMethod.ASYMPTOTIC, 1e10)(0.01) == (0.01, 0.01)
    std = _kernel(FluctuationMethod.STANDARD, 1e10)(0.01)
    assert std[0] < 0.01 < std[1]
    cher = _kernel(FluctuationMethod.CHERNOFF, 1e10)(0.01)
    assert cher[0] < 0.01 < cher[1]
    assert std[0] != cher[0]


def test_finite_key_config_validation():
    with pytest.raises(ConfigError):
        FiniteKeyConfig(method="standard")
    with pytest.raises(ConfigError):
        FiniteKeyConfig(FluctuationMethod.STANDARD, pulse_pairs=0.0)
    for sigmas in (-1.0, math.inf):
        with pytest.raises(ConfigError, match=f"sigmas must be finite and > 0, got {sigmas}"):
            FiniteKeyConfig(FluctuationMethod.STANDARD, sigmas=sigmas)
    with pytest.raises(ConfigError):
        FiniteKeyConfig(FluctuationMethod.CHERNOFF, epsilon=1.5)


_ESTIMATOR_CASES = [
    (SourceKind.SPS, 0.0, 0.0),
    (SourceKind.CSS, 0.1, 0.01),
    (SourceKind.WCS, 0.4, 0.07),
]


def test_asymptotic_worst_case_equals_plain_estimators():
    kernel = interval_kernel(FiniteKeyConfig(FluctuationMethod.ASYMPTOTIC))
    for kind, mu1, mu2 in _ESTIMATOR_CASES:
        inputs, _, _ = _inputs(kind, mu1, mu2, 50.0)
        assert estimate(*inputs, kernel) == estimate(*inputs)


@pytest.mark.parametrize("kind,mu1,mu2", _ESTIMATOR_CASES)
@pytest.mark.parametrize("method", [FluctuationMethod.STANDARD, FluctuationMethod.CHERNOFF])
def test_worst_case_weakens_both_bounds(kind, mu1, mu2, method):
    inputs, _, _ = _inputs(kind, mu1, mu2, 50.0)
    asymptotic = estimate(*inputs, _kernel(FluctuationMethod.ASYMPTOTIC, 1e14))
    finite = estimate(*inputs, _kernel(method, 1e13))
    assert finite.y11_lower <= asymptotic.y11_lower
    assert finite.e11_upper >= asymptotic.e11_upper


def test_worst_case_tightens_with_more_pulses():
    inputs, _, _ = _inputs(SourceKind.WCS, 0.4, 0.07, 50.0)
    estimates = [
        estimate(*inputs, _kernel(FluctuationMethod.STANDARD, n))
        for n in (1e12, 1e14, 1e16, 1e20)
    ]
    y11s = [e.y11_lower for e in estimates]
    e11s = [e.e11_upper for e in estimates]
    assert y11s == sorted(y11s)
    assert e11s == sorted(e11s, reverse=True)
    # converges to the asymptotic value
    asym = estimate(*inputs)
    assert estimates[-1].y11_lower == pytest.approx(asym.y11_lower, rel=1e-3)
    assert estimates[-1].e11_upper == pytest.approx(asym.e11_upper, rel=1e-3)


@settings(max_examples=300, deadline=None)
@given(
    gain=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    method=st.sampled_from(list(FluctuationMethod)),
    log_pulse_pairs=st.one_of(st.just(0.0), st.just(300.0), st.floats(0.0, 300.0)),
    sigmas=st.floats(1e-3, 1e3),
    epsilon=st.floats(1e-300, 1.0, exclude_max=True),
)
# The deviation is below the rounding of Q here: (N Q - dev) / N would
# round to 0.10000000000000002.
@example(0.1, FluctuationMethod.CHERNOFF, 200.0, 5.0, DEFAULT_EPSILON)
def test_interval_kernel_contains_gain(gain, method, log_pulse_pairs, sigmas, epsilon):
    """0 <= lower <= Q <= upper for every method and N in [1, 1e300]."""
    config = FiniteKeyConfig(method, 10.0 ** log_pulse_pairs, sigmas, epsilon)
    lower, upper = interval_kernel(config)(gain)
    assert 0.0 <= lower <= gain <= upper


_SOURCES = comparison_scenarios(Scenario())


_RATE_DRAWS = dict(
    source=st.sampled_from(_SOURCES),
    efficiency=st.floats(0.01, 1.0),
    dark_count=st.one_of(st.just(0.0), st.floats(1e-9, 1e-4)),
    misalignment=st.floats(0.0, 0.1),
    distance_km=st.floats(0.0, 300.0),
    method=st.sampled_from([FluctuationMethod.STANDARD, FluctuationMethod.CHERNOFF]),
)


def _rate_at(source, efficiency, dark_count, misalignment, distance_km):
    """Key rate of ``source`` on the drawn system as a function of its
    finite-key config."""
    system = SystemParams(
        detector_efficiency=efficiency,
        dark_count=dark_count,
        misalignment=misalignment,
    )
    scenario = replace(source, system=system)

    def rate(config: FiniteKeyConfig) -> float:
        return evaluate_point(replace(scenario, finite_key=config), distance_km).rate

    return rate


@settings(max_examples=120, deadline=None)
@given(
    **_RATE_DRAWS,
    log_pulse_pairs=st.one_of(st.floats(6.0, 19.0), st.floats(19.0, 299.0)),
    log_growth=st.floats(0.5, 1.0),
)
def test_finite_rate_is_below_asymptotic_and_grows_with_pulse_count(
    source, efficiency, dark_count, misalignment, distance_km, method,
    log_pulse_pairs, log_growth,
):
    """Finite-size rates: R(N) <= R(N') <= R(asymptotic) for N < N', with
    N from 1e6 up to 1e300.

    Above about 1e30 the deviations fall below the rounding of Q, and
    every interval still contains its gain and narrows monotonically.
    """
    rate = _rate_at(source, efficiency, dark_count, misalignment, distance_km)
    fewer = 10.0 ** log_pulse_pairs
    more = 10.0 ** (log_pulse_pairs + log_growth)
    asymptotic = rate(FiniteKeyConfig())
    rate_fewer = rate(FiniteKeyConfig(method, fewer))
    rate_more = rate(FiniteKeyConfig(method, more))
    assert rate_fewer <= rate_more <= asymptotic


@settings(max_examples=60, deadline=None)
@given(**_RATE_DRAWS, log_pulse_pairs=st.floats(6.0, 300.0))
def test_finite_rate_is_below_asymptotic_up_to_huge_pulse_counts(
    source, efficiency, dark_count, misalignment, distance_km, method, log_pulse_pairs,
):
    """R(N) <= R(asymptotic) for N up to 1e300, the largest count drawn:
    every interval contains its gain, also where the deviation falls
    below the rounding of Q (above about 1e30)."""
    rate = _rate_at(source, efficiency, dark_count, misalignment, distance_km)
    finite = rate(FiniteKeyConfig(method, 10.0 ** log_pulse_pairs))
    assert finite <= rate(FiniteKeyConfig())


def test_finite_rate_grows_with_pulse_count_beyond_the_rounding_of_counts():
    # single photons, efficiency 1, no dark counts or misalignment, 0.25 km:
    # Chernoff intervals formed as (N Q -/+ dev) / N put the rate at
    # N = 10^276.5 one ulp below the rate at N = 1e276
    scenario = replace(
        _SOURCES[0],
        system=SystemParams(detector_efficiency=1.0, dark_count=0.0, misalignment=0.0),
    )

    def rate(pulse_pairs: float) -> float:
        config = FiniteKeyConfig(FluctuationMethod.CHERNOFF, pulse_pairs)
        return evaluate_point(replace(scenario, finite_key=config), 0.25).rate

    assert rate(1e276) <= rate(10.0**276.5)
