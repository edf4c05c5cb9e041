"""Property-based tests for the distribution layer (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import Exponential, Weibull

RATES = st.floats(min_value=1e-8, max_value=10.0, allow_nan=False, allow_infinity=False)
SHAPES = st.floats(min_value=0.3, max_value=5.0, allow_nan=False, allow_infinity=False)
SCALES = st.floats(min_value=1e-3, max_value=1e7, allow_nan=False, allow_infinity=False)
TIMES = st.floats(min_value=0.0, max_value=1e8, allow_nan=False, allow_infinity=False)
QUANTILES = st.floats(min_value=0.001, max_value=0.999)


@given(rate=RATES, t=TIMES)
def test_exponential_cdf_in_unit_interval(rate, t):
    cdf = float(Exponential(rate).cdf(t))
    assert 0.0 <= cdf <= 1.0


@given(rate=RATES, q=QUANTILES)
def test_exponential_percentile_cdf_round_trip(rate, q):
    dist = Exponential(rate)
    np.testing.assert_allclose(float(dist.cdf(dist.percentile(q))), q, rtol=1e-6)


@given(shape=SHAPES, scale=SCALES, t=TIMES)
def test_weibull_cdf_monotone_in_time(shape, scale, t):
    dist = Weibull(shape=shape, scale=scale)
    later = t * 1.5 + 1.0
    assert float(dist.cdf(t)) <= float(dist.cdf(later)) + 1e-12


@given(shape=SHAPES, scale=SCALES)
def test_weibull_mean_positive_and_survival_complements_cdf(shape, scale):
    dist = Weibull(shape=shape, scale=scale)
    assert dist.mean() > 0.0
    t = np.array([0.5 * scale, scale, 2.0 * scale])
    np.testing.assert_allclose(dist.cdf(t) + dist.survival(t), 1.0, rtol=1e-9)


@given(rate=RATES)
@settings(max_examples=30)
def test_exponential_sampling_non_negative(rate):
    rng = np.random.default_rng(0)
    samples = Exponential(rate).sample(100, rng)
    assert np.all(samples >= 0.0)


@given(shape=SHAPES, scale=SCALES)
@settings(max_examples=30)
def test_weibull_sampling_non_negative(shape, scale):
    rng = np.random.default_rng(1)
    samples = Weibull(shape=shape, scale=scale).sample(100, rng)
    assert np.all(samples >= 0.0)


@given(shape=SHAPES, scale=SCALES, q=QUANTILES)
def test_weibull_percentile_cdf_round_trip(shape, scale, q):
    dist = Weibull(shape=shape, scale=scale)
    np.testing.assert_allclose(float(dist.cdf(dist.percentile(q))), q, rtol=1e-9)


@given(shape=st.floats(min_value=0.3, max_value=3.3), scale=SCALES)
def test_weibull_median_below_mean_up_to_shape_3_3(shape, scale):
    # Weibull lifetimes are right-skewed until the shape reaches about 3.44.
    dist = Weibull(shape=shape, scale=scale)
    assert dist.median() < dist.mean()


@given(shape=SHAPES, scale=SCALES, x=st.floats(min_value=0.01, max_value=3.0))
def test_weibull_hazard_is_pdf_over_survival(shape, scale, x):
    dist = Weibull(shape=shape, scale=scale)
    t = x * scale
    np.testing.assert_allclose(
        float(dist.hazard(t)), float(dist.pdf(t) / dist.survival(t)), rtol=1e-9
    )


@given(rate=RATES, x=st.floats(min_value=0.0, max_value=50.0))
def test_exponential_hazard_is_pdf_over_survival(rate, x):
    dist = Exponential(rate)
    t = x / rate
    np.testing.assert_allclose(float(dist.hazard(t)), rate, rtol=1e-12)
    np.testing.assert_allclose(float(dist.pdf(t) / dist.survival(t)), rate, rtol=1e-9)
