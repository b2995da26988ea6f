"""Holt smoothing: worked recurrences, fixed points, and the direct-evaluation oracle."""

import random
import warnings
from itertools import product

import numpy as np
import pytest

from qsim import policies
from qsim.errors import ConfigurationError, IngestionError, InvariantViolation
from qsim.forecasting import HoltState, holt_forecast, holt_init, holt_step
from qsim.policies import EpochState, PmPolicy
from qsim.simulator import ExperimentConfig


def direct_recurrences(series, alpha, beta):
    """Independent re-evaluation: level/trend arrays straight from the definitions."""
    v = [series[0]]
    b = [series[1] - series[0]]
    for e in series[1:]:
        level = alpha * e + (1 - alpha) * (v[-1] + b[-1])
        trend = beta * (level - v[-1]) + (1 - beta) * b[-1]
        v.append(level)
        b.append(trend)
    return v[-1], b[-1]


def chain(series, alpha=0.5, beta=0.5):
    state = holt_init(series[0], series[1], alpha, beta)
    for e in series[2:]:
        state = holt_step(state, e)
    return state


class TestInit:
    def test_rising_pair_has_positive_trend(self):
        state = holt_init(1.0, 2.0, 0.3, 0.7)
        assert state.trend > 0
        assert state.observations == 2

    def test_constant_pair_is_fixed_point(self):
        state = holt_init(4.5, 4.5, 0.2, 0.8)
        assert state.level == 4.5
        assert state.trend == 0.0

    def test_worked_example_after_init(self):
        # series [1, 2]: seed (level 1, trend 1), then absorb the 2
        state = holt_init(1.0, 2.0, 0.5, 0.5)
        assert state.level == pytest.approx(2.0, abs=1e-12)
        assert state.trend == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-1, 0.5),
                                            (0.5, float("nan"))])
    @pytest.mark.parametrize("build", [
        lambda alpha, beta: holt_init(1.0, 2.0, alpha, beta),
        lambda alpha, beta: PmPolicy(alpha=alpha, beta=beta),
        lambda alpha, beta: ExperimentConfig(alpha=alpha, beta=beta),
    ], ids=["holt_init", "policy", "config"])
    def test_factors_must_be_strictly_inside_unit_interval(self, build, alpha, beta):
        with pytest.raises(ConfigurationError, match=r"smoothing factor (alpha|beta) must lie strictly"):
            build(alpha, beta)

    def test_non_finite_input(self):
        with pytest.raises(IngestionError):
            holt_init(float("nan"), 1.0)


class TestStep:
    def test_worked_sequence(self):
        # [1, 2, 4] with alpha = beta = 0.5
        state = chain([1.0, 2.0, 4.0])
        assert state.level == pytest.approx(3.5, abs=1e-12)
        assert state.trend == pytest.approx(1.25, abs=1e-12)
        assert state.observations == 3

    def test_constant_series_fixed_point(self):
        rng = random.Random(3)
        for _ in range(20):
            alpha, beta = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            c = rng.uniform(-100, 100)
            state = chain([c] * 10, alpha, beta)
            assert state.level == pytest.approx(c, abs=1e-9)
            assert state.trend == pytest.approx(0.0, abs=1e-9)

    def test_unit_factors_track_affine_series_exactly(self):
        # With alpha = beta = 1 the recurrences collapse to the last value and
        # last difference; boundary factors are constructible directly.
        a, slope = 2.0, 3.0
        series = [a + slope * j for j in range(1, 9)]
        state = HoltState(level=series[1], trend=series[1] - series[0],
                          alpha=1.0, beta=1.0, observations=2)
        for e in series[2:]:
            state = holt_step(state, e)
            assert state.level == pytest.approx(e, abs=1e-12)
            assert state.trend == pytest.approx(slope, abs=1e-12)

    def test_requires_initialized_state(self):
        bare = HoltState(level=1.0, trend=0.0, alpha=0.5, beta=0.5, observations=1)
        with pytest.raises(InvariantViolation):
            holt_step(bare, 2.0)
        with pytest.raises(InvariantViolation):
            holt_forecast(bare, 3)

    def test_non_finite_quantum(self):
        state = holt_init(1.0, 2.0)
        with pytest.raises(IngestionError):
            holt_step(state, float("inf"))


class TestForecast:
    def test_worked_forecast(self):
        state = chain([1.0, 2.0, 4.0])
        forecast = holt_forecast(state, 3)
        assert type(forecast) is tuple
        assert forecast == pytest.approx((4.75, 6.0, 7.25), abs=1e-12)

    def test_zero_trend_is_flat(self):
        state = HoltState(level=7.5, trend=0.0, alpha=0.5, beta=0.5, observations=4)
        assert holt_forecast(state, 5) == (7.5,) * 5

    def test_negative_projection_clamped_to_zero(self):
        state = HoltState(level=1.0, trend=-2.0, alpha=0.5, beta=0.5, observations=4)
        assert holt_forecast(state, 1) == (0.0,)

    def test_horizon_must_be_positive(self):
        state = holt_init(1.0, 2.0)
        with pytest.raises(ConfigurationError):
            holt_forecast(state, 0)

    def test_horizon_is_the_number_of_values(self):
        state = chain([1.0, 2.0, 4.0])
        for horizon in (1, 2, 7, np.int64(3)):
            forecast = holt_forecast(state, horizon)
            assert type(forecast) is tuple and len(forecast) == horizon
            assert all(type(v) is float for v in forecast)

    def test_successive_values_differ_by_trend_before_clamping(self):
        state = chain([3.0, 5.0, 6.0, 9.0], 0.4, 0.6)
        forecast = holt_forecast(state, 6)
        assert all(v >= 0 for v in forecast)
        for a, b in zip(forecast, forecast[1:]):
            assert b - a == pytest.approx(state.trend, abs=1e-9)


class TestProperties:
    def test_shift_equivariance_before_clamping(self):
        rng = random.Random(9)
        for _ in range(50):
            alpha, beta = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            series = [rng.uniform(50, 100) for _ in range(rng.randint(3, 20))]
            c = rng.uniform(1, 40)
            base = chain(series, alpha, beta)
            shifted = chain([e + c for e in series], alpha, beta)
            assert shifted.trend == pytest.approx(base.trend, abs=1e-9)
            for k in (1, 2, 3):
                raw = base.level + k * base.trend
                raw_shifted = shifted.level + k * shifted.trend
                assert raw_shifted - raw == pytest.approx(c, abs=1e-9)

    def test_matches_direct_recurrence_evaluation(self):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randint(2, 50)
            series = [rng.uniform(0, 20) for _ in range(n)]
            alpha, beta = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
            state = chain(series, alpha, beta)
            level, trend = direct_recurrences(series, alpha, beta)
            assert state.level == pytest.approx(level, abs=1e-9)
            assert state.trend == pytest.approx(trend, abs=1e-9)
            forecast = holt_forecast(state, 3)
            for i, value in enumerate(forecast):
                assert value == pytest.approx(max(0.0, level + (i + 1) * trend), abs=1e-9)


class TestOneProjection:
    """`holt_forecast` projects as the lanes do, bit for bit, and as the Python floats
    `max(0.0, level + i * trend)` do, without a warning: signed zeros, subnormals,
    overflow near 1e308, NaN and a trend that floors to +0.0 (1.0 - 2 * 0.5) included."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -0.5, 1e308, -1e308,
             1.7976931348623157e308, float("inf"), float("-inf"), float("nan")]

    def test_holt_forecast_equals_the_lanes_projection(self, monkeypatch):
        # Random bit patterns give every exponent, NaNs and infinities among them.
        bits = np.random.default_rng(26).integers(0, 2**64, size=(4000, 2), dtype=np.uint64)
        states = list(product(self.EDGES, repeat=2)) + [tuple(p) for p in bits.view(np.float64).tolist()]
        level, trend = np.array(states).T
        # The lanes' three forecasts for these level/trend pairs, the Holt step replaced.
        monkeypatch.setattr(policies, "_holt_update", lambda *_: (level, trend))
        with np.errstate(all="ignore"):
            lanes = PmPolicy()._forecast(EpochState(T=10, theta=0.5, deadline=np.full(len(states), 10)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = np.array([holt_forecast(HoltState(v, b, 0.5, 0.5, 2), 3) for v, b in states])
        python = np.array([[max(0.0, v + i * b) for i in (1, 2, 3)] for v, b in states])
        assert scalar.T.tobytes() == lanes.tobytes()
        assert scalar.tobytes() == python.tobytes()
