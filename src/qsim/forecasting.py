"""Holt double exponential smoothing over the epoch's quantum series.

The forecaster keeps a level and a trend, seeded from the first two quanta of
the epoch (level = first quantum, trend = their difference) and advanced once
per subsequent quantum:

    level' = alpha * e + (1 - alpha) * (level + trend)
    trend' = beta * (level' - level) + (1 - beta) * trend

A k-step-ahead forecast is level + k * trend, clamped at zero because quanta
are magnitudes. The state is discarded whenever an epoch ends: quanta are
defined against the last-sent synopsis, so a new epoch starts a new series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, IngestionError, InvariantViolation

__all__ = ["HoltState", "Forecast", "holt_init", "holt_step", "holt_forecast"]


@dataclass(frozen=True, slots=True)
class HoltState:
    """Level/trend pair plus smoothing factors; defined after two observations."""

    level: float
    trend: float
    alpha: float
    beta: float
    observations: int


@dataclass(frozen=True, slots=True)
class Forecast:
    """k-step-ahead projections, clamped at zero."""

    horizon: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.horizon:
            raise ConfigurationError(
                f"forecast carries {len(self.values)} values for horizon {self.horizon}"
            )


def _holt_update(level, trend, e, alpha, beta):
    """One step of the level/trend recurrence, on floats or elementwise on arrays."""
    # Level first, then trend from the fresh level.
    fresh = alpha * e + (1.0 - alpha) * (level + trend)
    return fresh, beta * (fresh - level) + (1.0 - beta) * trend


def _advance(state: HoltState, e: float) -> HoltState:
    level, trend = _holt_update(state.level, state.trend, e, state.alpha, state.beta)
    return HoltState(
        level=level,
        trend=trend,
        alpha=state.alpha,
        beta=state.beta,
        observations=state.observations + 1,
    )


def holt_init(e1: float, e2: float, alpha: float = 0.5, beta: float = 0.5) -> HoltState:
    """Seed the forecaster from the first two quanta of an epoch.

    The seed state is (level = e1, trend = e2 - e1); it is then advanced once
    with e2 so the returned state has absorbed both observations.
    """
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < value < 1.0:
            raise ConfigurationError(
                f"smoothing factor {name} must lie strictly inside (0, 1), got {value!r}"
            )
    for value in (e1, e2):
        if not math.isfinite(value):
            raise IngestionError(f"non-finite quantum {value!r} fed to forecaster")
    seed = HoltState(level=e1, trend=e2 - e1, alpha=alpha, beta=beta, observations=1)
    return _advance(seed, e2)


def holt_step(state: HoltState, e: float) -> HoltState:
    """Advance an initialized forecaster with one more quantum."""
    if state.observations < 2:
        raise InvariantViolation("forecaster not initialized: the first two quanta are required")
    if not math.isfinite(e):
        raise IngestionError(f"non-finite quantum {e!r} fed to forecaster")
    return _advance(state, e)


def holt_forecast(state: HoltState, k: int) -> Forecast:
    """Project the next k quanta as level + i * trend, floored at zero."""
    if state.observations < 2:
        raise InvariantViolation("forecaster not initialized: the first two quanta are required")
    if k < 1:
        raise ConfigurationError(f"forecast horizon must be a positive integer, got {k}")
    values = tuple(max(0.0, state.level + (i + 1) * state.trend) for i in range(k))
    return Forecast(horizon=k, values=values)
