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

import numpy as np

from .errors import ConfigurationError, IngestionError, InvariantViolation, _check_integer, _check_real

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
    """The next k quanta projected, clamped at zero; the horizon k is their count."""

    values: tuple[float, ...]

    @property
    def horizon(self) -> int:
        return len(self.values)


def _check_smoothing(alpha: float, beta: float) -> None:
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < _check_real(name, value) < 1.0:
            raise ConfigurationError(
                f"smoothing factor {name} must lie strictly inside (0, 1), got {value!r}"
            )


def _holt_update(level, trend, e, alpha, beta):
    """One step of the level/trend recurrence, on floats or elementwise on arrays."""
    # Level first, then trend from the fresh level.
    fresh = alpha * e + (1.0 - alpha) * (level + trend)
    return fresh, beta * (fresh - level) + (1.0 - beta) * trend


def _holt_project(level, trend, steps) -> np.ndarray:
    """level + steps * trend for an array of steps ahead, floored at +0.0; broadcasts over lanes."""
    forecast = level + steps * trend
    # A forecast not above 0, NaN too, becomes +0.0: + 0.0 turns a -0.0 that fmax keeps.
    np.fmax(forecast, 0.0, out=forecast)
    forecast += 0.0
    return forecast


def holt_init(e1: float, e2: float, alpha: float = 0.5, beta: float = 0.5) -> HoltState:
    """Seed the forecaster from the first two quanta of an epoch.

    The seed (level = e1, trend = e2 - e1) is advanced once with e2, as the
    lane kernel seeds a lane, so the returned state has absorbed both observations.
    """
    _check_smoothing(alpha, beta)
    for value in (e1, e2):
        if not math.isfinite(_check_real("quantum", value)):
            raise IngestionError(f"non-finite quantum {value!r} fed to forecaster")
    return HoltState(*_holt_update(e1, e2 - e1, e2, alpha, beta), alpha, beta, observations=2)


def holt_step(state: HoltState, e: float) -> HoltState:
    """Advance an initialized forecaster with one more quantum."""
    if state.observations < 2:
        raise InvariantViolation("forecaster not initialized: the first two quanta are required")
    if not math.isfinite(_check_real("quantum", e)):
        raise IngestionError(f"non-finite quantum {e!r} fed to forecaster")
    return HoltState(*_holt_update(state.level, state.trend, e, state.alpha, state.beta),
                     state.alpha, state.beta, state.observations + 1)


def holt_forecast(state: HoltState, k: int) -> Forecast:
    """Project the next k quanta as level + i * trend, floored at zero, as the lanes project them."""
    if state.observations < 2:
        raise InvariantViolation("forecaster not initialized: the first two quanta are required")
    _check_integer("forecast horizon", k, 1)
    # Python floats overflow to inf silently; numpy would warn.
    with np.errstate(over="ignore", invalid="ignore"):
        values = _holt_project(state.level, state.trend, np.arange(1.0, k + 1))
    return Forecast(tuple(values.tolist()))
