"""Dissemination policies stepped once per monitoring round.

Three policies share the epoch lifecycle: quanta accumulate from the last-sent
synopsis, a deadline forces dissemination after at most T rounds, and every
dissemination resets the epoch (quanta cleared, forecaster discarded, round
counter back to 1). They differ in the trigger:

* UDDM fuses two fuzzy potentials, one over the last three observed quanta and
  one over the next three forecast quanta, through a geometric mean, and
  triggers when the fused score strictly exceeds the threshold.
* BM triggers on any nonzero quantum.
* PM triggers when the mean of the three normalized forecast quanta strictly
  exceeds the threshold.

`step` advances one node's `EpochState` by one round. `step_lanes` advances
many independent nodes at once, one array lane each, held in an `EpochLanes`;
it performs the same floating-point operations per lane, so both give equal
decisions, scores and quanta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .forecasting import HoltState, holt_forecast, holt_init, holt_step
from .synopsis import _SCALE_FLOOR, QuantumNormalizer
from .t2fls import InferenceEngine, default_engine

__all__ = [
    "CAUSE_THRESHOLD",
    "CAUSE_DEADLINE",
    "CAUSE_ANY_CHANGE",
    "CAUSE_PREDICTION",
    "Decision",
    "EpochState",
    "EpochLanes",
    "combine_pods",
    "UddmPolicy",
    "BmPolicy",
    "PmPolicy",
    "POLICY_NAMES",
    "build_policy",
]

CAUSE_THRESHOLD = "threshold"
CAUSE_DEADLINE = "deadline"
CAUSE_ANY_CHANGE = "any-change"
CAUSE_PREDICTION = "prediction"

# Steps ahead of the three forecasts, as a column over the lane axis.
_HORIZON = np.array([[1.0], [2.0], [3.0]])


def combine_pods(pod_p: float, pod_f: float) -> float:
    """Geometric mean of the two potentials; zero on either side annihilates."""
    return math.sqrt(pod_p * pod_f)


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of one policy step: `cause` names why it disseminates, None on a hold."""

    cause: str | None
    g: float | None

    @property
    def disseminate(self) -> bool:
        return self.cause is not None


@dataclass(slots=True)
class EpochState:
    """Mutable per-node epoch bookkeeping, owned by exactly one runner.

    `deadline` is the round at which the deadline rule fires for the current
    epoch; it may be shorter than T for a node's first epoch (staggered phase
    offsets) and returns to T after every reset. The normalizer deliberately
    survives resets: its sliding window is the cross-epoch scale memory.
    """

    T: int
    theta: float
    t: int = 1
    deadline: int | None = None
    quanta: list[float] = field(default_factory=list, init=False)
    holt: HoltState | None = field(default=None, init=False)
    normalizer: QuantumNormalizer = field(default_factory=QuantumNormalizer)

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ConfigurationError(f"epoch length T must be >= 1, got {self.T}")
        if self.theta <= 0.0:
            raise ConfigurationError(f"threshold theta must be positive, got {self.theta}")
        if self.deadline is None:
            self.deadline = self.T
        if not 1 <= self.deadline <= self.T:
            raise ConfigurationError(
                f"epoch deadline {self.deadline} must lie in [1, T={self.T}]"
            )
        if not 1 <= self.t <= self.T:
            raise ConfigurationError(f"round counter t={self.t} must lie in [1, T={self.T}]")

    def reset(self) -> None:
        """Start a fresh epoch after a dissemination; the caller re-baselines its synopsis."""
        self.quanta.clear()
        self.holt = None
        self.t = 1
        self.deadline = self.T


class EpochLanes:
    """`EpochState` of many independent nodes, one array lane each.

    Per lane: the round counter `t`, the `deadline`, the epoch's last three
    quanta (oldest first; `t` of them belong to the current epoch), the Holt
    level and trend (meaningful once `t` >= 2) and the normaliser window.
    Every lane observes one quantum per round, so the window's write position
    is shared. The window starts filled with zeros: quanta are >= 0, so the
    zeros never raise its maximum, which is `QuantumNormalizer`'s running max.
    """

    def __init__(self, T: int, theta: float, deadline: np.ndarray, window: int) -> None:
        lanes = len(deadline)
        self.T = T
        self.theta = theta
        self.t = np.ones(lanes, dtype=np.int64)
        self.deadline = np.asarray(deadline, dtype=np.int64)
        zeros = np.zeros(lanes)
        self.quanta = (zeros, zeros, zeros)
        self.level = zeros
        self.trend = zeros
        self._window = np.zeros((window, lanes))
        self._observed = 0

    def observe(self, quantum: np.ndarray) -> None:
        self.quanta = (self.quanta[1], self.quanta[2], quantum)
        self._window[self._observed % len(self._window)] = quantum
        self._observed += 1

    def normalize(self, values: np.ndarray) -> np.ndarray:
        """`QuantumNormalizer.normalize` of values >= 0, lane by lane (last axis)."""
        peak = self._window[: self._observed].max(axis=0)
        return np.minimum(values / np.maximum(peak, _SCALE_FLOOR), 1.0)


class _PolicyBase:
    """Shared step skeleton: observe the quantum, test the trigger, apply the deadline."""

    trigger_cause: str = ""

    def step(self, state: EpochState, quantum: float) -> Decision:
        """Admit one raw quantum into the epoch and decide; updates `state` in place."""
        state.quanta.append(quantum)
        state.normalizer.observe(quantum)
        self._update_forecaster(state)
        triggered, score = self._trigger(state, quantum)
        if triggered:
            decision = Decision(self.trigger_cause, score)
        elif state.t >= state.deadline:
            decision = Decision(CAUSE_DEADLINE, score)
        else:
            state.t += 1
            return Decision(None, score)
        state.reset()
        return decision

    def step_lanes(
        self, lanes: EpochLanes, quantum: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`step` for every lane at once; updates `lanes` in place.

        Returns the lanes' round counters before the step (t*), the mask of
        lanes that disseminate, the mask of those whose trigger fired (the rest
        of them hit the deadline) and the score, NaN where `step` gives None.
        """
        lanes.observe(quantum)
        self._update_forecaster_lanes(lanes)
        triggered, score = self._trigger_lanes(lanes, quantum)
        t_star = lanes.t
        sends = triggered | (t_star >= lanes.deadline)
        lanes.t = np.where(sends, 1, t_star + 1)
        lanes.deadline = np.where(sends, lanes.T, lanes.deadline)
        return t_star, sends, triggered, score

    def _update_forecaster(self, state: EpochState) -> None:
        pass

    def _update_forecaster_lanes(self, lanes: EpochLanes) -> None:
        pass

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
        raise NotImplementedError

    def _trigger_lanes(self, lanes: EpochLanes, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _ForecastingPolicy(_PolicyBase):
    """Holt forecaster upkeep shared by the policies that look ahead."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.5) -> None:
        if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
            raise ConfigurationError(
                f"smoothing factors must lie strictly inside (0, 1), got alpha={alpha}, beta={beta}"
            )
        self.alpha = alpha
        self.beta = beta

    def _update_forecaster(self, state: EpochState) -> None:
        quanta = state.quanta
        n = len(quanta)
        if n == 2:
            state.holt = holt_init(quanta[0], quanta[1], self.alpha, self.beta)
        elif n > 2 and state.holt is not None:
            state.holt = holt_step(state.holt, quanta[-1])

    def _normalized_forecast(self, state: EpochState) -> tuple[float, float, float]:
        forecast = holt_forecast(state.holt, 3)
        normalize = state.normalizer.normalize
        a, b, c = forecast.values
        return normalize(a), normalize(b), normalize(c)

    def _update_forecaster_lanes(self, lanes: EpochLanes) -> None:
        # Every lane advances; a lane in its second round is seeded first, as
        # holt_init does, and the values of a lane in its first round are
        # never read (it is seeded again before it has a forecast).
        previous, quantum = lanes.quanta[1], lanes.quanta[2]
        seed = lanes.t == 2
        level = np.where(seed, previous, lanes.level)
        trend = np.where(seed, quantum - previous, lanes.trend)
        lanes.level = self.alpha * quantum + (1.0 - self.alpha) * (level + trend)
        lanes.trend = self.beta * (lanes.level - level) + (1.0 - self.beta) * trend

    def _forecast_lanes(self, lanes: EpochLanes) -> np.ndarray:
        """holt_forecast(·, 3) of every lane, shape (3, lanes), not yet normalized."""
        forecast = lanes.level + _HORIZON * lanes.trend
        return np.where(forecast > 0.0, forecast, 0.0)


class UddmPolicy(_ForecastingPolicy):
    """Fuzzy fusion of past and forecast quanta, thresholded on the geometric mean."""

    trigger_cause = CAUSE_THRESHOLD

    def __init__(
        self,
        engine: InferenceEngine | None = None,
        alpha: float = 0.5,
        beta: float = 0.5,
    ) -> None:
        super().__init__(alpha, beta)
        self.engine = engine if engine is not None else default_engine()

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
        if len(state.quanta) < 3:
            return False, None
        normalize = state.normalizer.normalize
        e1, e2, e3 = state.quanta[-3:]
        pod_p = self.engine.evaluate(normalize(e1), normalize(e2), normalize(e3))
        if state.holt is not None and state.holt.observations >= 2:
            pod_f = self.engine.evaluate(*self._normalized_forecast(state))
        else:
            # Cold start: fall back on the past view so zero-annihilation survives.
            pod_f = pod_p
        g = combine_pods(pod_p, pod_f)
        return g > state.theta, g

    def _trigger_lanes(self, lanes: EpochLanes, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Rows: the three past quanta, then the three forecasts. From t = 3 on
        # a lane always has a forecaster, so `_trigger`'s cold start never applies.
        views = lanes.normalize(np.vstack((*lanes.quanta, self._forecast_lanes(lanes))))
        pod_p, pod_f = self.engine.evaluate_many(*views.reshape(2, 3, -1).transpose(1, 0, 2))
        g = np.where(lanes.t >= 3, np.sqrt(pod_p * pod_f), np.nan)
        return g > lanes.theta, g


class BmPolicy(_PolicyBase):
    """Baseline: disseminate whenever any change at all is observed."""

    trigger_cause = CAUSE_ANY_CHANGE

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
        return quantum > 0.0, None

    def _trigger_lanes(self, lanes: EpochLanes, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return quantum > 0.0, np.full(quantum.shape, np.nan)


class PmPolicy(_ForecastingPolicy):
    """Prediction baseline: disseminate when the mean forecast quantum violates the threshold."""

    trigger_cause = CAUSE_PREDICTION

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
        if state.holt is None or state.holt.observations < 2:
            return False, None
        a, b, c = self._normalized_forecast(state)
        score = (a + b + c) / 3.0
        return score > state.theta, score

    def _trigger_lanes(self, lanes: EpochLanes, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b, c = lanes.normalize(self._forecast_lanes(lanes))
        score = np.where(lanes.t >= 2, (a + b + c) / 3.0, np.nan)
        return score > lanes.theta, score


POLICY_NAMES = ("UDDM", "BM", "PM")


def build_policy(
    name: str,
    engine: InferenceEngine | None = None,
    alpha: float = 0.5,
    beta: float = 0.5,
):
    """Instantiate a policy by its configuration name."""
    if name == "UDDM":
        return UddmPolicy(engine=engine, alpha=alpha, beta=beta)
    if name == "BM":
        return BmPolicy()
    if name == "PM":
        return PmPolicy(alpha=alpha, beta=beta)
    raise ConfigurationError(f"unknown policy {name!r}; expected one of {POLICY_NAMES}")
