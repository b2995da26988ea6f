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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .forecasting import HoltState, holt_forecast, holt_init, holt_step
from .synopsis import QuantumNormalizer
from .t2fls import InferenceEngine, default_engine

__all__ = [
    "CAUSE_THRESHOLD",
    "CAUSE_DEADLINE",
    "CAUSE_ANY_CHANGE",
    "CAUSE_PREDICTION",
    "Decision",
    "EpochState",
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

    def _update_forecaster(self, state: EpochState) -> None:
        pass

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
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


class BmPolicy(_PolicyBase):
    """Baseline: disseminate whenever any change at all is observed."""

    trigger_cause = CAUSE_ANY_CHANGE

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
        return quantum > 0.0, None


class PmPolicy(_ForecastingPolicy):
    """Prediction baseline: disseminate when the mean forecast quantum violates the threshold."""

    trigger_cause = CAUSE_PREDICTION

    def _trigger(self, state: EpochState, quantum: float) -> tuple[bool, float | None]:
        if state.holt is None or state.holt.observations < 2:
            return False, None
        a, b, c = self._normalized_forecast(state)
        score = (a + b + c) / 3.0
        return score > state.theta, score


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
