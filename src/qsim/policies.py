"""Dissemination policies stepped once per monitoring round.

Three policies share the epoch lifecycle: quanta accumulate from the last-sent
synopsis, a deadline forces dissemination after at most T rounds, and every
dissemination resets the epoch (round counter back to 1, forecaster reseeded
from the next two quanta). They differ in the trigger:

* UDDM fuses two fuzzy potentials, one over the last three observed quanta and
  one over the next three forecast quanta, through a geometric mean, and
  triggers when the fused score strictly exceeds the threshold.
* BM triggers on any nonzero quantum.
* PM triggers when the mean of the three normalized forecast quanta strictly
  exceeds the threshold.

`step_lanes` advances many independent nodes at once, one array lane each, held
in an `EpochState`; `step` is `step_lanes` on a one-lane state. Lanes never
interact, so a lane's decisions do not depend on the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .forecasting import _holt_update
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

# Steps ahead of the three forecasts, as a column over the lane axis.
_HORIZON = np.array([[1.0], [2.0], [3.0]])

# Smallest scale the normaliser divides by, so the division is defined before
# anything nonzero has been observed.
_SCALE_FLOOR = 1e-9


def combine_pods(pod_p, pod_f):
    """Geometric mean of the two potentials; zero on either side annihilates.

    Takes floats or arrays; `np.sqrt` is correctly rounded, like `math.sqrt`.
    """
    return np.sqrt(pod_p * pod_f)


@dataclass(frozen=True, slots=True)
class Decision:
    """Outcome of one policy step: `cause` names why it disseminates, None on a hold."""

    cause: str | None
    g: float | None

    @property
    def disseminate(self) -> bool:
        return self.cause is not None


class EpochState:
    """Epoch bookkeeping of one node, or of many independent nodes, one array lane each.

    An omitted or integer `deadline` gives one lane; an array gives one lane
    per entry. A lane's deadline is the round at which the deadline rule fires
    for its current epoch: shorter than T for a node's first epoch (staggered
    phase offsets), back to T after every dissemination.

    Per lane: the round counter `t`, the `deadline`, the last three quanta
    (oldest first; `t` of them belong to the current epoch), the Holt `level`
    and `trend` (meaningful once `t` >= 2) and the normaliser window of the
    last `window` quanta. The window deliberately spans epochs: it is the
    cross-epoch scale memory. Every lane observes one quantum per round, so
    the window's write position is shared. It starts filled with zeros: quanta
    are >= 0, so the zeros never raise its maximum, and a state that has seen
    nothing divides by the floor.
    """

    def __init__(self, T: int, theta: float, deadline=None, window: int = 50) -> None:
        if T < 1:
            raise ConfigurationError(f"epoch length T must be >= 1, got {T}")
        if not theta > 0.0:
            raise ConfigurationError(f"threshold theta must be positive, got {theta}")
        if window < 1:
            raise ConfigurationError(f"normalization window must be >= 1, got {window}")
        deadline = np.array(T if deadline is None else deadline, dtype=np.int64, ndmin=1)
        if not ((1 <= deadline) & (deadline <= T)).all():
            raise ConfigurationError(f"epoch deadlines {deadline} must lie in [1, T={T}]")
        lanes = len(deadline)
        self.T = T
        self.theta = theta
        self.t = np.ones(lanes, dtype=np.int64)
        self.deadline = deadline
        zeros = np.zeros(lanes)
        self.quanta = (zeros, zeros, zeros)
        self.level = zeros
        self.trend = zeros
        self._window = np.zeros((window, lanes))
        self._observed = 0

    def observe(self, quantum: np.ndarray) -> None:
        """Admit one raw quantum per lane into the last three and the window."""
        self.quanta = (self.quanta[1], self.quanta[2], quantum)
        self._window[self._observed % len(self._window)] = quantum
        self._observed += 1

    def normalize(self, values) -> np.ndarray:
        """Values >= 0 over the window maximum, cut at 1, lane by lane (last axis)."""
        peak = self._window.max(axis=0)
        return np.minimum(values / np.maximum(peak, _SCALE_FLOOR), 1.0)


class _PolicyBase:
    """Shared step skeleton: observe the quantum, test the trigger, apply the deadline."""

    trigger_cause: str = ""

    def step(self, state: EpochState, quantum: float) -> Decision:
        """`step_lanes` on a one-lane `state`: admit one raw quantum and decide."""
        if len(state.t) != 1 or not 0.0 <= quantum < math.inf:
            raise ConfigurationError(f"step takes one lane and a finite quantum >= 0, got {quantum!r}")
        _, sends, triggered, score = self.step_lanes(state, np.array([quantum], dtype=float))
        cause = (self.trigger_cause if triggered[0] else CAUSE_DEADLINE) if sends[0] else None
        return Decision(cause, None if np.isnan(score[0]) else float(score[0]))

    def step_lanes(
        self, state: EpochState, quantum: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Admit one raw quantum per lane and decide; updates `state` in place.

        Returns the lanes' round counters before the step (t*), the mask of
        lanes that disseminate, the mask of those whose trigger fired (the rest
        of them hit the deadline) and the score, NaN where the policy gives none.
        """
        state.observe(quantum)
        triggered, score = self._fires(state, quantum)
        t_star = state.t
        sends = triggered | (t_star >= state.deadline)
        state.t = np.where(sends, 1, t_star + 1)
        state.deadline = np.where(sends, state.T, state.deadline)
        return t_star, sends, triggered, score

    def _fires(self, state: EpochState, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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

    def _forecast(self, state: EpochState) -> np.ndarray:
        """Advance every lane's forecaster with its newest quantum; returns
        holt_forecast(·, 3) of every lane, shape (3, lanes), not yet normalized."""
        # A lane in its second round is seeded first, as holt_init does; the
        # values of a lane in its first round are never read (it is seeded
        # again before it has a forecast).
        previous, quantum = state.quanta[1], state.quanta[2]
        seed = state.t == 2
        level = np.where(seed, previous, state.level)
        trend = np.where(seed, quantum - previous, state.trend)
        state.level, state.trend = _holt_update(level, trend, quantum, self.alpha, self.beta)
        forecast = state.level + _HORIZON * state.trend
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

    def _fires(self, state: EpochState, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Rows: the three past quanta, then the three forecasts; scored from t = 3 on.
        views = state.normalize(np.vstack((*state.quanta, self._forecast(state))))
        pod_p, pod_f = self.engine.evaluate_many(*views.reshape(2, 3, -1).transpose(1, 0, 2))
        g = np.where(state.t >= 3, combine_pods(pod_p, pod_f), np.nan)
        return g > state.theta, g


class BmPolicy(_PolicyBase):
    """Baseline: disseminate whenever any change at all is observed."""

    trigger_cause = CAUSE_ANY_CHANGE

    def _fires(self, state: EpochState, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return quantum > 0.0, np.full(quantum.shape, np.nan)


class PmPolicy(_ForecastingPolicy):
    """Prediction baseline: disseminate when the mean forecast quantum violates the threshold."""

    trigger_cause = CAUSE_PREDICTION

    def _fires(self, state: EpochState, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a, b, c = state.normalize(self._forecast(state))
        score = np.where(state.t >= 2, (a + b + c) / 3.0, np.nan)
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
