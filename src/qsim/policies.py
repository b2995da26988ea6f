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

from .errors import ConfigurationError, _check_choice, _check_integer, _check_real
from .forecasting import _check_smoothing, _holt_project, _holt_update
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
    phase offsets), back to T after every dissemination. A float `theta` is
    every lane's threshold; an array gives one per lane.

    Per lane: the round counter `t`, the `deadline`, the last three quanta
    (oldest first; `t` of them belong to the current epoch), the Holt `level`
    and `trend` (meaningful once `t` >= 2) and the normaliser window of the
    last `window` quanta. The window deliberately spans epochs: it is the
    cross-epoch scale memory. Every lane observes one quantum per round, so
    the window's write position is shared. It starts filled with zeros: quanta
    are >= 0, so the zeros never raise its maximum, and a state that has seen
    nothing divides by the floor.
    """

    def __init__(self, T: int, theta: float | np.ndarray, deadline=None, window: int = 50) -> None:
        _check_integer("epoch length T", T, 1)
        _check_integer("normalization window", window, 1)
        # numpy reads a bool inside a list as 1, so the list is checked before it is converted.
        bools = isinstance(deadline, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in deadline)
        deadline = np.array(T if deadline is None else deadline, ndmin=1)
        if bools or deadline.dtype.kind not in "iu" or not ((1 <= deadline) & (deadline <= T)).all():
            raise ConfigurationError(f"epoch deadlines {deadline} must be integers in [1, T={T}]")
        lanes = len(deadline)
        if not isinstance(theta, np.ndarray):  # an array holds one threshold per lane
            _check_real("theta", theta)
        theta = np.asarray(theta, dtype=float)
        if not (theta > 0.0).all() or theta.shape not in ((), (lanes,)):
            raise ConfigurationError(f"thresholds must be positive, one or one per lane, got {theta}")
        self.T = T
        self.theta = theta
        self.t = np.ones(lanes, dtype=np.int64)
        self.deadline = deadline.astype(np.int64)
        zeros = np.zeros(lanes)
        self.quanta = (zeros, zeros, zeros)
        self.level, self.trend = np.zeros((2, lanes))  # apart, as the forecaster seeds them in place
        self._window = np.zeros((window, lanes))
        self._observed = 0

    def observe(self, quantum: np.ndarray) -> None:
        """Admit one raw quantum per lane into the last three and the window."""
        self.quanta = (self.quanta[1], self.quanta[2], quantum)
        self._window[self._observed % len(self._window)] = quantum
        self._observed += 1

    def normalize(self, values, lanes=slice(None)) -> np.ndarray:
        """Values >= 0 of the lanes `lanes` over their window maxima, cut at 1 (last axis)."""
        peak = self._window.max(axis=0)[lanes]
        return np.minimum(values / np.maximum(peak, _SCALE_FLOOR), 1.0)


class _PolicyBase:
    """Shared step skeleton: observe the quantum, test the trigger, apply the deadline."""

    trigger_cause: str = ""

    def step(self, state: EpochState, quantum: float) -> Decision:
        """`step_lanes` on a one-lane `state`: admit one raw quantum and decide."""
        if len(state.t) != 1 or not 0.0 <= _check_real("quantum", quantum) < math.inf:
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
        sends = t_star >= state.deadline
        sends |= triggered
        state.t = t_star + 1
        np.copyto(state.t, 1, where=sends)
        np.copyto(state.deadline, state.T, where=sends)
        return t_star, sends, triggered, score

    def _fires(self, state: EpochState, quantum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class _ForecastingPolicy(_PolicyBase):
    """Holt forecaster upkeep shared by the policies that look ahead."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.5) -> None:
        _check_smoothing(alpha, beta)
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
        np.copyto(state.level, previous, where=seed)
        np.subtract(quantum, previous, out=state.trend, where=seed)
        state.level, state.trend = _holt_update(state.level, state.trend, quantum, self.alpha, self.beta)
        return _holt_project(state.level, state.trend, _HORIZON)


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
        forecast = self._forecast(state)
        g = np.full(len(state.t), np.nan)
        # Lanes are scored from t = 3 on; a score does not depend on the batch,
        # so only they are normalised and sent.
        scored = np.flatnonzero(state.t >= 3)
        if scored.size:
            # Rows: the three past quanta, then the three forecasts.
            views = state.normalize(np.concatenate((state.quanta, forecast))[:, scored], scored)
            triples = views.reshape(2, 3, -1).transpose(1, 0, 2)
            g[scored] = combine_pods(*self.engine.evaluate_many(*triples))
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
    _check_choice("policy", name, POLICY_NAMES)
    if name == "UDDM":
        return UddmPolicy(engine=engine, alpha=alpha, beta=beta)
    if name == "BM":
        return BmPolicy()
    return PmPolicy(alpha=alpha, beta=beta)
