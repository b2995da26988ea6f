"""Experiment driver: N nodes, E independent experiments, and the three metrics.

One experiment replays a stream slice through its nodes for a window of exactly
T monitoring rounds. Each node first ingests one bootstrap vector and treats
the resulting synopsis as already shared, so monitoring starts from a zero
quantum; every later round ingests a vector, updates the synopsis, computes the
quantum against the last-sent synopsis, and steps the policy. Deadlines are
staggered across nodes: node i's first epoch ends at round (i - 1) mod T (a
full epoch when the offset is zero), so deadline-driven sends of distinct
nodes land on distinct rounds.

The experiments of a cell, and the nodes of an experiment, never interact, so
the driver steps all of them together: each (experiment, node) pair is one
lane of numpy arrays, and one loop runs the T rounds (`step_lanes` in
policies.py holds the per-lane epoch logic). Since lanes never interact, its
events equal, bit for bit, those of driving each node alone, one round at a
time, through a running mean, an L1 quantum and `policy.step` (`step_lanes` on
one lane); the test suite keeps that scalar driver as the reference.

Per (policy, T, theta) cell the report aggregates over E experiments:

* phi: mean over experiments of first-dissemination round / T
* delta: mean quantum magnitude over all dissemination events
* psi: mean over experiments of T / (dissemination count in the window)
"""

from __future__ import annotations

import logging
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, IngestionError, InvariantViolation, StreamTruncationError
from .policies import CAUSE_DEADLINE, POLICY_NAMES, EpochState, build_policy
from .synopsis import DataVector
from .t2fls import InferenceEngine

__all__ = [
    "SYNTHETIC_SOURCE",
    "STREAM_PROFILES",
    "ExperimentConfig",
    "DisseminationEvent",
    "EventColumns",
    "ExperimentTrace",
    "MetricsReport",
    "generate_synthetic_stream",
    "run_experiment",
    "run_cell",
]

log = logging.getLogger(__name__)

SYNTHETIC_SOURCE = "synthetic"
STREAM_PROFILES = ("random-walk", "drift", "piecewise-constant")

# Vectors each node needs per experiment: 1 bootstrap + T rounds, with headroom.
_SLACK = 3


@dataclass(frozen=True, slots=True)
class ExperimentConfig:
    """Everything that determines one cell of the experiment grid."""

    policy: str = "UDDM"
    T: int = 10
    theta: float = 0.6
    E: int = 100
    N: int = 1
    alpha: float = 0.5
    beta: float = 0.5
    window: int = 50
    seed: int = 42
    source: str = SYNTHETIC_SOURCE
    profile: str = "drift"

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if not self.theta > 0.0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        if self.E < 1:
            raise ConfigurationError(f"E must be >= 1, got {self.E}")
        if self.N < 1:
            raise ConfigurationError(f"N must be >= 1, got {self.N}")
        if not 0.0 < self.alpha < 1.0 or not 0.0 < self.beta < 1.0:
            raise ConfigurationError(
                f"smoothing factors must lie strictly inside (0, 1), got {self.alpha}, {self.beta}"
            )
        if self.window < 1:
            raise ConfigurationError(f"normalization window must be >= 1, got {self.window}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        if self.source == SYNTHETIC_SOURCE and self.profile not in STREAM_PROFILES:
            raise ConfigurationError(
                f"unknown stream profile {self.profile!r}; expected one of {STREAM_PROFILES}"
            )

    @property
    def vectors_per_experiment(self) -> int:
        return self.N * (self.T + _SLACK)


class DisseminationEvent(NamedTuple):
    """One synopsis dissemination: where, when, why, and how big."""

    experiment: int
    node: int
    step: int       # absolute round within the window, 1-based
    t_star: int     # epoch-relative round at which the decision fired
    cause: str
    magnitude: float
    g: float | None


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class EventColumns(Sequence):
    """Read-only sequence of dissemination events, held as one numpy array per field.

    The integer fields are int64 columns, `magnitude` and `g` float64 ones (g
    NaN where the policy gives no score). The cause is the bool `triggered`
    column: a triggered send has the policy's `trigger_cause`, any other one
    hit the deadline. Indexing and iteration build DisseminationEvents on
    demand; equality compares the columns, and pickling ships them as arrays.
    """

    experiment: np.ndarray
    node: np.ndarray
    step: np.ndarray
    t_star: np.ndarray
    triggered: np.ndarray
    magnitude: np.ndarray
    g: np.ndarray
    trigger_cause: str

    def _columns(self) -> tuple:
        return (self.experiment, self.node, self.step, self.t_star, self.triggered,
                self.magnitude, self.g)

    @property
    def causes(self) -> tuple[str, str]:
        """The cause of a send, indexed by its `triggered` flag."""
        return (CAUSE_DEADLINE, self.trigger_cause)

    def __len__(self) -> int:
        return len(self.step)

    def __getitem__(self, index) -> DisseminationEvent:
        index = operator.index(index)
        if not -len(self) <= index < len(self):
            raise IndexError(f"event index {index} out of range for {len(self)} events")
        experiment, node, step, t_star, fired, magnitude, g = (
            column[index].item() for column in self._columns())
        return DisseminationEvent(experiment, node, step, t_star, self.causes[fired], magnitude,
                                  None if g != g else g)  # NaN: the policy gives no score

    def __iter__(self):
        causes = self.causes
        new_event = tuple.__new__  # the NamedTuple's own __new__ without its argument handling
        for experiment, node, step, t_star, fired, magnitude, g in zip(
                *(c.tolist() for c in self._columns())):
            yield new_event(DisseminationEvent, (
                experiment, node, step, t_star, causes[fired], magnitude, None if g != g else g,
            ))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventColumns):
            return NotImplemented
        return self.trigger_cause == other.trigger_cause and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(self._columns(), other._columns())
        )

    def __hash__(self) -> int:
        return hash((len(self), self.trigger_cause))

    def __repr__(self) -> str:
        return f"EventColumns({len(self)} events)"


@dataclass(frozen=True, slots=True)
class ExperimentTrace:
    """Events of one experiment, in step order."""

    experiment: int
    events: EventColumns


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """Aggregates of one (policy, T, theta) cell across E experiments."""

    policy: str
    T: int
    theta: float
    E: int
    N: int
    phi: float
    delta: float
    psi: float
    message_count: int
    per_experiment: EventColumns = field(repr=False)


def _synthetic_block(seeds, length: int, dims: int = 4, profile: str = "drift",
                     jump_prob: float = 0.05) -> np.ndarray:
    """The synthetic stream of each seed, as one (len(seeds), length, dims) array."""
    if length < 1:
        raise ConfigurationError(f"stream length must be >= 1, got {length}")
    if dims < 1:
        raise ConfigurationError(f"stream dims must be >= 1, got {dims}")
    if profile not in STREAM_PROFILES:
        raise ConfigurationError(
            f"unknown stream profile {profile!r}; expected one of {STREAM_PROFILES}"
        )
    increments = np.zeros((len(seeds), length, dims))
    for stream, seed in zip(increments, seeds):
        rng = np.random.default_rng(seed)
        if profile == "random-walk":
            stream[:] = rng.normal(0.0, 1.0, size=(length, dims))
        elif profile == "drift":
            stream[:] = 1.0 + rng.normal(0.0, 0.25, size=(length, dims))
        else:
            jumps = rng.random(length) < jump_prob
            if jumps.any():
                stream[jumps] = rng.normal(0.0, 5.0, size=(int(jumps.sum()), dims))
    return np.cumsum(increments, axis=1, out=increments)


def generate_synthetic_stream(
    seed,
    length: int,
    dims: int = 4,
    profile: str = "drift",
    jump_prob: float = 0.05,
) -> list[DataVector]:
    """Deterministic synthetic data stream; the seed fully determines the output.

    Profiles: "random-walk" (standard Gaussian increments), "drift" (increments
    of 1 plus Gaussian noise of deviation 0.25, so successive differences
    average to 1 per dimension), and "piecewise-constant" (flat, jumping by a
    Gaussian of deviation 5 with probability jump_prob per step; with no jumps
    the stream is identically zero).
    """
    levels = _synthetic_block([seed], length, dims, profile, jump_prob)[0]
    return [DataVector(values=tuple(row), timestamp=t) for t, row in enumerate(levels.tolist())]


def _vector_rows(vectors) -> np.ndarray:
    """A stream or replay dataset, given as DataVectors or as a (rows, dims)
    float array, as that array."""
    if isinstance(vectors, np.ndarray):
        rows = vectors.astype(float, copy=False)
    else:
        try:
            rows = np.array([v.values for v in vectors], dtype=float)
        except ValueError as exc:
            raise ConfigurationError(f"data vectors differ in dimension: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ConfigurationError(f"data vectors must form a (rows, dims) array, got shape {rows.shape}")
    return rows


def _simulate(config: ExperimentConfig, block: np.ndarray, engine: InferenceEngine | None = None,
              first_experiment: int = 0) -> EventColumns:
    """Run the experiments of `block`, one stream slice per row, as array lanes.

    Each (experiment, node) pair is a lane; all lanes go through the T rounds
    together. Node j reads position s * N + j - 1 of its experiment's slice at
    round s, after one bootstrap vector apiece at round 0, so the lanes share
    the synopsis count. Returns the events in (experiment, step, node) order,
    experiments numbered from `first_experiment`.
    """
    if not np.isfinite(block).all():
        raise IngestionError("non-finite entry in the experiment streams")
    E, n, T = len(block), config.N, config.T
    dims = block.shape[2]
    lanes = E * n
    # (round, dim, lane), lane = experiment * N + node - 1: lanes innermost.
    rounds = np.ascontiguousarray(
        block[:, : n * (T + 1)].reshape(E, T + 1, n, dims).transpose(1, 3, 0, 2)
    ).reshape(T + 1, dims, lanes)
    policy = build_policy(config.policy, engine=engine, alpha=config.alpha, beta=config.beta)
    # Staggered first deadlines: node i's first epoch ends at round (i - 1) mod T.
    offsets = np.arange(n) % T
    epochs = EpochState(T, config.theta, np.tile(np.where(offsets > 0, offsets, T), E),
                        config.window)
    # The running mean of the bootstrap vector alone, taken as sent.
    last_sent = mean = rounds[0]
    # The decision record: row s - 1 holds every lane's round s. A row is
    # written once, so the quanta the epoch state keeps stay valid.
    sends, triggered = np.empty((2, T, lanes), bool)
    t_star = np.empty((T, lanes), np.int64)
    quantum, score = np.empty((2, T, lanes))
    for s in range(1, T + 1):
        mean = mean + (rounds[s] - mean) / (s + 1)
        # The L1 sum, dimension after dimension.
        quantum[s - 1] = np.add.accumulate(np.abs(mean - last_sent), axis=0)[-1]
        t_star[s - 1], sends[s - 1], triggered[s - 1], score[s - 1] = policy.step_lanes(
            epochs, quantum[s - 1])
        last_sent = np.where(sends[s - 1], mean, last_sent)
    # Row-major over (experiment, step, node): the report order.
    experiment, step, node = np.nonzero(sends.reshape(T, E, n).transpose(1, 0, 2))
    sent = (step, experiment * n + node)
    return EventColumns(experiment + first_experiment, node + 1, step + 1, t_star[sent],
                        triggered[sent], quantum[sent], score[sent], policy.trigger_cause)


def run_experiment(
    config: ExperimentConfig,
    stream: Sequence[DataVector],
    experiment: int = 0,
) -> ExperimentTrace:
    """Drive one experiment window over an explicit stream slice.

    The slice must hold T + 3 vectors per node; vectors are consumed round-robin
    (node j takes position s * N + j - 1 at round s, after one bootstrap vector
    apiece). The trace is a pure function of (config, stream).
    """
    need = config.vectors_per_experiment
    if len(stream) < need:
        raise StreamTruncationError(
            f"stream supplies {len(stream)} vectors but experiment {experiment} needs {need} "
            f"(shortfall {need - len(stream)}): {config.N} node(s) x (T={config.T} + {_SLACK})"
        )
    events = _simulate(config, _vector_rows(stream[:need])[None], first_experiment=experiment)
    return ExperimentTrace(experiment=experiment, events=events)


def _cell_streams(config: ExperimentConfig, dataset) -> np.ndarray:
    """(E, vectors_per_experiment, dims) array: experiment i's stream slice in row i."""
    count = config.vectors_per_experiment
    if config.source == SYNTHETIC_SOURCE:
        # Streams depend on (seed, T, N, experiment) only, never on policy or
        # theta, so grid cells compare policies on identical data.
        seeds = [[config.seed, config.T, config.N, i] for i in range(config.E)]
        return _synthetic_block(seeds, count, profile=config.profile)
    if dataset is None:
        raise ConfigurationError(
            f"source {config.source!r} requires a replay dataset; none was supplied"
        )
    total = len(dataset)
    if total < count:
        raise StreamTruncationError(
            f"replay dataset holds {total} vectors but each experiment needs {count}"
        )
    if config.E * count > total:
        log.warning(
            "replay dataset (%d vectors) is shorter than the grid demands (%d); wrapping around",
            total,
            config.E * count,
        )
    # Experiments take disjoint contiguous slices, wrapping past the end.
    positions = np.arange(config.E * count).reshape(config.E, count) % total
    return _vector_rows(dataset)[positions]


def run_cell(config: ExperimentConfig, dataset=None,
             engine: InferenceEngine | None = None) -> MetricsReport:
    """Run E experiments for one grid cell and aggregate the metrics.

    A replay `dataset` is a sequence of DataVectors or a (rows, dims) array.
    Experiments consume disjoint contiguous dataset slices (wrapping with a
    warning once the replay data is exhausted); aggregation is ordered by
    experiment index, so results never depend on execution interleaving.
    """
    events = _simulate(config, _cell_streams(config, dataset), engine)
    N, T = config.N, config.T
    lane = events.experiment * N + events.node - 1
    counts = np.bincount(lane, minlength=config.E * N)
    silent = np.flatnonzero(counts == 0)
    if silent.size:
        i = int(silent[0]) // N
        raise InvariantViolation(
            f"experiment {i}: {np.count_nonzero(counts[i * N:(i + 1) * N])} of {N} nodes "
            "disseminated; the deadline rule guarantees at least one stop per node per window"
        )
    # Events of a lane are in step order, so its first occurrence is its first stop.
    _, first = np.unique(lane, return_index=True)
    # statistics.fmean is math.fsum(data) / len(data): the same metrics, bit for bit.
    return MetricsReport(
        policy=config.policy,
        T=T,
        theta=config.theta,
        E=config.E,
        N=N,
        phi=math.fsum((events.t_star[first] / T).tolist()) / len(first),
        delta=math.fsum(events.magnitude.tolist()) / len(events),
        psi=math.fsum((T / counts).tolist()) / len(counts),
        message_count=len(events),
        per_experiment=events,
    )
