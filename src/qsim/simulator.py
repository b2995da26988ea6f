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
events equal, bit for bit, those of driving each node alone through
`update_synopsis`, `update_quantum` and `policy.step` (`step_lanes` on one lane).

Per (policy, T, theta) cell the report aggregates over E experiments:

* phi: mean over experiments of first-dissemination round / T
* delta: mean quantum magnitude over all dissemination events
* psi: mean over experiments of T / (dissemination count in the window)
"""

from __future__ import annotations

import logging
import statistics
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

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


@dataclass(frozen=True, slots=True)
class ExperimentTrace:
    """Events of one experiment, in step order."""

    experiment: int
    events: tuple[DisseminationEvent, ...]


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
    per_experiment: tuple[DisseminationEvent, ...] = field(repr=False)


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
              first_experiment: int = 0) -> list[list[DisseminationEvent]]:
    """Run the experiments of `block`, one stream slice per row, as array lanes.

    Each (experiment, node) pair is a lane; all lanes go through the T rounds
    together. Node j reads position s * N + j - 1 of its experiment's slice at
    round s, after one bootstrap vector apiece at round 0, so the lanes share
    the synopsis count. Returns each experiment's events in (step, node) order.
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
    # update_synopsis of the empty synopsis with the bootstrap vector, taken as sent.
    empty = np.zeros((dims, lanes))
    last_sent = mean = empty + (rounds[0] - empty) / 1
    events: list[list[DisseminationEvent]] = [[] for _ in range(E)]
    new_event = tuple.__new__
    for s in range(1, T + 1):
        mean = mean + (rounds[s] - mean) / (s + 1)
        # update_quantum's L1 sum, dimension after dimension.
        quantum = np.add.accumulate(np.abs(mean - last_sent), axis=0)[-1]
        t_star, sends, triggered, score = policy.step_lanes(epochs, quantum)
        hit = np.flatnonzero(sends)
        if not hit.size:
            continue
        last_sent = np.where(sends, mean, last_sent)
        for lane, t, fired, magnitude, g in zip(
            hit.tolist(), t_star[hit].tolist(), triggered[hit].tolist(),
            quantum[hit].tolist(), score[hit].tolist(),
        ):
            experiment, node = divmod(lane, n)
            # The NamedTuple's own __new__ without its argument handling.
            events[experiment].append(new_event(DisseminationEvent, (
                first_experiment + experiment, node + 1, s, t,
                policy.trigger_cause if fired else CAUSE_DEADLINE, magnitude,
                None if g != g else g,  # NaN: the policy gives no score
            )))
    return events


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
    (events,) = _simulate(config, _vector_rows(stream[:need])[None], first_experiment=experiment)
    return ExperimentTrace(experiment=experiment, events=tuple(events))


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
    if config.E * count > total:
        log.warning(
            "replay dataset (%d vectors) is shorter than the grid demands (%d); wrapping around",
            total,
            config.E * count,
        )
    if total < count:
        raise StreamTruncationError(
            f"replay dataset holds {total} vectors but each experiment needs {count}"
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
    per_experiment = _simulate(config, _cell_streams(config, dataset), engine)
    first_stops: list[int] = []
    stop_counts: list[int] = []
    for i, events in enumerate(per_experiment):
        firsts = {e.node: e.t_star for e in reversed(events)}
        if len(firsts) != config.N:
            raise InvariantViolation(
                f"experiment {i}: {len(firsts)} of {config.N} nodes disseminated; "
                "the deadline rule guarantees at least one stop per node per window"
            )
        counts = Counter(e.node for e in events)
        for node_id in sorted(firsts):
            first_stops.append(firsts[node_id])
            stop_counts.append(counts[node_id])
    events = tuple(chain.from_iterable(per_experiment))
    return MetricsReport(
        policy=config.policy,
        T=config.T,
        theta=config.theta,
        E=config.E,
        N=config.N,
        phi=statistics.fmean(t / config.T for t in first_stops),
        delta=statistics.fmean(e.magnitude for e in events),
        psi=statistics.fmean(config.T / c for c in stop_counts),
        message_count=len(events),
        per_experiment=events,
    )
