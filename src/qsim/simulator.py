"""Experiment driver: N nodes, E independent experiments, and the three metrics.

One experiment replays a stream slice through its nodes for a window of exactly
T monitoring rounds. Each node first ingests one bootstrap vector and treats
the resulting synopsis as already shared, so monitoring starts from a zero
quantum; every later round ingests a vector, updates the synopsis, computes the
quantum against the last-sent synopsis, and steps the policy. Deadlines are
staggered across nodes: node i's first epoch ends at round (i - 1) mod T (a
full epoch when the offset is zero), so deadline-driven sends of distinct
nodes land on distinct rounds.

Per (policy, T, theta) cell the report aggregates over E experiments:

* phi: mean over experiments of first-dissemination round / T
* delta: mean quantum magnitude over all dissemination events
* psi: mean over experiments of T / (dissemination count in the window)
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InvariantViolation, StreamTruncationError
from .policies import POLICY_NAMES, EpochState, build_policy
from .synopsis import DataVector, QuantumNormalizer, Synopsis, update_quantum, update_synopsis
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
    "compute_phi",
    "compute_delta",
    "compute_psi",
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
    dims: int = 4

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(f"unknown policy {self.policy!r}; expected one of {POLICY_NAMES}")
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if self.theta <= 0.0:
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
        if self.dims < 1:
            raise ConfigurationError(f"dims must be >= 1, got {self.dims}")
        if self.source == SYNTHETIC_SOURCE and self.profile not in STREAM_PROFILES:
            raise ConfigurationError(
                f"unknown stream profile {self.profile!r}; expected one of {STREAM_PROFILES}"
            )

    @property
    def vectors_per_experiment(self) -> int:
        return self.N * (self.T + _SLACK)


@dataclass(frozen=True, slots=True)
class DisseminationEvent:
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


def generate_synthetic_stream(
    seed,
    length: int,
    dims: int = 4,
    profile: str = "drift",
    slope: float = 1.0,
    noise: float = 0.25,
    step_scale: float = 1.0,
    jump_prob: float = 0.05,
    jump_scale: float = 5.0,
) -> list[DataVector]:
    """Deterministic synthetic data stream; the seed fully determines the output.

    Profiles: "random-walk" (zero-mean Gaussian increments of step_scale),
    "drift" (increments of slope plus Gaussian noise, so successive differences
    average to slope per dimension), and "piecewise-constant" (flat, jumping by
    a Gaussian of jump_scale with probability jump_prob per step; with no jumps
    the stream is identically zero).
    """
    if length < 1:
        raise ConfigurationError(f"stream length must be >= 1, got {length}")
    if dims < 1:
        raise ConfigurationError(f"stream dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    if profile == "random-walk":
        increments = rng.normal(0.0, step_scale, size=(length, dims))
    elif profile == "drift":
        increments = slope + rng.normal(0.0, noise, size=(length, dims))
    elif profile == "piecewise-constant":
        jumps = rng.random(length) < jump_prob
        increments = np.zeros((length, dims))
        if jumps.any():
            increments[jumps] = rng.normal(0.0, jump_scale, size=(int(jumps.sum()), dims))
    else:
        raise ConfigurationError(
            f"unknown stream profile {profile!r}; expected one of {STREAM_PROFILES}"
        )
    levels = np.cumsum(increments, axis=0)
    return [
        DataVector(values=tuple(map(float, row)), timestamp=t)
        for t, row in enumerate(levels)
    ]


def _first_epoch(node_id: int, config: ExperimentConfig, synopsis: Synopsis) -> EpochState:
    offset = (node_id - 1) % config.T
    return EpochState(
        T=config.T,
        theta=config.theta,
        last_sent=synopsis,
        deadline=offset if offset > 0 else config.T,
        normalizer=QuantumNormalizer(window=config.window),
    )


def run_experiment(
    config: ExperimentConfig,
    stream: Sequence[DataVector],
    experiment: int = 0,
    policy=None,
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
    if policy is None:
        policy = build_policy(config.policy, alpha=config.alpha, beta=config.beta)
    n = config.N
    empty = Synopsis.empty(config.dims)
    synopses = [update_synopsis(empty, stream[j]) for j in range(n)]
    epochs = [_first_epoch(j + 1, config, synopses[j]) for j in range(n)]
    events: list[DisseminationEvent] = []
    for s in range(1, config.T + 1):
        base = s * n
        for idx, epoch in enumerate(epochs):
            synopsis = update_synopsis(synopses[idx], stream[base + idx])
            synopses[idx] = synopsis
            quantum = update_quantum(epoch.last_sent, synopsis)
            t_star = epoch.t
            decision = policy.step(epoch, quantum)
            if decision.disseminate:
                epoch.last_sent = synopsis
                events.append(
                    DisseminationEvent(
                        experiment=experiment,
                        node=idx + 1,
                        step=s,
                        t_star=t_star,
                        cause=decision.cause,
                        magnitude=quantum,
                        g=decision.g,
                    )
                )
    return ExperimentTrace(experiment=experiment, events=tuple(events))


def _experiment_stream(
    config: ExperimentConfig,
    index: int,
    dataset: Sequence[DataVector] | None,
) -> Sequence[DataVector]:
    count = config.vectors_per_experiment
    if config.source == SYNTHETIC_SOURCE:
        # Streams depend on (seed, T, N, experiment) only, never on policy or
        # theta, so grid cells compare policies on identical data.
        return generate_synthetic_stream(
            [config.seed, config.T, config.N, index],
            length=count,
            dims=config.dims,
            profile=config.profile,
        )
    if dataset is None:
        raise ConfigurationError(
            f"source {config.source!r} requires a replay dataset; none was supplied"
        )
    total = len(dataset)
    if total < count:
        raise StreamTruncationError(
            f"replay dataset holds {total} vectors but each experiment needs {count}"
        )
    start = index * count
    if start + count <= total:
        return dataset[start : start + count]
    return [dataset[(start + k) % total] for k in range(count)]


def run_cell(config: ExperimentConfig, dataset: Sequence[DataVector] | None = None,
             engine: InferenceEngine | None = None) -> MetricsReport:
    """Run E experiments for one grid cell and aggregate the metrics.

    Experiments consume disjoint contiguous dataset slices (wrapping with a
    warning once the replay data is exhausted); aggregation is ordered by
    experiment index, so results never depend on execution interleaving.
    """
    policy = build_policy(config.policy, engine=engine, alpha=config.alpha, beta=config.beta)
    if (
        dataset is not None
        and config.source != SYNTHETIC_SOURCE
        and config.E * config.vectors_per_experiment > len(dataset)
    ):
        log.warning(
            "replay dataset (%d vectors) is shorter than the grid demands (%d); wrapping around",
            len(dataset),
            config.E * config.vectors_per_experiment,
        )
    events: list[DisseminationEvent] = []
    first_stops: list[int] = []
    stop_counts: list[int] = []
    for i in range(config.E):
        stream = _experiment_stream(config, i, dataset)
        trace = run_experiment(config, stream, experiment=i, policy=policy)
        per_node: dict[int, list[DisseminationEvent]] = {}
        for event in trace.events:
            per_node.setdefault(event.node, []).append(event)
        if len(per_node) != config.N:
            raise InvariantViolation(
                f"experiment {i}: {len(per_node)} of {config.N} nodes disseminated; "
                "the deadline rule guarantees at least one stop per node per window"
            )
        for node_id in sorted(per_node):
            node_events = per_node[node_id]
            first_stops.append(node_events[0].t_star)
            stop_counts.append(len(node_events))
        events.extend(trace.events)
    phi = compute_phi(first_stops, config.T, config.E * config.N)
    delta = compute_delta([e.magnitude for e in events], config.E)
    psi = statistics.fmean(compute_psi(c, config.T) for c in stop_counts)
    return MetricsReport(
        policy=config.policy,
        T=config.T,
        theta=config.theta,
        E=config.E,
        N=config.N,
        phi=phi,
        delta=delta,
        psi=psi,
        message_count=len(events),
        per_experiment=tuple(events),
    )


def compute_phi(t_stars: Sequence[int], T: int, E: int) -> float:
    """Mean fraction of the deadline consumed before the first dissemination."""
    if len(t_stars) != E or E == 0:
        raise ValueError(f"expected {E} first-stop records, got {len(t_stars)}")
    return statistics.fmean(t / T for t in t_stars)


def compute_delta(magnitudes: Sequence[float], E: int) -> float:
    """Mean quantum magnitude at dissemination time, over all events."""
    if not magnitudes:
        raise ValueError("no dissemination magnitudes to average")
    if E < 1:
        raise ValueError(f"experiment count must be positive, got {E}")
    return statistics.fmean(magnitudes)


def compute_psi(stop_count: int, T: int) -> float:
    """Rounds per dissemination within one T-round window."""
    if stop_count < 1:
        raise InvariantViolation("a window with zero stops is impossible under the deadline rule")
    return T / stop_count
