"""Experiment driver: N nodes, E independent experiments, and the three metrics.

One experiment replays a stream slice through its nodes for a window of exactly
T monitoring rounds. Each node first ingests one bootstrap vector and treats
the resulting synopsis as already shared, so monitoring starts from a zero
quantum; every later round ingests a vector, updates the synopsis, computes the
quantum against the last-sent synopsis, and steps the policy. Deadlines are
staggered across nodes: node i's first epoch ends at round (i - 1) mod T (a
full epoch when the offset is zero), so deadline-driven sends of distinct
nodes land on distinct rounds.

The cells of one (policy, T), their experiments and their nodes never
interact, so the driver steps all of them together: each (theta, experiment,
node) is one lane of numpy arrays, and one loop runs the T rounds (`step_lanes`
in policies.py holds the per-lane epoch logic). Since lanes never interact, its
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
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, IngestionError, InvariantViolation, StreamTruncationError,
                     _check_choice, _check_integer, _check_real, _echo)
from .forecasting import _check_smoothing
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
# The largest experiment, node, step or t* that an int32 event column holds.
_ID_MAX = 2**31 - 1


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
        _check_choice("policy", self.policy, POLICY_NAMES)
        for name in ("T", "E", "N"):  # event ids are int32 columns
            _check_integer(name, getattr(self, name), 1, _ID_MAX)
        _check_integer("normalization window", self.window, 1)
        _check_integer("seed", self.seed, 0)
        _check_real("theta", self.theta)
        if not self.theta > 0.0:
            raise ConfigurationError(f"theta must be positive, got {self.theta}")
        _check_smoothing(self.alpha, self.beta)
        if self.source == SYNTHETIC_SOURCE:
            _check_choice("stream profile", self.profile, STREAM_PROFILES)

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
class EventColumns:
    """Read-only dissemination events, held as one numpy array per field.

    `experiment`, `node`, `step` and `t_star` are int32 columns, `magnitude`
    and `g` float64 ones (g NaN where the policy gives no score). The bool
    `triggered` column gives the cause: the policy's `trigger_cause`, else the
    deadline. The constructor marks every column read-only, since reports may
    share one table. Iteration builds DisseminationEvents on demand, and
    pickling ships the columns as arrays. Two tables are equal when their
    trigger causes and the bytes of every column are, so -0.0 and 0.0 differ,
    as the detail files write them.
    """

    experiment: np.ndarray
    node: np.ndarray
    step: np.ndarray
    t_star: np.ndarray
    triggered: np.ndarray
    magnitude: np.ndarray
    g: np.ndarray
    trigger_cause: str

    def __post_init__(self) -> None:
        for column in self._columns():
            column.flags.writeable = False

    def __reduce__(self):
        # Through the constructor, so an unpickled table is read-only too.
        return EventColumns, (*self._columns(), self.trigger_cause)

    def _columns(self) -> tuple:
        return (self.experiment, self.node, self.step, self.t_star, self.triggered,
                self.magnitude, self.g)

    @property
    def causes(self) -> tuple[str, str]:
        """The cause of a send, indexed by its `triggered` flag."""
        return (CAUSE_DEADLINE, self.trigger_cause)

    def __len__(self) -> int:
        return len(self.step)

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
            a.tobytes() == b.tobytes() for a, b in zip(self._columns(), other._columns()))

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
    """Aggregates of one (policy, T, theta) cell across E experiments.

    Cells of one (policy, T) run whose events are equal bit for bit share one
    `per_experiment` table (BM never reads theta, so its cells always do), one
    `detail` text, and `write_reports` writes their detail file once and
    copies it for the others.
    """

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
    # A pooled report's detail rows as the worker formatted them: UTF-8 CSV
    # text, zlib-compressed per block of rows. None where the rows are still
    # to be formatted from `per_experiment`.
    detail: tuple[bytes, ...] | None = field(default=None, repr=False, compare=False)


def _synthetic_block(seeds, length: int, dims: int = 4, profile: str = "drift",
                     jump_prob: float = 0.05) -> np.ndarray:
    """The synthetic stream of each seed, as one (len(seeds), length, dims) array."""
    _check_integer("stream length", length, 1)
    _check_integer("stream dims", dims, 1)
    _check_choice("stream profile", profile, STREAM_PROFILES)
    if not 0.0 <= _check_real("jump_prob", jump_prob) <= 1.0:  # NaN fails too
        raise ConfigurationError(f"jump_prob must lie in [0, 1], got {_echo(jump_prob)}")
    increments = np.zeros((len(seeds), length, dims))
    for stream, seed in zip(increments, seeds):
        # A cell's seed is a list; None would draw OS entropy, and a bool would read as 0 or 1.
        for part in seed if isinstance(seed, (list, tuple)) else [seed]:
            _check_integer("seed", part, 0)
        rng = np.random.default_rng(seed)
        if profile == "random-walk":
            stream[:] = rng.normal(0.0, 1.0, size=(length, dims))
        elif profile == "drift":
            stream[:] = 1.0 + rng.normal(0.0, 0.25, size=(length, dims))
        else:
            jumps = rng.random(length) < jump_prob
            stream[jumps] = rng.normal(0.0, 5.0, size=(int(jumps.sum()), dims))
    return np.cumsum(increments, axis=1, out=increments)


def generate_synthetic_stream(
    seed,
    length: int,
    dims: int = 4,
    profile: str = "drift",
    jump_prob: float = 0.05,
) -> list[DataVector]:
    """Deterministic synthetic data stream; the seed, a non-negative integer, fixes the output.

    Profiles: "random-walk" (standard Gaussian increments), "drift" (increments
    of 1 plus Gaussian noise of deviation 0.25, so successive differences
    average to 1 per dimension), and "piecewise-constant" (flat, jumping by a
    Gaussian of deviation 5 with probability jump_prob per step; with no jumps
    the stream is identically zero).
    """
    levels = _synthetic_block([seed], length, dims, profile, jump_prob)[0]
    return [DataVector(values=tuple(row), timestamp=t) for t, row in enumerate(levels.tolist())]


def _replay_slices(config: ExperimentConfig, vectors, E: int) -> np.ndarray:
    """(E, vectors_per_experiment, dims) array of E disjoint contiguous slices
    of `vectors`, DataVectors or a (rows, dims) float array, wrapping past the
    end with a warning once the data is exhausted."""
    count, total = config.vectors_per_experiment, len(vectors)
    if total < count:
        raise StreamTruncationError(
            f"replay data holds {total} vectors but each experiment needs {count} "
            f"(shortfall {count - total}): {config.N} node(s) x (T={config.T} + {_SLACK})")
    if E * count > total:
        log.warning("replay dataset (%d vectors) is shorter than the grid demands (%d); wrapping around",
                    total, E * count)
    if isinstance(vectors, np.ndarray):
        rows = vectors.astype(float, copy=False)
    else:
        try:
            rows = np.array([v.values for v in vectors], dtype=float)
        except ValueError as exc:
            raise ConfigurationError(f"data vectors differ in dimension: {exc}") from exc
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ConfigurationError(f"data vectors must form a (rows, dims) array, got shape {rows.shape}")
    block = rows[np.arange(E * count).reshape(E, count) % total]
    if not np.isfinite(block).all():
        raise IngestionError("non-finite entry in the experiment streams")
    return block


@dataclass(frozen=True, slots=True)
class _DecisionRecord:
    """Every lane's every round: (T, E, N) views of the arrays `_simulate` fills."""

    sends: np.ndarray
    triggered: np.ndarray
    t_star: np.ndarray
    quantum: np.ndarray
    score: np.ndarray
    trigger_cause: str

    def events(self, first_experiment: int = 0) -> EventColumns:
        """The sends in report order, (experiment, step, node), experiments from `first_experiment`."""
        experiment, step, node = (i.astype(np.int32) for i in np.nonzero(self.sends.transpose(1, 0, 2)))
        sent = (step, experiment, node)
        return EventColumns(experiment + np.int32(first_experiment), node + 1, step + 1,
                            self.t_star[sent], self.triggered[sent], self.quantum[sent], self.score[sent],
                            self.trigger_cause)


def _simulate(config: ExperimentConfig, thetas: Sequence[float], block: np.ndarray,
              engine: InferenceEngine | None = None) -> tuple[_DecisionRecord, ...]:
    """Run the experiments of `block`, one stream slice per row, once per
    threshold in `thetas`, as array lanes: one per (theta, experiment, node).

    All lanes go through the T rounds together. Node j reads position
    s * N + j - 1 of its experiment's slice at round s, after one bootstrap
    vector apiece at round 0, so the lanes share the synopsis count, and the
    thresholds share the running means. Returns one decision record per theta.
    """
    E, n, T, k, dims = len(block), config.N, config.T, len(thetas), block.shape[2]
    lanes = k * E * n
    # (round, dim, 1, stream), stream = experiment * N + node - 1. A lane is
    # theta index * E * N + stream: the thresholds share the streams.
    rounds = np.ascontiguousarray(
        block[:, : n * (T + 1)].reshape(E, T + 1, n, dims).transpose(1, 3, 0, 2)
    ).reshape(T + 1, dims, 1, E * n)
    policy = build_policy(config.policy, engine=engine, alpha=config.alpha, beta=config.beta)
    # Staggered first deadlines: node i's first epoch ends at round (i - 1) mod T.
    offsets = np.arange(n) % T
    # A cell observes T quanta, all >= 0, so a window above T keeps the same maximum.
    epochs = EpochState(T, np.repeat(thetas, E * n), np.tile(np.where(offsets > 0, offsets, T), k * E),
                        min(config.window, T))
    # The running mean of the bootstrap vector alone, taken as sent; the rounds update them in place.
    mean = rounds[0].copy()
    last_sent = np.repeat(mean, k, axis=1)
    step, distance = np.empty_like(mean), np.empty_like(last_sent)
    # Row s - 1 holds every lane's round s. A row is written once, so the
    # quanta the epoch state keeps stay valid.
    sends, triggered = np.empty((2, T, lanes), bool)
    t_star = np.empty((T, lanes), np.int32)
    quantum, score = np.empty((2, T, lanes))
    # The same rows as (k, E * N) arrays, which broadcast against the mean.
    sends_k, quantum_k = sends.reshape(T, k, E * n), quantum.reshape(T, k, E * n)
    for s in range(1, T + 1):
        mean += np.divide(np.subtract(rounds[s], mean, out=step), s + 1, out=step)
        # The L1 sum, dimension after dimension.
        np.abs(np.subtract(mean, last_sent, out=distance), out=distance)
        quantum_k[s - 1] = np.add.accumulate(distance, axis=0, out=distance)[-1]
        t_star[s - 1], sends[s - 1], triggered[s - 1], score[s - 1] = policy.step_lanes(
            epochs, quantum[s - 1])
        np.copyto(last_sent, mean, where=sends_k[s - 1])
    record = [a.reshape(T, k, E, n) for a in (sends, triggered, t_star, quantum, score)]
    return tuple(_DecisionRecord(*(a[:, i] for a in record), policy.trigger_cause) for i in range(k))


def run_experiment(
    config: ExperimentConfig,
    stream: Sequence[DataVector],
    experiment: int = 0,
) -> ExperimentTrace:
    """Drive one experiment window over an explicit stream slice.

    The slice must hold T + 3 vectors per node; vectors are consumed round-robin
    (node j takes position s * N + j - 1 at round s, after one bootstrap vector
    apiece). The stream is cut, shape-checked, checked finite and checked for
    truncation by `run_cell`'s replay slicer, with E = 1. The trace is a pure
    function of (config, stream).
    """
    _check_integer("experiment index", experiment, 0, _ID_MAX - 1)
    events = _simulate(config, (config.theta,), _replay_slices(config, stream, 1))[0].events(experiment)
    return ExperimentTrace(experiment=experiment, events=events)


def _cell_streams(config: ExperimentConfig, dataset) -> np.ndarray:
    """(E, vectors_per_experiment, dims) array: experiment i's stream slice in row i."""
    if config.source == SYNTHETIC_SOURCE:
        # Streams depend on (seed, T, N, experiment) only, never on policy or
        # theta, so grid cells compare policies on identical data.
        seeds = [[config.seed, config.T, config.N, i] for i in range(config.E)]
        return _synthetic_block(seeds, config.vectors_per_experiment, profile=config.profile)
    if dataset is None:
        raise ConfigurationError(
            f"source {config.source!r} requires a replay dataset; none was supplied"
        )
    return _replay_slices(config, dataset, config.E)


def run_cell(config: ExperimentConfig, dataset=None,
             engine: InferenceEngine | None = None) -> MetricsReport:
    """Run E experiments for one grid cell and aggregate the metrics.

    A replay `dataset` is a sequence of DataVectors or a (rows, dims) array.
    Experiments consume disjoint contiguous dataset slices (wrapping with a
    warning once the replay data is exhausted); one slicer holds these slices
    and the shape, finiteness and truncation checks, for `run_experiment` too.
    Aggregation is ordered by experiment index, so results never depend on
    execution interleaving.
    """
    return _run_group((config,), _cell_streams(config, dataset), engine)[0]


def _run_group(cells: Sequence[ExperimentConfig], block: np.ndarray,
               engine: InferenceEngine | None = None) -> tuple[MetricsReport, ...]:
    """`run_cell` of each of `cells`, which differ in theta alone, from one
    kernel pass over `block`, their `_cell_streams`.

    A report whose events equal an earlier report's bit for bit takes that
    report's table, so the copies are formatted and written once downstream.
    """
    records = _simulate(cells[0], [c.theta for c in cells], block, engine)
    # A caller that hands over its last reference gets the block freed before the reports are built.
    del block
    tables: dict[EventColumns, EventColumns] = {}  # each distinct table, keyed by itself
    return tuple(replace(r, per_experiment=tables.setdefault(r.per_experiment, r.per_experiment))
                 for r in map(_report, cells, records))


def _report(config: ExperimentConfig, record: _DecisionRecord) -> MetricsReport:
    """The metrics of one cell, read off its decision record."""
    events = record.events()
    N, T = config.N, config.T
    counts = record.sends.sum(axis=0)  # (E, N): each lane's sends
    silent = np.flatnonzero((counts == 0).any(axis=1))
    if silent.size:
        raise InvariantViolation(
            f"experiment {silent[0]}: {np.count_nonzero(counts[silent[0]])} of {N} nodes "
            "disseminated; the deadline rule guarantees at least one stop per node per window"
        )
    # A lane's first epoch starts at round 1, so its first t* is the step of its first send.
    first_t_star = record.sends.argmax(axis=0) + 1
    # statistics.fmean is math.fsum(data) / len(data): the same metrics, bit for bit.
    return MetricsReport(
        policy=config.policy,
        T=T,
        theta=config.theta,
        E=config.E,
        N=N,
        phi=math.fsum((first_t_star / T).ravel().tolist()) / first_t_star.size,
        delta=math.fsum(events.magnitude.tolist()) / len(events),
        psi=math.fsum((T / counts).ravel().tolist()) / counts.size,
        message_count=len(events),
        per_experiment=events,
    )
