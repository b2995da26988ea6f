"""Streaming synopsis maintenance and update-quantum tracking for a single node.

A node summarizes its incoming data vectors with a per-dimension running mean
and measures, at every step, how far that summary has drifted from the synopsis
it last shared: the L1 distance between the two vectors is the update quantum.
The decision layer (`policies.EpochState`) normalizes quanta into [0, 1]
against a sliding-window running maximum before they reach the fuzzy layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, IngestionError

__all__ = [
    "DataVector",
    "Synopsis",
    "update_synopsis",
    "update_quantum",
]


@dataclass(frozen=True, slots=True)
class DataVector:
    """One d-dimensional sensor reading arriving at a discrete step."""

    values: tuple[float, ...]
    timestamp: int = 0

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("data vector needs at least one dimension")
        for v in self.values:
            if not math.isfinite(v):
                raise IngestionError(
                    f"non-finite entry {v!r} in data vector at step {self.timestamp}"
                )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, slots=True)
class Synopsis:
    """Statistical summary of everything a node has ingested so far.

    The default realization is the per-dimension running mean, so the summary
    has the same dimensionality as the data vectors it absorbs.
    """

    stats: tuple[float, ...]
    count: int = 0

    @classmethod
    def empty(cls, dims: int) -> "Synopsis":
        if dims < 1:
            raise ConfigurationError("synopsis needs at least one dimension")
        return cls(stats=(0.0,) * dims, count=0)

    def __len__(self) -> int:
        return len(self.stats)


def update_synopsis(s: Synopsis, x: DataVector) -> Synopsis:
    """Absorb one data vector into the running-mean synopsis.

    The mean is updated incrementally and exactly: mean' = mean + (x - mean) / n'.
    Non-finite vectors are rejected at DataVector construction, step-identified,
    so they can never reach this point.
    """
    if len(s.stats) != len(x.values):
        raise ConfigurationError(
            f"synopsis has {len(s.stats)} dimensions but data vector has {len(x.values)}"
        )
    count = s.count + 1
    stats = tuple(m + (v - m) / count for m, v in zip(s.stats, x.values))
    return Synopsis(stats=stats, count=count)


def update_quantum(last_sent: Synopsis, current: Synopsis) -> float:
    """L1 distance between two synopsis vectors: sum of absolute per-dimension differences."""
    if len(last_sent.stats) != len(current.stats):
        raise ConfigurationError(
            f"synopsis lengths differ: {len(last_sent.stats)} vs {len(current.stats)}"
        )
    value = 0.0
    for a, b in zip(current.stats, last_sent.stats):
        value += abs(a - b)
    return value
