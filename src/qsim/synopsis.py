"""The data vector: one d-dimensional sensor reading.

Replay data reaches the driver as a `(rows, dims)` float array, and a sequence
of `DataVector`s is the per-reading form a caller may pass instead. The
running-mean synopses and their L1 update quanta are the driver's array lanes
(`simulator._simulate`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, IngestionError, _check_real

__all__ = ["DataVector"]


@dataclass(frozen=True, slots=True)
class DataVector:
    """One d-dimensional sensor reading arriving at a discrete step."""

    values: tuple[float, ...]
    timestamp: int = 0

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError("data vector needs at least one dimension")
        for v in _check_real("data vector entry", self.values, many=True):
            if not math.isfinite(v):
                raise IngestionError(f"non-finite entry {v!r} in data vector at step {self.timestamp}")

    def __len__(self) -> int:
        return len(self.values)

