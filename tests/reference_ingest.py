"""Independent per-row sensor-log reader used as an oracle for ingestion.

It reads a log the one obvious way: line by line, each line split on
whitespace and parsed field by field with `int` and `float`, and the kept
rows sorted once by (epoch, mote, file position). Nothing is imported from
the package under test.
"""

import math

import numpy as np

REASONS = ("field_count", "unparsable", "non_finite")


def reference_ingest(path, mote=None):
    """Return (rows, total_rows, counts by reason, [(line number, reason)]).

    `rows` is a (kept, 4) float64 array in (epoch, mote, file order); a row
    is counted when its line holds anything but whitespace.
    """
    kept = []
    total = 0
    counts = dict.fromkeys(REASONS, 0)
    drops = []
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split()
            if not fields:
                continue
            total += 1
            reason = None
            if len(fields) != 8:
                reason = "field_count"
            else:
                try:
                    epoch, node = int(fields[2]), int(fields[3])
                    values = [float(field) for field in fields[4:]]
                except ValueError:
                    reason = "unparsable"
                else:
                    if any(math.isnan(v) or math.isinf(v) for v in values):
                        reason = "non_finite"
            if reason is not None:
                counts[reason] += 1
                drops.append((lineno, reason))
            elif mote is None or node == mote:
                kept.append((epoch, node, len(kept), values))
    kept.sort(key=lambda row: row[:3])
    rows = np.array([row[3] for row in kept], dtype=np.float64).reshape(-1, 4)
    return rows, total, counts, drops
