"""CLI entry point: configuration, sensor-log ingestion, grid execution, reports.

Configuration is a flat key = value text file; every key can be overridden by
a QSIM_<KEY> environment variable and then by the command-line flag of the same
name (precedence: CLI > environment > file > defaults). A run emits one summary.csv across the
grid, one detail_<policy>_<T>_<theta>.csv per cell, and a manifest.json that
pins the configuration, dataset checksum, seed, and tool version.

Exit codes: 0 success, 1 configuration or command-line usage error or a grid
too large for memory, 2 I/O or data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import time
import zlib
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import groupby, islice, product
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .errors import ConfigurationError, IngestionError, InvariantViolation, _check_integer, _cut, _echo
from .simulator import (
    SYNTHETIC_SOURCE,
    EventColumns,
    ExperimentConfig,
    MetricsReport,
    _cell_streams,
    _run_group,
    _synthetic_block,
)
from .t2fls import engine_from_config

__all__ = [
    "IngestResult",
    "HarnessConfig",
    "ingest_sensor_log",
    "load_config",
    "run_grid",
    "write_reports",
    "main",
    "cli",
]

log = logging.getLogger(__name__)

ENV_PREFIX = "QSIM_"

SUMMARY_COLUMNS = ("policy", "T", "theta", "phi", "delta", "psi", "messages")
DETAIL_COLUMNS = ("experiment", "t_star", "cause", "magnitude", "g_score")


# Why a sensor row is dropped: not eight fields, a field that does not parse, or
# a reading that is NaN or infinite. Reports list the counts in this order.
DROP_REASONS = ("field_count", "unparsable", "non_finite")


@dataclass(frozen=True, slots=True)
class IngestResult:
    """Readings that survived ingestion, one (rows, 4) float array, plus the
    bookkeeping around the drops."""

    rows: np.ndarray
    total_rows: int
    dropped_by_reason: dict[str, int]  # every one of DROP_REASONS, in that order
    mote: int | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def dropped(self) -> int:
        """Rows dropped for any reason."""
        return sum(self.dropped_by_reason.values())


def _parse_sensor_row(parts: list[str]) -> tuple[int, int, tuple[float, ...]] | str:
    """Split `date time epoch mote temperature humidity light voltage` into
    (epoch, mote, the four readings); for a malformed row, the DROP_REASONS
    entry that drops it."""
    if len(parts) != 8:
        return "field_count"
    try:
        epoch = int(parts[2])
        mote_id = int(parts[3])
        values = tuple(map(float, parts[4:]))
    except ValueError:
        return "unparsable"
    if not all(map(math.isfinite, values)):
        return "non_finite"
    return epoch, mote_id, values


# Lines per np.loadtxt call, few because a block it rejects is parsed again row
# by row, and the row it reads: date and time (never read), epoch and mote, the
# four readings. Without `usecols` it rejects 7- or 9-field rows.
_INGEST_BLOCK = 512
_ROW_DTYPE = np.dtype([("date", "U1"), ("time", "U1"), ("epoch", np.int64), ("mote", np.int64),
                       ("readings", np.float64, (4,))])


def ingest_sensor_log(path: str | Path, mote: int | None = None) -> IngestResult:
    """Parse a sensor log into a (rows, 4) array of readings.

    Rows with missing, extra, unparsable, or non-finite fields are dropped and
    counted by reason (DROP_REASONS); a byte that is not UTF-8 reads as
    U+FFFD, so a row with one in a parsed field is dropped too. Surviving
    records are sorted by (epoch, mote_id). With `mote` set, only that mote's
    rows are kept (per-mote mode); otherwise all motes merge into one stream.

    The log is read _INGEST_BLOCK lines at a time. numpy's C text reader takes
    a block whose rows all parse: it splits on the whitespace `str.split` does
    and reads each number it accepts as `int` or `float` would. Only a block it
    rejects goes through `_parse_sensor_row` row by row.
    """
    if mote is not None:
        _check_integer("mote", mote)
    path = Path(path)
    epochs: list[int] = []
    motes: list[int] = []
    readings = array("d")
    total = 0
    dropped = dict.fromkeys(DROP_REASONS, 0)
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        end = 0
        while block := list(islice(handle, _INGEST_BLOCK)):
            start, end = end + 1, end + len(block)
            if all(map(str.isspace, block)):  # no rows: loadtxt would warn
                continue
            try:
                table = np.loadtxt(block, dtype=_ROW_DTYPE, comments=None, ndmin=1)
            except ValueError:  # a row that does not parse: this block goes row by row
                for lineno, line in enumerate(block, start=start):
                    parts = line.split()
                    if not parts:
                        continue
                    total += 1
                    row = _parse_sensor_row(parts)
                    if isinstance(row, str):
                        dropped[row] += 1
                        log.debug("%s:%d: malformed sensor row skipped (%s)", path, lineno, row)
                        continue
                    epoch, mote_id, values = row
                    if mote is not None and mote_id != mote:
                        continue
                    epochs.append(epoch)
                    motes.append(mote_id)
                    readings.extend(values)
                continue
            total += len(table)
            keep = np.isfinite(table["readings"]).all(axis=1)
            if not keep.all():  # table row i is the block's i-th non-blank line
                linenos = [n for n, line in enumerate(block, start=start) if not line.isspace()]
                for i in np.flatnonzero(~keep).tolist():
                    dropped["non_finite"] += 1
                    log.debug("%s:%d: malformed sensor row skipped (non_finite)", path, linenos[i])
            if mote is not None:
                keep &= table["mote"] == mote
            epochs.extend(table["epoch"][keep].tolist())
            motes.extend(table["mote"][keep].tolist())
            readings.frombytes(table["readings"][keep].tobytes())
    # Stable sorts by mote, then by epoch, give (epoch, mote) order; rows
    # sharing both keep file order. Python ints: epochs need not fit int64.
    order = sorted(range(len(motes)), key=motes.__getitem__)
    order.sort(key=epochs.__getitem__)
    rows = np.frombuffer(readings, dtype=float).reshape(-1, 4)[order]
    result = IngestResult(rows=rows, total_rows=total, dropped_by_reason=dropped, mote=mote)
    if result.dropped:
        log.info("%s: dropped %d of %d rows during ingestion (%s)",
                 path, result.dropped, total, _drop_counts(result))
    return result


def _drop_counts(result: IngestResult) -> str:
    return ", ".join(f"{reason}={n}" for reason, n in result.dropped_by_reason.items())


# --------------------------------------------------------------------------- #
# configuration

# Each configuration key by its one name: the HarnessConfig field, the manifest
# key and the CLI flag (`out_dir` as `--out-dir`). The value is (default as
# text, type); the grid-cell keys take both from ExperimentConfig's defaults.
_KEYS: dict[str, tuple[str, type]] = {
    **{f.name: (str(f.default), type(f.default)) for f in fields(ExperimentConfig)},
    "out_dir": ("out", str),
    "workers": ("1", int),
    "mote": ("", int),
    "fuzzy": ("", str),
}
_AXES = ("policy", "T", "theta")


def _canonical_key(raw: str) -> str:
    key = raw.strip().lower().replace("-", "_")
    if key not in map(str.lower, _KEYS):
        raise ConfigurationError(f"unknown configuration key {_echo(raw)}")
    return key


@dataclass(frozen=True, slots=True)
class HarnessConfig:
    """Typed view of the merged configuration, with grid axes as tuples."""

    policy: tuple[str, ...]
    T: tuple[int, ...]
    theta: tuple[float, ...]
    E: int
    N: int
    alpha: float
    beta: float
    window: int
    seed: int
    source: str
    profile: str
    out_dir: str
    workers: int
    mote: int | None
    fuzzy: str | None

    def cells(self) -> tuple[ExperimentConfig, ...]:
        """One validated ExperimentConfig per (policy, T, theta); fails before any work."""
        shared = {f.name: getattr(self, f.name) for f in fields(ExperimentConfig) if f.name not in _AXES}
        return tuple(
            ExperimentConfig(policy=policy, T=T, theta=theta, **shared)
            for policy, T, theta in product(self.policy, self.T, self.theta)
        )

    def snapshot(self) -> dict:
        """The configuration as manifest.json records it, each grid axis comma-joined."""
        return {
            key: ",".join(map(str, getattr(self, key))) if key in _AXES else getattr(self, key)
            for key in _KEYS
        }


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment, blank lines are ignored."""
    values: dict[str, str] = {}
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {_echo(raw)}")
        key, value = line.split("=", 1)
        values[_canonical_key(key)] = value.strip()
    return values


def _convert(key: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"configuration key {key!r} expects {expected}, got {_echo(raw)}") from exc


def _parse_value(key: str, raw: str):
    default, kind = _KEYS[key]
    if key not in _AXES:
        raw = raw.strip()
        return _convert(key, kind, raw) if raw or default else None  # an empty mote or fuzzy is unset
    axis = tuple(_convert(key, kind, item.strip()) for item in raw.split(",") if item.strip())
    if not axis:
        raise ConfigurationError("grid axes policy / T / theta must each have at least one value")
    repeated = [value for i, value in enumerate(axis) if value in axis[:i]]
    if repeated:
        raise ConfigurationError(f"grid axis {key} repeats the value {_echo(repeated[0])}")
    return axis


def load_config(
    config_path: str | Path | None = None,
    cli_overrides: Mapping[str, str] | None = None,
    environ: Mapping[str, str] | None = None,
) -> HarnessConfig:
    """Merge defaults, config file, environment, and CLI flags, then type-check.

    Keys are matched in any case, with `-` or `_`; the environment variable of
    a key is QSIM_ and its name in upper case (QSIM_OUT_DIR).
    """
    environ = os.environ if environ is None else environ
    merged = {key.lower(): default for key, (default, _) in _KEYS.items()}
    if config_path is not None:
        merged.update(parse_config_file(config_path))
    for key in merged:
        if ENV_PREFIX + key.upper() in environ:
            merged[key] = environ[ENV_PREFIX + key.upper()]
    for raw_key, value in (cli_overrides or {}).items():
        if value is not None:
            merged[_canonical_key(raw_key)] = str(value)
    config = HarnessConfig(**{key: _parse_value(key, merged[key.lower()]) for key in _KEYS})
    _check_integer("workers", config.workers, 1)
    config.cells()  # validate the whole grid before any work starts
    return config


# --------------------------------------------------------------------------- #
# grid execution and reports

def _dataset_checksum(config: HarnessConfig) -> str:
    if config.source == SYNTHETIC_SOURCE:
        descriptor = f"{SYNTHETIC_SOURCE}:{config.profile}:dims=4:seed={config.seed}"
        return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()
    return hashlib.sha256(Path(config.source).read_bytes()).hexdigest()


# A pool worker's (groups, streams, engine). Only `_init_worker` sets it, in the worker.
_WORKER: tuple | None = None


def _init_worker(groups, streams, engine) -> None:
    """Pool initializer: a forked worker inherits the grid's groups, the stream
    block of each T and the engine, and any other start method unpickles them
    once per worker, so a task carries only its group's index."""
    global _WORKER
    _WORKER = groups, streams, engine


def _run_group_task(index: int) -> tuple[MetricsReport, ...]:
    """Pool worker entry point: run group `index` and format its detail
    rows here, so the workers share the formatting and it overlaps other runs.
    Cells sharing one event table share one text, so the result pickles it once."""
    groups, streams, engine = _WORKER
    details: dict[int, tuple[bytes, ...]] = {}  # by id of the table
    reports = []
    # Resolves `_run_group` in the worker, at call time: a pool pickles the submitted function
    # by name, so a wrapper set on this module's `_run_group` (a tracing hook) could not be.
    for report in _run_group(groups[index], streams[groups[index][0].T], engine):
        events = report.per_experiment
        if id(events) not in details:
            details[id(events)] = tuple(zlib.compress(b, 1) for b in _detail_blocks(events))
        reports.append(replace(report, detail=details[id(events)]))
    return tuple(reports)


def run_grid(config: HarnessConfig) -> tuple[tuple[MetricsReport, ...], dict]:
    """Execute every grid cell; report content is independent of worker count.

    Cells sharing (policy, T) run as one kernel pass over the streams of their
    T, built here once per T before any group runs. A pool runs one task per
    group, the largest first; the reports keep grid order. Returns the reports
    and the manifest, the reproducibility record that `write_reports` writes
    beside them as manifest.json.
    """
    started = time.perf_counter()
    groups = [tuple(group) for _, group in groupby(config.cells(), key=lambda c: (c.policy, c.T))]
    dataset = ingest_info = None
    if config.source != SYNTHETIC_SOURCE:
        result = ingest_sensor_log(config.source, mote=config.mote)
        dataset = result.rows
        ingest_info = {
            "rows": result.total_rows,
            "kept": len(result),
            "dropped": result.dropped,
            "dropped_by_reason": result.dropped_by_reason,
            "mode": "per-mote" if config.mote is not None else "merged",
            "mote": config.mote,
        }
    engine = None
    if config.fuzzy:
        try:
            spec = json.loads(Path(config.fuzzy).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise IngestionError(f"{config.fuzzy}: not a JSON text: {exc}") from exc
        engine = engine_from_config(spec)
    # A cell's streams depend on its T, never on its policy or theta.
    streams = {T: _cell_streams(cells[0], dataset) for T, cells in {g[0].T: g for g in groups}.items()}
    workers = min(config.workers, len(groups))  # a pool of one is the in-process path
    if workers > 1:
        # Largest first: groups share E, N and every theta, so T sets the size; ties keep grid order.
        order = sorted(range(len(groups)), key=lambda i: -groups[i][0].T)
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(groups, streams, engine)) as executor:
            futures = {i: executor.submit(_run_group_task, i) for i in order}
            reports = tuple(report for i in range(len(groups)) for report in futures[i].result())
    else:
        # The last group of each T takes its block out of `streams`, so the
        # block is freed after that group's kernel pass, before its reports.
        last = {cells[0].T: i for i, cells in enumerate(groups)}
        reports = tuple(report for i, cells in enumerate(groups) for report in _run_group(
            cells, streams.pop(cells[0].T) if last[cells[0].T] == i else streams[cells[0].T], engine))
    manifest = {
        "tool": "qsim",
        "version": __version__,
        "config": config.snapshot(),
        "seed": config.seed,
        "dataset_checksum": _dataset_checksum(config),
        "ingest": ingest_info,
        "runtime_seconds": time.perf_counter() - started,
    }
    return reports, manifest


def _detail_filename(report: MetricsReport) -> str:
    return f"detail_{report.policy}_{report.T}_{report.theta}.csv"


# Detail rows are formatted this many at a time. A pool worker compresses each
# block on its own, so no process holds more than one block of a cell's text.
_DETAIL_BLOCK = 4096


def _detail_blocks(events: EventColumns):
    """The detail rows of a cell as UTF-8 CSV text, one block of rows at a time.

    A block formats each distinct (experiment, t*, cause) prefix once: a row
    is its prefix, its magnitude and its g. The ids are non-negative int32, so
    the int64 key experiment * span + 2 * t* + triggered, with span twice one
    past the block's largest t*, is one per prefix and below 2**63.
    """
    causes = events.causes
    for start in range(0, len(events), _DETAIL_BLOCK):
        block = slice(start, start + _DETAIL_BLOCK)
        t_star = events.t_star[block]
        span = 2 * (int(t_star.max()) + 1)
        keys, rows = np.unique(events.experiment[block].astype(np.int64) * span
                               + 2 * t_star.astype(np.int64) + events.triggered[block], return_inverse=True)
        heads = [f"{key // span},{key % span // 2},{causes[key % 2]}," for key in keys.tolist()]
        magnitudes, g = events.magnitude[block].tolist(), events.g[block]
        # NaN g: the policy gives no score, written as an empty field.
        if np.isnan(g).all():
            text = "".join(f"{heads[i]}{magnitude!r},\n" for i, magnitude in zip(rows.tolist(), magnitudes))
        else:
            text = "".join(f"{heads[i]}{magnitude!r},{'' if x != x else repr(x)}\n"
                           for i, magnitude, x in zip(rows.tolist(), magnitudes, g.tolist()))
        yield text.encode("utf-8")


def write_reports(reports: Sequence[MetricsReport], manifest: dict, out_dir: str | Path) -> Path:
    """Emit summary.csv, per-cell detail files, and manifest.json under out_dir.

    No field can hold a comma, quote or line break (policy names, causes,
    numbers), so the rows are plain comma-joined CSV lines. A pooled report's
    detail rows come formatted by its worker (`MetricsReport.detail`); any
    other report's are formatted here, by the same block formatter. Reports
    sharing one event table get one written file, copied for the others.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "summary.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(SUMMARY_COLUMNS) + "\n")
        handle.writelines(
            f"{r.policy},{r.T},{r.theta!r},{r.phi!r},{r.delta!r},{r.psi!r},{r.message_count}\n"
            for r in reports
        )
    header = (",".join(DETAIL_COLUMNS) + "\n").encode("utf-8")
    written: dict[int, Path] = {}  # the file holding each table, by id of the table
    for report in reports:
        path = out / _detail_filename(report)
        first = written.setdefault(id(report.per_experiment), path)
        if first != path:
            shutil.copyfile(first, path)
            continue
        if report.detail is None:
            blocks = _detail_blocks(report.per_experiment)
        else:  # formatted by the pool worker that ran the cell
            blocks = map(zlib.decompress, report.detail)
        with path.open("wb") as handle:
            handle.write(header)
            handle.writelines(blocks)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


# --------------------------------------------------------------------------- #
# CLI

# Characters in one logged error line, the logging format's "ERROR <logger>: " included.
_ERROR_LINE_MAX = 200


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigurationError, so it ends in one line and exit 1."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is spelt out, so `--t` cannot pass for `--theta`.
    parser = _ArgumentParser(
        prog="qsim",
        description="Uncertainty-driven synopsis dissemination simulator",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the configured experiment grid", allow_abbrev=False)
    run_p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    for key in _KEYS:
        run_p.add_argument(f"--{key.replace('_', '-')}", metavar="VALUE")

    gen_p = sub.add_parser("gen", help="emit a synthetic stream as a sensor log", allow_abbrev=False)
    gen_p.add_argument("--out", required=True, type=Path)
    gen_p.add_argument("--profile", default="drift")
    gen_p.add_argument("--length", type=int, default=10000)
    gen_p.add_argument("--seed", type=int, default=42)

    val_p = sub.add_parser("validate", help="schema-check a sensor log", allow_abbrev=False)
    val_p.add_argument("--source", required=True, type=Path)
    val_p.add_argument("--mote", type=int, default=None)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in _KEYS}
    config = load_config(config_path=args.config, cli_overrides=overrides)
    reports, manifest = run_grid(config)
    out = write_reports(reports, manifest, config.out_dir)
    print(f"wrote {len(reports)} report(s) to {out}")
    for report in reports:
        print(
            f"  {report.policy} T={report.T} theta={report.theta}: "
            f"phi={report.phi:.4f} delta={report.delta:.4f} psi={report.psi:.4f} "
            f"messages={report.message_count}"
        )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    stream = _synthetic_block([args.seed], args.length, profile=args.profile)[0].tolist()
    with Path(args.out).open("w", encoding="utf-8") as handle:
        for i, (t, h, l, v) in enumerate(stream):
            seconds = i % 86400
            stamp = f"{seconds // 3600:02d}:{(seconds // 60) % 60:02d}:{seconds % 60:02d}"
            handle.write(f"2004-02-28 {stamp} {i + 1} 1 {t!r} {h!r} {l!r} {v!r}\n")
    print(f"wrote {len(stream)} rows to {args.out}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    result = ingest_sensor_log(args.source, mote=args.mote)
    print(
        f"{args.source}: rows={result.total_rows} kept={len(result)} dropped={result.dropped}"
        f" ({_drop_counts(result)})" + (f" mote={args.mote}" if args.mote is not None else "")
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_validate(args)
    except ConfigurationError as exc:
        code, line = 1, f"configuration error: {exc}"
    except MemoryError as exc:
        code, line = 1, f"out of memory: {str(exc) or 'the configured grid does not fit'}"
    except (IngestionError, OSError) as exc:
        code, line = 2, f"I/O error: {exc}"
    except InvariantViolation as exc:
        code, line = 3, f"internal invariant violated: {exc}"
    # One cut for every kind: a flag or path repeated in the message cannot make the line long.
    log.error("%s", _cut(line, _ERROR_LINE_MAX - len(f"ERROR {log.name}: ")))
    return code


def cli() -> None:
    sys.exit(main())


if __name__ == "__main__":  # python -m qsim.harness
    cli()
