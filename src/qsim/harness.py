"""CLI entry point: configuration, sensor-log ingestion, grid execution, reports.

Configuration is a flat key = value text file; every key can be overridden by
a QSIM_<KEY> environment variable and then by the command-line flag of the same
name (precedence: CLI > environment > file > defaults). A run emits one summary.csv across the
grid, one detail_<policy>_<T>_<theta>.csv per cell, and a manifest.json that
pins the configuration, dataset checksum, seed, and tool version.

Exit codes: 0 success, 1 configuration or command-line usage error, 2 I/O or
data error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .errors import ConfigurationError, IngestionError, InvariantViolation
from .simulator import (
    SYNTHETIC_SOURCE,
    EventColumns,
    ExperimentConfig,
    MetricsReport,
    _synthetic_block,
    run_cell,
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


@dataclass(frozen=True, slots=True)
class IngestResult:
    """Readings that survived ingestion, one (rows, 4) float array, plus the
    bookkeeping around the drops."""

    rows: np.ndarray
    total_rows: int
    dropped: int
    mote: int | None = None

    def __len__(self) -> int:
        return len(self.rows)


def _parse_sensor_row(parts: list[str]) -> tuple[int, int, tuple[float, ...]] | None:
    """Split `date time epoch mote temperature humidity light voltage` into
    (epoch, mote, the four readings); None for a malformed row."""
    if len(parts) != 8:
        return None
    try:
        epoch = int(parts[2])
        mote_id = int(parts[3])
        values = tuple(map(float, parts[4:]))
    except ValueError:
        return None
    if not all(map(math.isfinite, values)):
        return None
    return epoch, mote_id, values


def ingest_sensor_log(path: str | Path, mote: int | None = None) -> IngestResult:
    """Parse a sensor log into a (rows, 4) array of readings.

    Rows with missing, extra, unparsable, or non-finite fields are dropped and
    counted; a byte that is not UTF-8 reads as U+FFFD, so a row with one in a
    parsed field is dropped too. Surviving records are sorted by (epoch,
    mote_id). With `mote` set, only that mote's rows are kept (per-mote mode);
    otherwise all motes merge into one stream.
    """
    path = Path(path)
    epochs: list[int] = []
    motes: list[int] = []
    readings = array("d")
    total = 0
    dropped = 0
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                continue
            total += 1
            row = _parse_sensor_row(parts)
            if row is None:
                dropped += 1
                log.debug("%s:%d: malformed sensor row skipped", path, lineno)
                continue
            epoch, mote_id, values = row
            if mote is not None and mote_id != mote:
                continue
            epochs.append(epoch)
            motes.append(mote_id)
            readings.extend(values)
    # Stable sorts by mote, then by epoch, give (epoch, mote) order; rows
    # sharing both keep file order. Python ints: epochs need not fit int64.
    order = sorted(range(len(motes)), key=motes.__getitem__)
    order.sort(key=epochs.__getitem__)
    rows = np.frombuffer(readings, dtype=float).reshape(-1, 4)[order]
    if dropped:
        log.info("%s: dropped %d of %d rows during ingestion", path, dropped, total)
    return IngestResult(rows=rows, total_rows=total, dropped=dropped, mote=mote)


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
        raise ConfigurationError(f"unknown configuration key {raw!r}")
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
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[_canonical_key(key)] = value.strip()
    return values


def _convert(key: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise ConfigurationError(f"configuration key {key!r} expects {expected}, got {raw!r}") from exc


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
        raise ConfigurationError(f"grid axis {key} repeats the value {repeated[0]!r}")
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
    if config.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {config.workers}")
    config.cells()  # validate the whole grid before any work starts
    return config


# --------------------------------------------------------------------------- #
# grid execution and reports

def _dataset_checksum(config: HarnessConfig) -> str:
    if config.source == SYNTHETIC_SOURCE:
        descriptor = f"{SYNTHETIC_SOURCE}:{config.profile}:dims=4:seed={config.seed}"
        return hashlib.sha256(descriptor.encode("utf-8")).hexdigest()
    return hashlib.sha256(Path(config.source).read_bytes()).hexdigest()


def _run_cell_task(cell: ExperimentConfig, dataset, engine) -> MetricsReport:
    # Resolves `run_cell` in the worker, at call time: a pool pickles the
    # submitted function by name, so a wrapper set on this module's `run_cell`
    # (a profiling or tracing hook) could not be submitted itself.
    return run_cell(cell, dataset, engine)


def run_grid(config: HarnessConfig) -> tuple[tuple[MetricsReport, ...], dict]:
    """Execute every grid cell; report content is independent of worker count.

    Returns the reports and the manifest, the reproducibility record that
    `write_reports` writes beside them as manifest.json.
    """
    started = time.perf_counter()
    cells = config.cells()
    dataset = None
    ingest_info = None
    if config.source != SYNTHETIC_SOURCE:
        result = ingest_sensor_log(config.source, mote=config.mote)
        dataset = result.rows
        ingest_info = {
            "rows": result.total_rows,
            "kept": len(result),
            "dropped": result.dropped,
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
    if config.workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(config.workers, len(cells))) as executor:
            futures = [executor.submit(_run_cell_task, cell, dataset, engine) for cell in cells]
            reports = tuple(f.result() for f in futures)
    else:
        reports = tuple(run_cell(cell, dataset, engine) for cell in cells)
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


# Events converted from the columns to Python values this many at a time, so a
# large cell's rows never exist as Python objects all at once.
_DETAIL_BLOCK = 1 << 16


def _detail_lines(events: EventColumns):
    """The detail rows of a cell, one CSV line at a time."""
    causes = events.causes
    columns = (events.experiment, events.t_star, events.triggered, events.magnitude, events.g)
    for start in range(0, len(events), _DETAIL_BLOCK):
        block = slice(start, start + _DETAIL_BLOCK)
        for experiment, t_star, fired, magnitude, g in zip(*(c[block].tolist() for c in columns)):
            # NaN g: the policy gives no score, written as an empty field.
            yield (f"{experiment},{t_star},{causes[fired]},{magnitude!r},"
                   f"{'' if g != g else repr(g)}\n")


def write_reports(reports: Sequence[MetricsReport], manifest: dict, out_dir: str | Path) -> Path:
    """Emit summary.csv, per-cell detail files, and manifest.json under out_dir.

    No field can hold a comma, quote or line break (policy names, causes,
    numbers), so the rows are plain comma-joined CSV lines.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "summary.csv").open("w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(SUMMARY_COLUMNS) + "\n")
        handle.writelines(
            f"{r.policy},{r.T},{r.theta!r},{r.phi!r},{r.delta!r},{r.psi!r},{r.message_count}\n"
            for r in reports
        )
    for report in reports:
        with (out / _detail_filename(report)).open("w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(DETAIL_COLUMNS) + "\n")
            handle.writelines(_detail_lines(report.per_experiment))
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out


# --------------------------------------------------------------------------- #
# CLI

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
    if args.seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {args.seed}")
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
        + (f" mote={args.mote}" if args.mote is not None else "")
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
        log.error("configuration error: %s", exc)
        return 1
    except (IngestionError, OSError) as exc:
        log.error("I/O error: %s", exc)
        return 2
    except InvariantViolation as exc:
        log.error("internal invariant violated: %s", exc)
        return 3


def cli() -> None:
    sys.exit(main())
