"""CLI entry point: configuration, sensor-log ingestion, grid execution, reports.

Configuration is a flat key = value text file; every key can be overridden by
a QSIM_<KEY> environment variable and then by a command-line flag (precedence:
CLI > environment > file > defaults). A run emits one summary.csv across the
grid, one detail_<policy>_<T>_<theta>.csv per cell, and a manifest.json that
pins the configuration, dataset checksum, seed, and tool version.

Exit codes: 0 success, 1 configuration error, 2 I/O or data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .errors import ConfigurationError, IngestionError, InvariantViolation
from .simulator import (
    SYNTHETIC_SOURCE,
    ExperimentConfig,
    MetricsReport,
    generate_synthetic_stream,
    run_cell,
)
from .synopsis import DataVector
from .t2fls import engine_from_config

__all__ = [
    "IngestResult",
    "RunManifest",
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
    """Vectors that survived ingestion plus the bookkeeping around the drops."""

    vectors: tuple[DataVector, ...]
    total_rows: int
    dropped: int
    mote: int | None = None

    def __len__(self) -> int:
        return len(self.vectors)


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
    """Parse a sensor log into 4-dimensional data vectors.

    Rows with missing, extra, unparsable, or non-finite fields are dropped and
    counted; surviving records are sorted by (epoch, mote_id). With `mote` set,
    only that mote's rows are kept (per-mote mode); otherwise all motes merge
    into one stream.
    """
    path = Path(path)
    rows: list[tuple[int, int, tuple[float, ...]]] = []
    total = 0
    dropped = 0
    with path.open("r", encoding="utf-8") as handle:
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
            if mote is not None and row[1] != mote:
                continue
            rows.append(row)
    # A stable sort on (epoch, mote) alone: rows sharing both keep file order.
    rows.sort(key=lambda r: (r[0], r[1]))
    vectors = tuple(DataVector(values=values, timestamp=i) for i, (_, _, values) in enumerate(rows))
    if dropped:
        log.info("%s: dropped %d of %d rows during ingestion", path, dropped, total)
    return IngestResult(vectors=vectors, total_rows=total, dropped=dropped, mote=mote)


# --------------------------------------------------------------------------- #
# configuration

_DEFAULTS: dict[str, str] = {
    "policy": "UDDM",
    "t": "10",
    "theta": "0.6",
    "e": "100",
    "n": "1",
    "alpha": "0.5",
    "beta": "0.5",
    "window": "50",
    "seed": "42",
    "source": SYNTHETIC_SOURCE,
    "profile": "drift",
    "out-dir": "out",
    "workers": "1",
    "mote": "",
    "fuzzy": "",
}

def _canonical_key(raw: str) -> str:
    key = raw.strip().lower().replace("_", "-")
    if key not in _DEFAULTS:
        raise ConfigurationError(f"unknown configuration key {raw!r}")
    return key


@dataclass(frozen=True, slots=True)
class HarnessConfig:
    """Typed view of the merged configuration, with grid axes as tuples."""

    policies: tuple[str, ...]
    Ts: tuple[int, ...]
    thetas: tuple[float, ...]
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
        return tuple(
            ExperimentConfig(
                policy=policy,
                T=T,
                theta=theta,
                E=self.E,
                N=self.N,
                alpha=self.alpha,
                beta=self.beta,
                window=self.window,
                seed=self.seed,
                source=self.source,
                profile=self.profile,
            )
            for policy, T, theta in product(self.policies, self.Ts, self.thetas)
        )

    def snapshot(self) -> dict:
        return {
            "policy": ",".join(self.policies),
            "T": ",".join(str(t) for t in self.Ts),
            "theta": ",".join(repr(t) for t in self.thetas),
            "E": self.E,
            "N": self.N,
            "alpha": self.alpha,
            "beta": self.beta,
            "window": self.window,
            "seed": self.seed,
            "source": self.source,
            "profile": self.profile,
            "out_dir": self.out_dir,
            "workers": self.workers,
            "mote": self.mote,
            "fuzzy": self.fuzzy,
        }


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment, blank lines are ignored."""
    values: dict[str, str] = {}
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            values[_canonical_key(key)] = value.strip()
    return values


def _env_overrides(environ: Mapping[str, str]) -> dict[str, str]:
    values: dict[str, str] = {}
    for key in _DEFAULTS:
        env_key = ENV_PREFIX + key.upper().replace("-", "_")
        if env_key in environ:
            values[key] = environ[env_key]
    return values


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"configuration key {key!r} expects an integer, got {raw!r}") from exc


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"configuration key {key!r} expects a number, got {raw!r}") from exc


def load_config(
    config_path: str | Path | None = None,
    cli_overrides: Mapping[str, str] | None = None,
    environ: Mapping[str, str] | None = None,
) -> HarnessConfig:
    """Merge defaults, config file, environment, and CLI flags, then type-check."""
    merged = dict(_DEFAULTS)
    if config_path is not None:
        merged.update(parse_config_file(config_path))
    merged.update(_env_overrides(environ if environ is not None else os.environ))
    for raw_key, value in (cli_overrides or {}).items():
        if value is None:
            continue
        merged[_canonical_key(raw_key)] = str(value)
    policies = tuple(p.strip() for p in merged["policy"].split(",") if p.strip())
    Ts = tuple(_parse_int(t.strip(), "T") for t in merged["t"].split(",") if t.strip())
    thetas = tuple(_parse_float(t.strip(), "theta") for t in merged["theta"].split(",") if t.strip())
    if not policies or not Ts or not thetas:
        raise ConfigurationError("grid axes policy / T / theta must each have at least one value")
    mote_raw = merged["mote"].strip()
    fuzzy_raw = merged["fuzzy"].strip()
    config = HarnessConfig(
        policies=policies,
        Ts=Ts,
        thetas=thetas,
        E=_parse_int(merged["e"], "E"),
        N=_parse_int(merged["n"], "N"),
        alpha=_parse_float(merged["alpha"], "alpha"),
        beta=_parse_float(merged["beta"], "beta"),
        window=_parse_int(merged["window"], "window"),
        seed=_parse_int(merged["seed"], "seed"),
        source=merged["source"].strip(),
        profile=merged["profile"].strip(),
        out_dir=merged["out-dir"].strip(),
        workers=_parse_int(merged["workers"], "workers"),
        mote=_parse_int(mote_raw, "mote") if mote_raw else None,
        fuzzy=fuzzy_raw or None,
    )
    if config.workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {config.workers}")
    config.cells()  # validate the whole grid before any work starts
    return config


# --------------------------------------------------------------------------- #
# grid execution and reports

@dataclass(frozen=True, slots=True)
class RunManifest:
    """Reproducibility record emitted alongside every report."""

    tool: str
    version: str
    config: dict
    seed: int
    dataset_checksum: str
    ingest: dict | None
    runtime_seconds: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "tool": self.tool,
                "version": self.version,
                "config": self.config,
                "seed": self.seed,
                "dataset_checksum": self.dataset_checksum,
                "ingest": self.ingest,
                "runtime_seconds": self.runtime_seconds,
            },
            indent=2,
            sort_keys=True,
        )


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


def run_grid(config: HarnessConfig) -> tuple[tuple[MetricsReport, ...], RunManifest]:
    """Execute every grid cell; report content is independent of worker count."""
    started = time.perf_counter()
    cells = config.cells()
    dataset = None
    ingest_info = None
    if config.source != SYNTHETIC_SOURCE:
        result = ingest_sensor_log(config.source, mote=config.mote)
        dataset = result.vectors
        ingest_info = {
            "rows": result.total_rows,
            "kept": len(result.vectors),
            "dropped": result.dropped,
            "mode": "per-mote" if config.mote is not None else "merged",
            "mote": config.mote,
        }
    engine = None
    if config.fuzzy:
        engine = engine_from_config(json.loads(Path(config.fuzzy).read_text(encoding="utf-8")))
    if config.workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as executor:
            futures = [executor.submit(_run_cell_task, cell, dataset, engine) for cell in cells]
            reports = tuple(f.result() for f in futures)
    else:
        reports = tuple(run_cell(cell, dataset, engine) for cell in cells)
    manifest = RunManifest(
        tool="qsim",
        version=__version__,
        config=config.snapshot(),
        seed=config.seed,
        dataset_checksum=_dataset_checksum(config),
        ingest=ingest_info,
        runtime_seconds=time.perf_counter() - started,
    )
    return reports, manifest


def _detail_filename(report: MetricsReport) -> str:
    return f"detail_{report.policy}_{report.T}_{report.theta}.csv"


def write_reports(reports: Sequence[MetricsReport], manifest: RunManifest, out_dir: str | Path) -> Path:
    """Emit summary.csv, per-cell detail files, and manifest.json under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "summary.csv").open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for report in reports:
            writer.writerow(
                [
                    report.policy,
                    report.T,
                    repr(report.theta),
                    repr(report.phi),
                    repr(report.delta),
                    repr(report.psi),
                    report.message_count,
                ]
            )
    for report in reports:
        with (out / _detail_filename(report)).open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(DETAIL_COLUMNS)
            for event in report.per_experiment:
                writer.writerow(
                    [
                        event.experiment,
                        event.t_star,
                        event.cause,
                        repr(event.magnitude),
                        "" if event.g is None else repr(event.g),
                    ]
                )
    (out / "manifest.json").write_text(manifest.to_json() + "\n", encoding="utf-8")
    return out


# --------------------------------------------------------------------------- #
# CLI

_FLAG_KEYS = tuple(_DEFAULTS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsim",
        description="Uncertainty-driven synopsis dissemination simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the configured experiment grid")
    run_p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    for key in _FLAG_KEYS:
        flag = "--T" if key == "t" else ("--E" if key == "e" else ("--N" if key == "n" else f"--{key}"))
        run_p.add_argument(flag, dest=f"opt_{key.replace('-', '_')}", default=None, metavar="VALUE")

    gen_p = sub.add_parser("gen", help="emit a synthetic stream as a sensor log")
    gen_p.add_argument("--out", required=True, type=Path)
    gen_p.add_argument("--profile", default="drift")
    gen_p.add_argument("--length", type=int, default=10000)
    gen_p.add_argument("--seed", type=int, default=42)

    val_p = sub.add_parser("validate", help="schema-check a sensor log")
    val_p.add_argument("--source", required=True, type=Path)
    val_p.add_argument("--mote", type=int, default=None)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    overrides = {
        key: getattr(args, f"opt_{key.replace('-', '_')}")
        for key in _FLAG_KEYS
        if getattr(args, f"opt_{key.replace('-', '_')}") is not None
    }
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
    stream = generate_synthetic_stream(args.seed, args.length, dims=4, profile=args.profile)
    with Path(args.out).open("w", encoding="utf-8") as handle:
        for i, vector in enumerate(stream):
            seconds = i % 86400
            stamp = f"{seconds // 3600:02d}:{(seconds // 60) % 60:02d}:{seconds % 60:02d}"
            t, h, l, v = vector.values
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
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_validate(args)
    except ConfigurationError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except (IngestionError, OSError, json.JSONDecodeError) as exc:
        log.error("I/O error: %s", exc)
        return 2
    except InvariantViolation as exc:
        log.error("internal invariant violated: %s", exc)
        return 3


def cli() -> None:
    sys.exit(main())
