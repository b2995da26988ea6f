"""Output checks of one benchmark run, made outside the timed region.

Every cell is checked for internal consistency; a sample of its experiments is
replayed through the independent brute-force oracle in tests/reference_sim.py
(the acceptance criterion-8 comparison); summary.csv is recomputed from the
detail CSVs; and the decision fingerprint is compared with the one recorded in
fingerprints.json. A failing cell counts toward `failed_share`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
from collections import Counter
from pathlib import Path

import numpy as np

TOL = 1e-9                  # criterion 8: magnitude and g
ORACLE_ROUNDS = 4000        # oracle budget per cell, in node-rounds
SLACK = 3                   # vectors per node per experiment beyond T

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
RECORDED_SEEDS = range(32)  # seeds whose fingerprint digests fingerprints.json holds
REFERENCE_SEED = 0          # its full fingerprint is kept, for the other seeds


# --------------------------------------------------------------------- inputs

def synthetic_stream(key, length: int, profile: str, dims: int = 4) -> list[list[float]]:
    """The documented synthetic profiles, rebuilt without the package."""
    rng = np.random.default_rng(key)
    if profile == "random-walk":
        increments = rng.normal(0.0, 1.0, size=(length, dims))
    elif profile == "drift":
        increments = 1.0 + rng.normal(0.0, 0.25, size=(length, dims))
    elif profile == "piecewise-constant":
        jumps = rng.random(length) < 0.05
        increments = np.zeros((length, dims))
        if jumps.any():
            increments[jumps] = rng.normal(0.0, 5.0, size=(int(jumps.sum()), dims))
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return np.cumsum(increments, axis=0).tolist()


def read_sensor_log(path) -> list[list[float]]:
    """Value columns of a clean single-mote log in the `qsim gen` layout."""
    with open(path, encoding="utf-8") as handle:
        return [[float(v) for v in line.split()[4:8]] for line in handle if line.strip()]


def experiment_input(config, cell, index: int, replay) -> list[list[float]]:
    count = cell.N * (cell.T + SLACK)
    if replay is None:
        return synthetic_stream([config.seed, cell.T, cell.N, index], count, config.profile)
    start = index * count
    if start + count > len(replay):
        raise ValueError("replay log too short for an unwrapped experiment")
    return replay[start:start + count]


# ----------------------------------------------------------------- the checks

def cell_name(report) -> str:
    return f"{report.policy}/{report.T}/{report.theta!r}"


def detail_path(out_dir: Path, report) -> Path:
    return out_dir / f"detail_{report.policy}_{report.T}_{report.theta}.csv"


def _events_match(got, want) -> bool:
    if (got.node, got.step, got.t_star, got.cause) != (
            want["node"], want["step"], want["t_star"], want["cause"]):
        return False
    if not math.isclose(got.magnitude, want["magnitude"], rel_tol=0.0, abs_tol=TOL):
        return False
    if max(abs(got.magnitude), abs(want["magnitude"])) <= 2 * TOL:
        # A numerically zero quantum: the window max may sit under the
        # normaliser's 1e-9 floor, which turns the oracle's prefix-sum rounding
        # (~1e-16) into g differences of ~1e-6. The decision is compared above.
        return True
    if want["g"] is None or got.g is None:
        return want["g"] is None and got.g is None
    return math.isclose(got.g, want["g"], rel_tol=0.0, abs_tol=TOL)


def _at_tie(cause: str, magnitude: float, g, theta: float) -> bool:
    """A send the tolerances cannot settle: g within TOL of theta, or an
    any-change send on a quantum within TOL of zero."""
    if cause == "any-change":
        return abs(magnitude) <= TOL
    return cause != "deadline" and g is not None and abs(g - theta) <= TOL


def compare_experiment(got, want, theta: float) -> str:
    """'match', 'tie' if the traces part at a send the tolerances cannot
    settle (both sides then follow different, valid histories), else 'differs'."""
    for ours, theirs in zip(got, want):
        if not _events_match(ours, theirs):
            if (_at_tie(ours.cause, ours.magnitude, ours.g, theta)
                    or _at_tie(theirs["cause"], theirs["magnitude"], theirs["g"], theta)):
                return "tie"
            return "differs"
    return "match" if len(got) == len(want) else "differs"


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=1e-12)


def _first_and_counts(keyed):
    """First t* and event count per (experiment, node), in key order, from
    (experiment, node, t_star) triples in event order."""
    first: dict = {}
    counts: Counter = Counter()
    for experiment, node, t_star in keyed:
        first.setdefault((experiment, node), t_star)
        counts[experiment, node] += 1
    return [first[k] for k in sorted(first)], [counts[k] for k in sorted(counts)]


def check_cell(report, cell, config, out_dir: Path, summary_row, replay, oracle,
               rng: random.Random, tally: Counter) -> list[str]:
    """Every problem found in one cell; empty when the cell is correct.
    Oracle outcomes are counted in `tally`."""
    problems = []
    name = cell_name(report)
    events = report.per_experiment
    if report.message_count != len(events):
        problems.append(f"{name}: message_count {report.message_count} != {len(events)} events")
    by_experiment: dict[int, list] = {}
    for e in events:
        by_experiment.setdefault(e.experiment, []).append(e)
    for i in range(cell.E):
        nodes = {e.node for e in by_experiment.get(i, ())}
        if nodes != set(range(1, cell.N + 1)):
            problems.append(f"{name}: experiment {i} has events for nodes {sorted(nodes)}")
            break

    sample = sorted(rng.sample(range(cell.E), min(cell.E, max(1, ORACLE_ROUNDS // (cell.T * cell.N)))))
    for i in sample:
        want = oracle(experiment_input(config, cell, i, replay), cell.policy, T=cell.T,
                      theta=cell.theta, alpha=cell.alpha, beta=cell.beta,
                      window=cell.window, N=cell.N)
        outcome = compare_experiment(by_experiment.get(i, []), want, cell.theta)
        tally[outcome] += 1
        if outcome == "differs":
            problems.append(f"{name}: experiment {i} differs from the oracle")
            break

    detail = detail_path(out_dir, report)
    try:
        with detail.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        problems.append(f"{name}: cannot read {detail.name}: {exc}")
        return problems
    if len(rows) != len(events) or any(
            (int(r["experiment"]), int(r["t_star"]), r["cause"], float(r["magnitude"]), r["g_score"])
            != (e.experiment, e.t_star, e.cause, e.magnitude, "" if e.g is None else repr(e.g))
            for r, e in zip(rows, events)):
        problems.append(f"{name}: {detail.name} does not list the cell's events")
        return problems
    if cell.N == 1:
        # The detail file alone determines phi and psi in single-node mode.
        keyed = [(int(r["experiment"]), 1, int(r["t_star"])) for r in rows]
    else:
        # Multi-node detail rows carry no node id; take it from the report.
        keyed = [(e.experiment, e.node, e.t_star) for e in events]
    firsts, counts = _first_and_counts(keyed)
    phi = statistics.fmean(t / cell.T for t in firsts)
    psi = statistics.fmean(cell.T / c for c in counts)
    delta = statistics.fmean(float(r["magnitude"]) for r in rows)
    if summary_row is None:
        problems.append(f"{name}: missing from summary.csv")
    elif not (_close(float(summary_row["phi"]), phi) and _close(float(summary_row["delta"]), delta)
              and _close(float(summary_row["psi"]), psi)
              and int(summary_row["messages"]) == len(rows)):
        problems.append(f"{name}: summary.csv row disagrees with the detail file")
    return problems


def check_run(reports, config, out_dir: Path, oracle, seed: int, replay=None):
    """Problems per cell name for one grid run and its written reports, and
    the count of oracle replays per outcome."""
    cells = config.cells()
    try:
        with (out_dir / "summary.csv").open(encoding="utf-8", newline="") as handle:
            summary = {f"{r['policy']}/{r['T']}/{float(r['theta'])!r}": r
                       for r in csv.DictReader(handle)}
    except OSError:
        summary = {}  # every cell is then reported missing from summary.csv
    rng = random.Random(seed)
    tally: Counter = Counter()
    problems = {}
    if len(reports) != len(cells):
        problems["grid"] = [f"{len(reports)} reports for {len(cells)} cells"]
    for report, cell in zip(reports, cells):
        problems[cell_name(report)] = check_cell(
            report, cell, config, out_dir, summary.get(cell_name(report)), replay, oracle,
            rng, tally)
    return problems, tally


# ---------------------------------------------------------------- fingerprint

def fingerprint(reports) -> dict:
    """Decision statistics per cell: a speed-only change leaves them identical."""
    return {
        cell_name(r): {
            "messages": r.message_count,
            "causes": dict(sorted(Counter(e.cause for e in r.per_experiment).items())),
            "phi": repr(r.phi),
            "delta": repr(r.delta),
            "psi": repr(r.psi),
        }
        for r in reports
    }


def digest(fp: dict) -> str:
    return hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:16]


def recorded(workload: str) -> dict:
    if not FINGERPRINTS.exists():
        return {}
    return json.loads(FINGERPRINTS.read_text(encoding="utf-8")).get(workload, {})
