"""qsim benchmark: one batch job per workload, end to end and per layer.

    python3 bench/run.py --workload grid-drift --seed 1 --seconds 25 --trace 0

Each repetition is what `qsim run` does through the public API:
`load_config` -> `run_grid` -> `write_reports`. The run repeats it for
`--seconds` (at least once) and reports medians of times scaled to a
reference machine speed (see `calibrate`). With `--trace 0` it prints the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
repetitions and prints the per-layer metrics (see tracer.py). Outputs are
checked outside the timed region (see check.py). The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import check
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPS = 7

# Shared VMs change speed by up to 1.6x for minutes at a time, which would
# swamp a code change. So every timed job and set-up sample is preceded by a
# fixed pure-Python loop (`calibrate`, run by as many processes as the job
# uses), and a time t measured after the loop took c seconds is reported as
# t * CAL_REFERENCE_S / c: seconds at the speed at which the loop takes
# CAL_REFERENCE_S. Raw times are logged beside them.
CAL_REFERENCE_S = 0.05

# Closed loop: one batch job at a time from this process; workers <= nproc = 2.
WORKLOADS = {
    "grid-drift": {
        "config": {"policy": "UDDM,BM,PM", "t": "10,100,1000", "theta": "0.6,0.75",
                   "e": "20", "n": "1", "profile": "drift", "workers": "2"},
    },
    "replay-walk": {
        "config": {"policy": "UDDM", "t": "100,1000", "theta": "0.6,0.75",
                   "e": "24", "n": "1", "workers": "2"},
        "log_rows": 40000,
    },
    "baselines-multinode": {
        "config": {"policy": "BM,PM", "t": "100", "theta": "0.6", "e": "40", "n": "8",
                   "profile": "piecewise-constant", "workers": "1"},
    },
}

END_TO_END_UNITS = {"wall_s": "s", "rounds_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer figures that must repeat exactly from one traced repetition to the next.
EXACT_SUFFIXES = (".calls", ".rows", ".dropped", "policies.sends", "policies.deadline_share")

SETUP_CODE = """
import json, sys
from qsim.harness import ingest_sensor_log, load_config
from qsim.t2fls import default_engine
config = load_config(cli_overrides=json.loads(sys.argv[1]), environ={})
if config.source != "synthetic":
    ingest_sensor_log(config.source, mote=config.mote)
default_engine()
"""

GEN_CODE = "import sys; from qsim.harness import main; sys.exit(main(sys.argv[1:]))"


def log(message: str) -> None:
    print(f"[bench] {message}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if ".us_per_round." in name:
        return "us"
    if name.endswith(("_share", "_per_consumed", "_per_round")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------- set-up

def prepare(workload: str, seed: int, work: Path) -> dict:
    """Config overrides of the workload at this seed; writes its inputs."""
    spec = WORKLOADS[workload]
    overrides = dict(spec["config"], seed=str(seed))
    if "log_rows" in spec:
        path = work / f"walk-{seed}.txt"
        subprocess.run(
            [sys.executable, "-c", GEN_CODE, "gen", "--out", str(path), "--profile",
             "random-walk", "--length", str(spec["log_rows"]), "--seed", str(seed)],
            env=child_env(), check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        overrides["source"] = str(path)
    return overrides


def calibration_loop() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(300000):
        x = i * 0.5
        acc += x * x - acc * 1e-9
        slots[i & 255] = acc
    acc += sum([float(i) for i in range(100000)])
    return time.perf_counter() - start


def calibrate(processes: int) -> float:
    """Mean seconds of the calibration loop run by `processes` processes at
    once: the current speed of the CPUs a job with that many workers uses."""
    children = []
    for _ in range(processes - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write, struct.pack("d", calibration_loop()))
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    times = [calibration_loop()]
    for pid, read in children:
        times.append(struct.unpack("d", os.read(read, 8))[0])
        os.close(read)
        os.waitpid(pid, 0)
    return statistics.fmean(times)


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    """(raw seconds, calibration seconds) pairs as seconds at the reference speed."""
    return [raw * CAL_REFERENCE_S / cal for raw, cal in samples]


def time_setup(overrides: dict) -> float:
    """Wall time of a fresh interpreter doing everything before the first cell."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(overrides)],
                   env=child_env(), check=True)
    return time.perf_counter() - start


# ---------------------------------------------------------------- one job

def run_job(harness, overrides: dict, out_dir: Path):
    """One `qsim run`: returns (wall seconds, config, reports)."""
    gc.collect()
    start = time.perf_counter()
    config = harness.load_config(cli_overrides={**overrides, "out-dir": str(out_dir)}, environ={})
    reports, manifest = harness.run_grid(config)
    harness.write_reports(reports, manifest, config.out_dir)
    return time.perf_counter() - start, config, reports


def cell_digests(out_dir: Path, reports) -> dict[str, str | None]:
    """Hash of each cell's detail file plus its summary.csv row; None for a
    cell whose file or row cannot be read."""
    try:
        rows = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    except OSError:
        rows = []
    digests = {}
    for i, report in enumerate(reports):
        try:
            data = check.detail_path(out_dir, report).read_bytes() + rows[i].encode()
        except (OSError, IndexError):
            digests[check.cell_name(report)] = None
        else:
            digests[check.cell_name(report)] = hashlib.sha256(data).hexdigest()
    return digests


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment(workload: str, seed: int, traced_in: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "traced_cells_ran": traced_in,
    }


def summarize(name: str, samples: list[tuple[float, float]], unit: str) -> str:
    """Median of the scaled times plus the highest percentile with at least
    ten samples beyond it, and the raw times."""
    values = scaled(samples)
    ordered = sorted(values)
    n = len(ordered)
    raw = [r for r, _ in samples]
    text = (f"{name}: median {statistics.median(ordered):.6g} {unit} at the reference speed, "
            f"n={n} [{', '.join(f'{v:.4g}' for v in values)}]; raw median "
            f"{statistics.median(raw):.6g} {unit} [{', '.join(f'{v:.4g}' for v in raw)}]")
    for pct in (99, 95, 90, 75, 50):
        if n * (100 - pct) / 100 >= 10:
            tail = statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]
            return f"{text}, p{pct} {tail:.6g} {unit}"
    return f"{text}, no percentile has 10 samples beyond it"


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "qsim" / "__init__.py", ROOT / "tests" / "reference_sim.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a qsim checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from qsim import harness
    from reference_sim import reference_trace

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, harness, reference_trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, harness, oracle) -> int:
    workload, seed = args.workload, args.seed
    log(f"workload={workload} seed={seed} seconds={args.seconds:g} trace={args.trace}")
    overrides = prepare(workload, seed, work)
    grid = harness.load_config(cli_overrides=overrides, environ={}).cells()
    cells = len(grid)
    rounds = sum(c.E * c.N * c.T for c in grid)
    parallel = min(int(overrides["workers"]), os.cpu_count() or 1)
    setup_times: list[tuple[float, float]] = []   # (raw, calibration) seconds

    tracer = tracing.Tracer()
    walls: list[tuple[float, float]] = []         # (raw, calibration) seconds
    traced_walls: list[tuple[float, float]] = []
    layer_runs: list[dict] = []
    digests: list[dict] = []
    last = None           # (config, reports, out_dir) of the latest repetition
    failed_job = False
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        if last is not None:
            # No report set outlives its repetition: the next job (and the
            # pool workers it forks) must not carry it in peak_rss_mb.
            shutil.rmtree(last[2])
            last = None
        out_dir = work / f"rep{len(digests)}"
        cal = calibrate(parallel)
        if traced:
            tracer.install()
            tracer.reset(None)
        try:
            wall, config, reports = run_job(harness, overrides, out_dir)
        except Exception:  # a failed job is counted, reported and ends the run
            traceback.print_exc()
            failed_job = True
            break
        finally:
            tracer.uninstall()
        digests.append(cell_digests(out_dir, reports))
        if traced:
            traced_walls.append((wall, cal))
            layer_runs.append(tracing.layer_metrics(tracer, reports, config.cells()))
        else:
            walls.append((wall, cal))
        last = (config, reports, out_dir)
        del config, reports
        spent = sum(w for w, _ in walls + traced_walls)
        if not args.trace:
            # Set-up samples are spread over the run, between repetitions, so
            # they see the same machine as the repetitions do.
            due = SETUP_REPS if spent >= args.seconds else math.ceil(SETUP_REPS * spent / args.seconds)
            while len(setup_times) < due:
                cal = calibrate(1)
                setup_times.append((time_setup(overrides), cal))
        if spent >= args.seconds and (traced_walls or not args.trace):
            break
    rss = peak_rss_mb()

    # The checks run on the latest repetition, after the peak resident set is
    # read, so the checker's own memory is not counted in it.
    attempted = cells * (len(digests) + failed_job)
    try:
        failed, problems, fp = check_outputs(last, digests, layer_runs, workload, seed, work,
                                             harness, oracle)
    except Exception:  # outputs the checks cannot even read fail every cell
        traceback.print_exc()
        failed, problems, fp = cells * len(digests), ["output check raised"], None
    failed += cells * failed_job
    correct = not problems and not failed_job and failed == 0

    # ---- report
    traced_in = "no traced repetition"
    if layer_runs:
        traced_in = "workers" if layer_runs[0]["harness.dispatch.bytes"] else "in-process"
    env = environment(workload, seed, traced_in)
    log("env " + json.dumps(env, sort_keys=True))
    if fp is not None:
        log("fingerprint " + json.dumps(fp, sort_keys=True))
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    log(f"failed_share: {failed / attempted:.6g} ratio "
        f"({failed} of {attempted} cells)")
    if not walls or (args.trace and not layer_runs):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted,
                          "metrics": {}}))
        return 1

    log(summarize("wall_s", walls, "s"))
    if setup_times:
        log(summarize("setup_s", setup_times, "s"))
    if not args.trace:
        values = {
            "wall_s": statistics.median(scaled(walls)),
            "rounds_per_s": statistics.median(rounds / w for w in scaled(walls)),
            "setup_s": statistics.median(scaled(setup_times)),
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        log(summarize("traced wall_s", traced_walls, "s"))
        if tracer.absent:
            log("absent (reported as 0): " + ", ".join(tracer.absent))
        values = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}
        values["trace.overhead_share"] = (statistics.median(scaled(traced_walls))
                                          / statistics.median(scaled(walls)) - 1)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
        write_trace(workload, seed, env, tracer, layer_runs)
    for name, metric in metrics.items():
        log(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def check_outputs(last, digests, layer_runs, workload, seed, work, harness, oracle):
    """Output checks, outside the timed region: (failed cells, problems, fingerprint)."""
    bad: set[str] = set()
    problems: list[str] = []
    fp = None
    if last is not None:
        config, reports, out_dir = last
        replay = check.read_sensor_log(config.source) if config.source != "synthetic" else None
        found_by_cell, tally = check.check_run(reports, config, out_dir, oracle, seed, replay)
        log("oracle replays: " + ", ".join(f"{n} {k}" for k, n in sorted(tally.items()))
            + " (tie: the traces part at a send the 1e-9 tolerances cannot settle)")
        for name, found in found_by_cell.items():
            if found:
                bad.add(name)
                problems.extend(found)
        fp = check.fingerprint(reports)
        mismatch = check_fingerprint(fp, workload, seed, work, harness)
        if mismatch:
            bad.update(fp)
            problems.extend(mismatch)
    failed = 0
    for rep in digests:
        differs = {name for name, value in rep.items()
                   if value is None or value != digests[0].get(name)}
        failed += len(bad | differs)
        if differs:
            problems.append(f"repetition outputs unreadable or different from the first "
                            f"in {sorted(differs)}")
    for name in layer_runs[0] if layer_runs else ():
        if name.endswith(EXACT_SUFFIXES) and len({r[name] for r in layer_runs}) > 1:
            problems.append(f"{name} differs between traced repetitions")
    return failed, problems, fp


def check_fingerprint(fp: dict, workload: str, seed: int, work: Path, harness) -> list[str]:
    """Compare decisions with the recorded ones: this seed's digest if recorded,
    otherwise a repeat run at the reference seed."""
    record = check.recorded(workload)
    if not record:
        return [f"fingerprint: none recorded for {workload}"]
    if seed in check.RECORDED_SEEDS:
        if check.digest(fp) != record["digests"].get(str(seed)):
            return [f"fingerprint differs from the one recorded for seed {seed}"]
        return []
    ref_seed = check.REFERENCE_SEED
    overrides = prepare(workload, ref_seed, work)
    _, _, reports = run_job(harness, overrides, work / "reference")
    got = check.fingerprint(reports)
    return [f"fingerprint at reference seed {ref_seed} differs in cell {name}"
            for name in sorted(set(got) | set(record["reference"]))
            if got.get(name) != record["reference"].get(name)]


def write_trace(workload: str, seed: int, env: dict, tracer, layer_runs: list[dict]) -> None:
    path = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "environment": env,
        "absent": tracer.absent,
        "layer_metrics_per_repetition": layer_runs,
        "span_totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in tracer.stats.items()},
        "spans": tracer.spans,
    }, indent=1), encoding="utf-8")
    log(f"trace written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
