"""Paired benchmark runs of two commits of this repository, written to one JSON file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_<pr>.json \
        --pairs grid-drift=10,replay-walk=10,baselines-multinode=4 --first-seed <pr>101

Each side runs from a fresh `git clone` of its commit in a temporary
directory, never from a working tree, so both start from committed files and
without a `__pycache__`. For each workload it runs the clones' own
`bench/run.py --trace 0`, for the run length BENCHMARK.json sets, in
alternating pairs (the parent first in even pairs, the change first in odd
ones), one seed per pair, and reads the JSON object each run prints last. It
then times the criterion-10 grid (UDDM, BM, PM x T 10, 100, 1000 x theta 0.6,
0.75, E = 1000, seed 42) in a fresh interpreter per run, at `workers` 1 and 2,
alternating the sides, GRID_RUNS times per side: `run_grid` and
`write_reports` seconds, the main process's peak resident set after each of
them, the pool workers' peak, and a sha256 of the run's CSV files. Run i of
each side makes pair i, and each grid is summarised as the workloads are. It
times the same way the theta sweeps (0.6, 0.75) of each policy at T = 1000,
with E = 100 and E = 1000, at `workers` 2: grids of one (policy, T) group.
It times the lane kernel alone: one `simulator._simulate` pass (theta 0.6 and
0.75, seed 42, N = 1) per fresh interpreter, KERNEL_RUNS times per side,
alternating the sides, on each of KERNEL_PASSES: UDDM, PM and BM at T = 1000,
E = 20 on drift streams, UDDM at T = 1000, E = 24 on replay-walk's log, and
UDDM and PM at T = 1000, E = 1000 on drift. A pass records the CPU seconds of the
`_simulate` call alone (`time.process_time`; the streams are built before the
clock starts) and a sha256 of its decision record arrays, so the file shows
whether both sides decided the same, bit for bit. Last it times one
`ingest_sensor_log` call per fresh interpreter, alternating the checkouts,
INGEST_RUNS times per side, on four logs: replay-walk's (`qsim gen --profile
random-walk --length 40000 --seed <first seed>`), the same log with a
malformed row at the end of every 4,096-line block, the same with one at the
end of every 512-line block (so every block the ingester reads is parsed
twice), and the same log with a `nan` reading every 50 rows.

For each side it also records the design's size: `src_lines`, the total of
`wc -l src/qsim/*.py`, and `public_names`, the length of `qsim.__all__` read in
a fresh interpreter that writes no bytecode.

The output holds the environment (each side's git sha, Python, numpy, nproc,
the run length, `--pairs`, `--first-seed`, `PYTHONDONTWRITEBYTECODE` and
whether each clone held a `__pycache__` before its first run and after its
last), every run, per workload or grid, metric and side the median, the
quartiles and the number of pairs each side won, whether both sides wrote the
same CSV bytes for each grid, and per kernel pass each side's minimum, median
and quartiles of CPU seconds, the change's minimum over the parent's, and whether
every record digest is equal. The run length and whether lower or higher is
better come from the parent's BENCHMARK.json. Nothing here changes the benchmark:
both sides run their own unchanged `bench/run.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent.parent
GRID_RUNS = 5  # runs per side of each timed grid
# The figures of a grid run, all better lower.
GRID_METRICS = ("run_grid_s", "write_reports_s", "main_peak_mb_after_run_grid", "main_peak_mb",
                "worker_peak_mb")
INGEST_RUNS = 10  # ingestion timings per side and log
KERNEL_RUNS = 7  # kernel passes per side

# One `_simulate` pass each: the policy, T, E and whether it reads replay-walk's log.
KERNEL_PASSES = {
    **{f"{policy}_T1000_E20_drift": {"policy": policy, "T": 1000, "E": 20, "replay": False}
       for policy in ("UDDM", "PM", "BM")},
    "UDDM_T1000_E24_replay_walk": {"policy": "UDDM", "T": 1000, "E": 24, "replay": True},
    **{f"{policy}_T1000_E1000_drift": {"policy": policy, "T": 1000, "E": 1000, "replay": False}
       for policy in ("UDDM", "PM")},
}

GRID = {"policy": "UDDM,BM,PM", "t": "10,100,1000", "theta": "0.6,0.75", "e": "1000",
        "seed": "42"}
SWEEPS = {f"{policy}_T1000_E{e}": {"policy": policy, "t": "1000", "theta": "0.6,0.75", "e": str(e),
                                   "seed": "42", "workers": "2"}
          for policy in ("UDDM", "BM", "PM") for e in (100, 1000)}

# Run in a fresh interpreter with the checkout's src on the path: argv[1] the
# config overrides as JSON, argv[2] the output directory.
GRID_CODE = """
import hashlib, json, pathlib, resource, sys, time
from qsim.harness import load_config, run_grid, write_reports
def peak(who):
    return resource.getrusage(who).ru_maxrss / 1024.0
config = load_config(cli_overrides={**json.loads(sys.argv[1]), "out-dir": sys.argv[2]}, environ={})
start = time.perf_counter()
reports, manifest = run_grid(config)
ran = time.perf_counter()
main_after_run_grid = peak(resource.RUSAGE_SELF)
write_reports(reports, manifest, config.out_dir)
wrote = time.perf_counter()
timings = {"run_grid_s": ran - start, "write_reports_s": wrote - ran,
           "main_peak_mb_after_run_grid": main_after_run_grid,
           "main_peak_mb": peak(resource.RUSAGE_SELF),
           "worker_peak_mb": peak(resource.RUSAGE_CHILDREN)}
# Hashed after the peaks are read, a block at a time.
csv_sha256 = hashlib.sha256()
for path in sorted(pathlib.Path(config.out_dir).glob("*.csv")):
    csv_sha256.update(path.name.encode() + b"\\0")
    with path.open("rb") as handle:
        while block := handle.read(1 << 20):
            csv_sha256.update(block)
print(json.dumps({**timings, "csv_sha256": csv_sha256.hexdigest()}))
"""


# argv[1] the pass as JSON (policy, T, E), argv[2] a sensor log to replay, or
# "" for drift streams; prints the CPU seconds of one `_simulate` pass and a
# sha256 of its decision record arrays.
KERNEL_CODE = """
import hashlib, json, sys, time
from qsim import simulator
from qsim.harness import ingest_sensor_log
source = {"source": sys.argv[2]} if sys.argv[2] else {"profile": "drift"}
config = simulator.ExperimentConfig(**json.loads(sys.argv[1]), seed=42, **source)
block = simulator._cell_streams(config, ingest_sensor_log(sys.argv[2]).rows if sys.argv[2] else None)
start = time.process_time()
records = simulator._simulate(config, (0.6, 0.75), block)
cpu_s = time.process_time() - start
digest = hashlib.sha256()
for record in records:
    for array in (record.sends, record.triggered, record.t_star, record.quantum, record.score):
        digest.update(array.tobytes())
print(json.dumps({"cpu_s": cpu_s, "records_sha256": digest.hexdigest()}))
"""


# argv[1] the sensor log; prints the seconds one ingest_sensor_log call takes.
INGEST_CODE = """
import sys, time
from qsim.harness import ingest_sensor_log
start = time.perf_counter()
ingest_sensor_log(sys.argv[1])
print(time.perf_counter() - start)
"""


def git_sha(revision: str) -> str:
    """The commit `revision` names in this repository."""
    return subprocess.run(["git", "-C", str(HERE), "rev-parse", "--verify", f"{revision}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def clone(sha: str, into: Path) -> Path:
    """A fresh checkout of commit `sha` of this repository at `into`."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(HERE), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", sha], check=True)
    return into


def design_size(checkout: Path) -> dict:
    """The checkout's `src/` lines, as `wc -l src/qsim/*.py` counts them, and public names."""
    lines = sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "qsim").glob("*.py"))
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import qsim; print(len(qsim.__all__))"],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True,
    )
    return {"src_lines": lines, "public_names": int(done.stdout.strip())}


def has_pycache(checkout: Path) -> bool:
    return any(checkout.rglob("__pycache__"))


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench_run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:], "correct": False}
    result = last_json(done.stdout)
    return {"exit": 0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def grid_run(checkout: Path, overrides: dict[str, str]) -> dict:
    """One timed `run_grid` + `write_reports` of the grid `overrides` configure."""
    out = Path(tempfile.mkdtemp(prefix="qsim-grid-"))
    try:
        done = subprocess.run(
            [sys.executable, "-c", GRID_CODE, json.dumps(overrides), str(out / "grid")],
            env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            capture_output=True, text=True, check=True,
        )
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return last_json(done.stdout)


def ingest_logs(checkout: Path, work: Path, seed: int) -> dict[str, Path]:
    """Replay-walk's log and its variants, written with the checkout's `qsim gen`."""
    clean = work / "clean.txt"
    subprocess.run(
        [sys.executable, "-m", "qsim", "gen", "--out", str(clean), "--profile", "random-walk",
         "--length", "40000", "--seed", str(seed)],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")}, check=True,
        stdout=subprocess.DEVNULL,
    )
    lines = clean.read_text(encoding="utf-8").splitlines(keepends=True)

    def bad_row_per(block: int) -> list[str]:  # the last line of every block cut to 7 fields
        return [line.rsplit(" ", 1)[0] + "\n" if i % block == block - 1 else line
                for i, line in enumerate(lines)]

    variants = {
        "bad_row_per_4096": bad_row_per(4096),
        "bad_row_per_512": bad_row_per(512),
        "nan_every_50": [" ".join(line.split()[:5] + ["nan"] + line.split()[6:]) + "\n"
                         if i % 50 == 49 else line for i, line in enumerate(lines)],
    }
    paths = {"clean": clean}
    for name, text in variants.items():
        paths[name] = work / f"{name}.txt"
        paths[name].write_text("".join(text), encoding="utf-8")
    return paths


def ingest_run(checkout: Path, path: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", INGEST_CODE, str(path)],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def kernel_run(checkout: Path, spec: dict, log: Path | None) -> dict:
    """One timed `_simulate` pass of `spec` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", KERNEL_CODE, json.dumps(spec), str(log) if log else ""],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True,
    )
    return last_json(done.stdout)


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(values)}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs each side won,
    from (parent, change) pairs of metric dicts."""
    summary = {}
    for name, direction in better.items():
        rows = [(parent[name], change[name]) for parent, change in pairs]
        if not rows:
            continue
        sign = 1 if direction == "lower" else -1
        summary[name] = {
            "better": direction,
            "parent": spread([a for a, _ in rows]),
            "change": spread([b for _, b in rows]),
            "change_wins": sum(sign * (b - a) < 0 for a, b in rows),
            "parent_wins": sum(sign * (b - a) > 0 for a, b in rows),
        }
    return summary


def log(message: str) -> None:
    print(f"[pairs] {message}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit, e.g. HEAD~1")
    parser.add_argument("--change", default="HEAD", help="the commit of the change")
    parser.add_argument("--pairs", default="grid-drift=10,replay-walk=10,baselines-multinode=4",
                        help="workload=pairs, comma-separated")
    parser.add_argument("--first-seed", type=int, default=8001)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    shas = {"parent": git_sha(args.parent), "change": git_sha(args.change)}
    with tempfile.TemporaryDirectory(prefix="qsim-pairs-") as work:
        sides = {side: clone(sha, Path(work) / side) for side, sha in shas.items()}
        pycache_before = {side: has_pycache(path) for side, path in sides.items()}
        spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        report = {
            "environment": {
                "git_sha": shas,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "nproc": os.cpu_count(),
                "seconds": spec["run_seconds"],
                "pairs": args.pairs,
                "first_seed": args.first_seed,
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            },
            "design": {side: design_size(path) for side, path in sides.items()},
            **measure(sides, spec, args.pairs, args.first_seed, Path(work)),
        }
        report["environment"]["pycache"] = {
            side: {"before_first_run": pycache_before[side], "after_last_run": has_pycache(path)}
            for side, path in sides.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {args.out}")
    return 0


def measure(sides: dict[str, Path], spec: dict, pair_counts: str, first_seed: int,
            work: Path) -> dict:
    """The bench pairs, the criterion-10 grid and theta sweep runs, the kernel passes and the
    ingestion timings."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {"workloads": {}, "criterion_10_grid": {}, "theta_sweeps": {}, "kernel_cpu_s": {},
              "ingest_s": {}}
    seed = first_seed
    for item in pair_counts.split(","):
        workload, count = item.split("=")
        pairs = []
        for i in range(int(count)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(sides[side], workload, seed, spec["run_seconds"])
                log(f"{workload} seed {seed} {side}: {json.dumps(pair[side].get('metrics'))}"
                    f" correct={pair[side]['correct']}")
            pairs.append(pair)
            seed += 1
        measured = [(p["parent"]["metrics"], p["change"]["metrics"]) for p in pairs
                    if "metrics" in p["parent"] and "metrics" in p["change"]]
        report["workloads"][workload] = {"pairs": pairs, "summary": summarize(measured, better)}
    grids = {("criterion_10_grid", f"workers_{workers}"): {**GRID, "workers": str(workers)}
             for workers in (1, 2)}
    grids.update({("theta_sweeps", name): overrides for name, overrides in SWEEPS.items()})
    for (kind, name), overrides in grids.items():
        runs = {"parent": [], "change": []}
        for i in range(GRID_RUNS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(grid_run(sides[side], overrides))
                log(f"{kind} {name} {side}: {json.dumps(runs[side][-1])}")
        digests = {run["csv_sha256"] for side_runs in runs.values() for run in side_runs}
        report[kind][name] = {**runs, "csv_identical": len(digests) == 1,
                              "summary": summarize(list(zip(runs["parent"], runs["change"])),
                                                   dict.fromkeys(GRID_METRICS, "lower"))}
    logs = work / "logs"
    logs.mkdir()
    paths = ingest_logs(sides["change"], logs, first_seed)
    for name, kernel_pass in KERNEL_PASSES.items():
        kernel = {key: kernel_pass[key] for key in ("policy", "T", "E")}
        log_path = paths["clean"] if kernel_pass["replay"] else None
        runs = {"parent": [], "change": []}
        for i in range(KERNEL_RUNS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(kernel_run(sides[side], kernel, log_path))
        times = {side: [run["cpu_s"] for run in side_runs] for side, side_runs in runs.items()}
        digests = {run["records_sha256"] for side_runs in runs.values() for run in side_runs}
        report["kernel_cpu_s"][name] = {
            "runs": runs,
            **{side: {"min": min(values), **spread(values)} for side, values in times.items()},
            "change_min_over_parent_min": min(times["change"]) / min(times["parent"]),
            "records_identical": len(digests) == 1,
        }
        log(f"kernel {name}: min {min(times['parent']):.4f} -> {min(times['change']):.4f} s, "
            f"records identical: {len(digests) == 1}")
    for name, path in paths.items():
        runs = {"parent": [], "change": []}
        for i in range(INGEST_RUNS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs[side].append(ingest_run(sides[side], path))
        medians = {side: statistics.median(times) for side, times in runs.items()}
        report["ingest_s"][name] = {
            "runs": runs, **{side: spread(times) for side, times in runs.items()},
            "parent_over_change": medians["parent"] / medians["change"],
        }
        log(f"ingest {name}: {json.dumps(medians)}")
    return report


if __name__ == "__main__":
    sys.exit(main())
