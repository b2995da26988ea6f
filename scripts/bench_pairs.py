"""Paired benchmark runs of two commits of this repository, written to one JSON file.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --out BENCH_<pr>.json \
        --runs 10 --first-seed <pr>101

Each side runs from a fresh `git clone` of its commit in a temporary
directory, never from a working tree, so both start from committed files and
without a `__pycache__`. Every figure is measured by one rule: `--runs`
rounds, each running both sides once, the parent first in even rounds and the
change first in odd ones (`alternate`). Round i makes pair i, and each figure
is summarised by each side's median and quartiles and the pairs each side
won, ties counting for neither (`summarize`).

The figures:
- each workload of the parent's BENCHMARK.json: the clones' own
  `bench/run.py --trace 0`, for the run length BENCHMARK.json sets, one seed
  per round, read from the JSON object each run prints last;
- the criterion-10 grid (UDDM, BM, PM x T 10, 100, 1000 x theta 0.6, 0.75,
  E = 1000, seed 42) at `workers` 1 and 2, and the theta sweeps (0.6, 0.75) of
  each policy at T = 1000, E = 100 and E = 1000, `workers` 2: grids of one
  (policy, T) group. A run times `run_grid` and `write_reports`, reads the main
  process's peak resident set after each and the pool workers' peak, and
  hashes the CSV files it wrote;
- the lane kernel alone: the CPU seconds of one `simulator._simulate` pass
  (theta 0.6 and 0.75, seed 42, N = 1; the streams are built before the clock
  starts) on each of KERNEL_PASSES, with a sha256 of its decision record
  arrays;
- the detail formatter alone: the CPU seconds of one `harness._detail_blocks`
  pass over the event table of the first report of a grid (seed 42, theta
  0.6; the table is built before the clock starts) on each of FORMAT_TABLES,
  with a sha256 of the text it wrote;
- one `ingest_sensor_log` call on each of four logs: replay-walk's (`qsim gen
  --profile random-walk --length 40000 --seed <first seed>`), the same log with
  a malformed row at the end of every 4,096-line block, the same with one at
  the end of every 512-line block (so every block the ingester reads is parsed
  twice), and the same log with a `nan` reading every 50 rows.

Grids, kernel passes, formatter passes and ingest logs each run one of four
snippets in a fresh interpreter with the checkout's `src` on the path
(`snippet_run`). Whether both sides wrote the same CSV bytes, decided the same
bit for bit, or formatted the same text, is recorded per figure as
`csv_identical`, `records_identical` or `text_identical`.

For each side it also records the design's size: `src_lines`, the total of
`wc -l src/qsim/*.py`, and `public_names`, the length of `qsim.__all__` read in
a fresh interpreter that writes no bytecode. The environment holds each side's
git sha, Python, numpy, nproc, the run length, `--runs`, `--first-seed`,
`PYTHONDONTWRITEBYTECODE` and whether each clone held a `__pycache__` before
its first run and after its last. Whether lower or higher is better for a
workload metric comes from the parent's BENCHMARK.json; every snippet figure
is better lower. Nothing here changes the benchmark: both sides run their own
unchanged `bench/run.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

# One `_simulate` pass each: the policy, T and E, and whether it reads replay-walk's log.
KERNEL_PASSES = {
    **{f"{policy}_T1000_E20_drift": ({"policy": policy, "T": 1000, "E": 20}, False)
       for policy in ("UDDM", "PM", "BM")},
    "UDDM_T1000_E24_replay_walk": ({"policy": "UDDM", "T": 1000, "E": 24}, True),
    **{f"{policy}_T1000_E1000_drift": ({"policy": policy, "T": 1000, "E": 1000}, False)
       for policy in ("UDDM", "PM")},
}

# One `_detail_blocks` pass each: the grid's overrides, and whether it reads replay-walk's log.
# BM at T 1 sends once per experiment, so no row of its table shares a prefix.
FORMAT_TABLES = {
    **{f"{policy}_T100_E40_N8_piecewise_constant":
       ({"policy": policy, "t": "100", "e": "40", "n": "8", "profile": "piecewise-constant"}, False)
       for policy in ("BM", "PM")},
    "BM_T1000_E1000_drift": ({"policy": "BM", "t": "1000", "e": "1000", "profile": "drift"}, False),
    "UDDM_T1000_E24_replay_walk": ({"policy": "UDDM", "t": "1000", "e": "24"}, True),
    "BM_T1_E200000_drift": ({"policy": "BM", "t": "1", "e": "200000", "profile": "drift"}, False),
}

GRID = {"policy": "UDDM,BM,PM", "t": "10,100,1000", "theta": "0.6,0.75", "e": "1000",
        "seed": "42"}
SWEEPS = {f"{policy}_T1000_E{e}": {"policy": policy, "t": "1000", "theta": "0.6,0.75", "e": str(e),
                                   "seed": "42", "workers": "2"}
          for policy in ("UDDM", "BM", "PM") for e in (100, 1000)}

# Each snippet prints one JSON object last: its figures, all better lower, and
# any `*_sha256` digest of what the run computed.

# argv[1] the config overrides as JSON. The run writes to a directory of its own
# and removes it after the peaks are read and the CSV files hashed.
GRID_CODE = """
import hashlib, json, pathlib, resource, sys, tempfile, time
from qsim.harness import load_config, run_grid, write_reports
def peak(who):
    return resource.getrusage(who).ru_maxrss / 1024.0
with tempfile.TemporaryDirectory(prefix="qsim-grid-") as out:
    config = load_config(cli_overrides={**json.loads(sys.argv[1]), "out-dir": out + "/grid"}, environ={})
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
# "" for drift streams.
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

# argv[1] the grid's config overrides as JSON, argv[2] a sensor log to replay, or "".
FORMAT_CODE = """
import hashlib, json, sys, time
from qsim.harness import _detail_blocks, load_config, run_grid
overrides = {**json.loads(sys.argv[1]), "theta": "0.6", "seed": "42"}
if sys.argv[2]:
    overrides["source"] = sys.argv[2]
reports, _ = run_grid(load_config(cli_overrides=overrides, environ={}))
events = reports[0].per_experiment
start = time.process_time()
blocks = list(_detail_blocks(events))
cpu_s = time.process_time() - start
text_sha256 = hashlib.sha256()
for block in blocks:
    text_sha256.update(block)
print(json.dumps({"cpu_s": cpu_s, "text_sha256": text_sha256.hexdigest()}))
"""

# argv[1] the sensor log.
INGEST_CODE = """
import json, sys, time
from qsim.harness import ingest_sensor_log
start = time.perf_counter()
ingest_sensor_log(sys.argv[1])
print(json.dumps({"ingest_s": time.perf_counter() - start}))
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
    """One `bench/run.py --trace 0` run: its checks and, when it ran, its metrics."""
    done = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        return {"seed": seed, "exit": done.returncode, "stderr": done.stderr[-2000:], "correct": False}
    result = last_json(done.stdout)
    return {"seed": seed, "exit": 0, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], **{name: m["value"] for name, m in result["metrics"].items()}}


def snippet_run(checkout: Path, code: str, *args: str) -> dict:
    """The JSON object `code` prints last, run in a fresh interpreter on the checkout's `src`."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True,
    )
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


def alternate(runs: int, run: Callable[[str, int], dict], label: str) -> list[dict]:
    """`runs` pairs of `run(side, round)`, the parent first in even rounds and
    the change first in odd ones."""
    pairs = []
    for i in range(runs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = run(side, i)
            log(f"{label} round {i} {side}: {json.dumps(pair[side])}")
        pairs.append(pair)
    return pairs


def spread(values: list[float]) -> dict:
    quartiles = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "n": len(values)}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per figure named in `better`: each side's median and quartiles, and the
    pairs each side won, ties counting for neither. A pair counts for a figure
    only when both of its runs read it."""
    summary = {}
    for name, direction in better.items():
        rows = [(pair["parent"][name], pair["change"][name]) for pair in pairs
                if name in pair["parent"] and name in pair["change"]]
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
    parser.add_argument("--runs", type=int, default=10, help="pairs of runs per figure")
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
                "runs": args.runs,
                "first_seed": args.first_seed,
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            },
            "design": {side: design_size(path) for side, path in sides.items()},
            **measure(sides, spec, args.runs, args.first_seed, Path(work)),
        }
        report["environment"]["pycache"] = {
            side: {"before_first_run": pycache_before[side], "after_last_run": has_pycache(path)}
            for side, path in sides.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    log(f"wrote {args.out}")
    return 0


def measure(sides: dict[str, Path], spec: dict, runs: int, first_seed: int, work: Path) -> dict:
    """Every workload, grid, theta sweep, kernel pass, formatter pass and ingest log, `runs` pairs each."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {"workloads": {}, "criterion_10_grid": {}, "theta_sweeps": {}, "kernel_cpu_s": {},
              "format_cpu_s": {}, "ingest_s": {}}
    for w, workload in enumerate(m["name"] for m in spec["workloads"]):
        pairs = alternate(runs, lambda side, i: bench_run(sides[side], workload, first_seed + w * runs + i,
                                                          spec["run_seconds"]), workload)
        report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better)}
    logs = work / "logs"
    logs.mkdir()
    paths = ingest_logs(sides["change"], logs, first_seed)
    snippets = {("criterion_10_grid", f"workers_{workers}"):
                (GRID_CODE, json.dumps({**GRID, "workers": str(workers)})) for workers in (1, 2)}
    snippets.update({("theta_sweeps", name): (GRID_CODE, json.dumps(overrides))
                     for name, overrides in SWEEPS.items()})
    snippets.update({("kernel_cpu_s", name): (KERNEL_CODE, json.dumps(kernel),
                                              str(paths["clean"]) if replay else "")
                     for name, (kernel, replay) in KERNEL_PASSES.items()})
    snippets.update({("format_cpu_s", name): (FORMAT_CODE, json.dumps(overrides),
                                              str(paths["clean"]) if replay else "")
                     for name, (overrides, replay) in FORMAT_TABLES.items()})
    snippets.update({("ingest_s", name): (INGEST_CODE, str(path)) for name, path in paths.items()})
    for (kind, name), (code, *args) in snippets.items():
        pairs = alternate(runs, lambda side, _: snippet_run(sides[side], code, *args), f"{kind} {name}")
        digests = [key for key in pairs[0]["parent"] if key.endswith("_sha256")]
        report[kind][name] = {
            "pairs": pairs,
            **{key.removesuffix("_sha256") + "_identical":
               len({pair[side][key] for pair in pairs for side in SIDES}) == 1 for key in digests},
            "summary": summarize(pairs, {key: "lower" for key in pairs[0]["parent"] if key not in digests}),
        }
    return report


if __name__ == "__main__":
    sys.exit(main())
