"""Mutation sweep: does tier-1 fail when the decision logic is wrong?

    python3 scripts/mutants.py --commit HEAD --out MUTANTS_17.json

Each mutant is one source edit: a piece of anchor text in one file and the text
that replaces it. For each mutant the script makes a fresh `git clone` of the
commit in a temporary directory, replaces the anchor (which must occur exactly
once in the file), and runs the tier-1 suite there, stopping at the first
failure. The mutant is `killed` when the suite fails, `survived` when it
passes, and `not applied` when its anchor is not in the file (or not once), so
a stale entry shows instead of passing quietly.

An equivalent mutant changes the code but not what it computes, so no test can
kill it; it carries the reason. The script exits 1 when a mutant that is not
equivalent survives or is not applied. The output holds the commit, Python and
numpy versions, and per mutant its edit, status, pytest's exit code, seconds
and the first failing test. It takes minutes, so it runs outside tier-1.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent.parent
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
TIMEOUT_S = 900


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    anchor: str
    replacement: str
    equivalent: str | None = None  # why no test can kill it


POLICIES = "src/qsim/policies.py"
SIMULATOR = "src/qsim/simulator.py"
T2FLS = "src/qsim/t2fls.py"
HARNESS = "src/qsim/harness.py"

MUTANTS = [
    # The decision rules.
    Mutant("uddm-theta-inclusive", POLICIES, "return g > state.theta, g", "return g >= state.theta, g"),
    Mutant("pm-theta-inclusive", POLICIES, "return score > state.theta, score",
           "return score >= state.theta, score"),
    Mutant("deadline-exclusive", POLICIES, "triggered | (t_star >= state.deadline)",
           "triggered | (t_star > state.deadline)"),
    Mutant("holt-seeded-at-t3", POLICIES, "seed = state.t == 2", "seed = state.t == 3"),
    Mutant("uddm-scored-from-t2", POLICIES, "np.flatnonzero(state.t >= 3)",
           "np.flatnonzero(state.t >= 2)"),
    Mutant("uddm-scores-every-lane", POLICIES, "np.flatnonzero(state.t >= 3)",
           "np.arange(len(state.t))"),
    Mutant("pm-scored-from-t3", POLICIES, "np.where(state.t >= 2, (a + b + c) / 3.0, np.nan)",
           "np.where(state.t >= 3, (a + b + c) / 3.0, np.nan)"),
    Mutant("normaliser-cut-at-1.5", POLICIES,
           "np.minimum(values / np.maximum(peak, _SCALE_FLOOR), 1.0)",
           "np.minimum(values / np.maximum(peak, _SCALE_FLOOR), 1.5)"),
    Mutant("alpha-beta-swapped", POLICIES, "quantum, self.alpha, self.beta)",
           "quantum, self.beta, self.alpha)"),
    Mutant("no-deadline-stagger", SIMULATOR, "np.tile(np.where(offsets > 0, offsets, T), k * E)",
           "np.tile(np.full(n, T), k * E)"),
    # The fuzzy layer.
    Mutant("rules-summed-pairwise-on-one-triple", T2FLS, "if weighted.shape[2] > 1",
           "if weighted.shape[2] > 0"),
    Mutant("right-foot-pulled-by-left-edge", T2FLS, "d - self.shrink * (d - c))",
           "d - self.shrink * (b - a))"),
    Mutant("spec-shrink-ignored", T2FLS, 'for key in ("shrink", "height") if key in entry}',
           'for key in ("height",) if key in entry}'),
    # Event tables and ingestion.
    Mutant("event-equality-by-value", SIMULATOR, "a.tobytes() == b.tobytes() for a, b",
           "np.array_equal(a, b, equal_nan=True) for a, b"),
    Mutant("fast-path-keeps-non-finite", HARNESS, 'keep = np.isfinite(table["readings"]).all(axis=1)',
           "keep = np.ones(len(table), bool)"),
    Mutant("fast-path-ignores-mote", HARNESS, 'keep &= table["mote"] == mote', "pass"),
    # A window of any size would hold the same maximum, but the cap keeps a
    # huge configured window from being allocated.
    Mutant("window-not-capped-at-T", SIMULATOR, "min(config.window, T))", "config.window)"),
    # Equivalent: kept so that the reasoning is re-checked on every sweep.
    Mutant("rules-always-accumulated", T2FLS, "if weighted.shape[2] > 1",
           "if weighted.shape[2] > 10**9",
           equivalent="np.add.reduce over the rule axis of a (2, 27, n) array with n > 1 adds the "
                      "27 rules in order, as accumulate does; only the speed differs"),
    Mutant("geometric-mean-operands-swapped", POLICIES, "np.sqrt(pod_p * pod_f)",
           "np.sqrt(pod_f * pod_p)",
           equivalent="IEEE multiplication is commutative"),
]


def git_sha(revision: str) -> str:
    return subprocess.run(["git", "-C", str(HERE), "rev-parse", "--verify", f"{revision}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def first_failure(output: str) -> str | None:
    """The first failed test, else pytest's last line (a run that ends in an
    INTERNALERROR or a collection error names no failed test)."""
    lines = output.strip().splitlines()
    for line in lines:
        if line.startswith(("FAILED ", "ERROR ")):
            return line
    return lines[-1] if lines else None


def run_mutant(sha: str, mutant: Mutant) -> dict:
    """Clone `sha`, apply `mutant` and run tier-1 on it."""
    result = {**asdict(mutant), "status": "not applied", "exit": None, "seconds": None,
              "first_failure": None}
    with tempfile.TemporaryDirectory(prefix="qsim-mutant-") as work:
        checkout = Path(work) / "repo"
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(HERE), str(checkout)], check=True)
        subprocess.run(["git", "-C", str(checkout), "checkout", "--quiet", "--detach", sha], check=True)
        source = checkout / mutant.path
        text = source.read_text(encoding="utf-8") if source.exists() else ""
        if text.count(mutant.anchor) != 1:
            return result
        source.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
        start = time.perf_counter()
        try:
            done = subprocess.run(TIER_1, cwd=checkout, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result.update(status="killed", first_failure=f"timed out after {TIMEOUT_S} s")
        else:
            result.update(status="survived" if done.returncode == 0 else "killed",
                          exit=done.returncode, first_failure=first_failure(done.stdout))
        result["seconds"] = round(time.perf_counter() - start, 1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="HEAD", help="the commit to mutate")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    sha = git_sha(args.commit)
    results = []
    for mutant in MUTANTS:
        results.append(run_mutant(sha, mutant))
        print(f"[mutants] {mutant.name}: {results[-1]['status']} ({results[-1]['seconds']} s)",
              file=sys.stderr, flush=True)
    report = {
        "environment": {"git_sha": sha, "python": platform.python_version(),
                        "numpy": numpy.__version__, "tier_1": TIER_1[1:]},
        "mutants": results,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    failing = [r["name"] for r in results
               if r["equivalent"] is None and r["status"] != "killed"]
    if failing:
        print(f"[mutants] not killed: {', '.join(failing)}", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
