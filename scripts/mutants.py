"""Mutation sweep: does tier-1 fail when the decision logic is wrong?

    python3 scripts/mutants.py --commit HEAD --out MUTANTS_<pr>.json

Each mutant is one source edit: a piece of anchor text in one file and the text
that replaces it. For each mutant the script makes a fresh `git clone` of the
commit in a temporary directory, replaces the anchor (which must occur exactly
once in the file), and runs the tier-1 suite there, stopping at the first
failure. The mutant is `killed` when the suite fails, `survived` when it
passes, and `not applied` when its anchor is not in the file (or not once), so
a stale entry shows instead of passing quietly.

An equivalent mutant changes the code but not what it computes, so no test of
the results can kill it; it carries the reason. The script exits 1 when a
mutant that is not equivalent survives or is not applied. The output holds the commit, Python and
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
# Tier-1 without the guard that each anchor occurs once in the unmutated tree:
# applying a mutant removes its anchor, so the guard would kill every mutant.
# A failure's captured log is not shown, since its ERROR lines would read as the failing test.
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--show-capture=no",
          "--deselect", "tests/test_scripts.py::test_mutant_anchor_occurs_once"]
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
FORECASTING = "src/qsim/forecasting.py"
HARNESS = "src/qsim/harness.py"
ERRORS = "src/qsim/errors.py"

MUTANTS = [
    # The decision rules.
    Mutant("uddm-theta-inclusive", POLICIES, "return g > state.theta, g", "return g >= state.theta, g"),
    Mutant("pm-theta-inclusive", POLICIES, "return score > state.theta, score",
           "return score >= state.theta, score"),
    Mutant("deadline-exclusive", POLICIES, "sends = t_star >= state.deadline",
           "sends = t_star > state.deadline"),
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
    # The epoch resets and the forecaster's seeding, all written in place.
    Mutant("round-counter-not-reset", POLICIES, "np.copyto(state.t, 1, where=sends)", "pass"),
    Mutant("deadline-not-reset", POLICIES, "np.copyto(state.deadline, state.T, where=sends)", "pass"),
    Mutant("holt-level-seeded-every-round", POLICIES, "np.copyto(state.level, previous, where=seed)",
           "np.copyto(state.level, previous)"),
    Mutant("holt-trend-seeded-every-round", POLICIES,
           "np.subtract(quantum, previous, out=state.trend, where=seed)",
           "np.subtract(quantum, previous, out=state.trend)"),
    # The forecast clamp, in the one projection behind the lanes and
    # holt_forecast: fmax passes over NaN, and adding +0.0 turns the -0.0
    # that fmax may return into +0.0.
    Mutant("forecast-clamp-keeps-negative-zero", FORECASTING, "    forecast += 0.0\n", ""),
    Mutant("forecast-clamp-keeps-nan", FORECASTING, "np.fmax(forecast, 0.0, out=forecast)",
           "np.maximum(forecast, 0.0, out=forecast)"),
    Mutant("forecast-clamp-zero-first", FORECASTING,
           "np.fmax(forecast, 0.0, out=forecast)\n    forecast += 0.0",
           "np.fmax(0.0, forecast, out=forecast)"),
    # The scored lanes alone are normalised, each by its own peak.
    Mutant("scored-peak-from-first-lanes", POLICIES, "[:, scored], scored)",
           "[:, scored], np.arange(scored.size))"),
    Mutant("triples-paired-across-rows", POLICIES, "views.reshape(2, 3, -1).transpose(1, 0, 2)",
           "views.reshape(3, 2, -1)"),
    Mutant("no-deadline-stagger", SIMULATOR, "np.tile(np.where(offsets > 0, offsets, T), k * E)",
           "np.tile(np.full(n, T), k * E)"),
    # The fuzzy layer.
    # A transposed view makes the rule axis the contiguous one, which reduce adds pairwise.
    Mutant("rule-weights-transposed-view", T2FLS,
           "np.array([[c, 1.0] for c in rule_centroids]).reshape(27, 2, 1)",
           "np.array([rule_centroids, [1.0] * 27]).T.reshape(27, 2, 1)"),
    Mutant("right-foot-pulled-by-left-edge", T2FLS, "d - self.shrink * (d - c))",
           "d - self.shrink * (b - a))"),
    Mutant("centroid-summed-pairwise", T2FLS,
           "num, den = np.add.accumulate([grid * mass, mass], axis=2)[:, :, -1]",
           "num, den = np.sum([grid * mass, mass], axis=2)"),
    # The rule sum starts from +0.0, so rules of zero mass add up to +0.0 and
    # a zero total divides by 1.
    Mutant("rule-sum-from-negative-zero", T2FLS, "axis=0, initial=0.0)", "axis=0, initial=-0.0)"),
    Mutant("zero-mass-divides-by-zero", T2FLS, "den[den <= 0.0] = 1.0", "den[den < 0.0] = 1.0"),
    Mutant("term-corner-count-unchecked", T2FLS, "if len(self.upper) != 4:", "if len(self.upper) > 4:"),
    Mutant("spec-shrink-ignored", T2FLS, 'for key in ("shrink", "height") if key in entry}',
           'for key in ("height",) if key in entry}'),
    # A spec term must be an object with an upper shape; a `null` term is no exception.
    Mutant("spec-term-not-checked-as-object", T2FLS,
           'if not isinstance(entry, Mapping) or "upper" not in entry:', 'if "upper" not in entry:'),
    Mutant("spec-term-upper-not-required", T2FLS,
           'if not isinstance(entry, Mapping) or "upper" not in entry:',
           "if not isinstance(entry, Mapping):"),
    Mutant("spec-null-term-keeps-the-default", T2FLS, "if label not in term_spec:",
           "if term_spec.get(label) is None:"),
    # The one home of each argument rule.
    Mutant("integer-accepts-bool", ERRORS,
           "isinstance(value, bool) or not isinstance(value, (int, np.integer))",
           "not isinstance(value, (int, np.integer))"),
    Mutant("integer-low-exclusive", ERRORS, "(value < low or", "(value <= low or"),
    Mutant("integer-high-exclusive", ERRORS, "value > high)", "value >= high)"),
    Mutant("deadline-list-accepts-bool", POLICIES, "if bools or ", "if "),
    Mutant("real-accepts-bool", ERRORS,
           "isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))",
           "not isinstance(value, (int, float, np.integer, np.floating))"),
    # A bad value is shown cut short, a numpy integer as its Python int.
    Mutant("bound-shows-the-numpy-repr", ERRORS, "got {_echo(int(value))}", "got {_echo(value)}"),
    Mutant("choice-shows-the-whole-value", ERRORS, "unknown {what} {_echo(value)};", "unknown {what} {value!r};"),
    Mutant("config-bad-line-shown-whole", HARNESS, "expected 'key = value', got {_echo(raw)}",
           "expected 'key = value', got {raw!r}"),
    Mutant("error-line-not-cut", HARNESS,
           'log.error("%s", _cut(line, _ERROR_LINE_MAX - len(f"ERROR {log.name}: ")))',
           'log.error("%s", line)'),
    # holt_forecast floors overflowed projections silently, as Python floats did.
    Mutant("holt-forecast-warns-on-overflow", FORECASTING,
           'with np.errstate(over="ignore", invalid="ignore"):', "with np.errstate():"),
    # The forecaster's one smoothing-factor check, shared by every caller.
    Mutant("smoothing-bound-inclusive", FORECASTING, "if not 0.0 < _check_real(name, value) < 1.0:",
           "if not 0.0 <= _check_real(name, value) < 1.0:"),
    # Event tables and ingestion.
    Mutant("event-equality-by-value", SIMULATOR, "a.tobytes() == b.tobytes() for a, b",
           "np.array_equal(a, b, equal_nan=True) for a, b"),
    Mutant("fast-path-keeps-non-finite", HARNESS, 'keep = np.isfinite(table["readings"]).all(axis=1)',
           "keep = np.ones(len(table), bool)"),
    Mutant("fast-path-ignores-mote", HARNESS, 'keep &= table["mote"] == mote', "pass"),
    Mutant("rejected-block-counts-blank-lines", HARNESS,
           "if not parts:\n                        continue", "if False:\n                        continue"),
    # The detail formatter's prefix key: one key per (experiment, t*, cause) of a block.
    Mutant("detail-key-drops-the-cause", HARNESS,
           "+ 2 * t_star.astype(np.int64) + events.triggered[block], return_inverse=True)",
           "+ 2 * t_star.astype(np.int64), return_inverse=True)"),
    Mutant("detail-key-span-one-t-star-short", HARNESS, "span = 2 * (int(t_star.max()) + 1)",
           "span = 2 * int(t_star.max())"),
    # The one replay slicer behind run_cell and run_experiment.
    Mutant("replay-wrap-clamped", SIMULATOR, "% total]", ".clip(max=total - 1)]"),
    Mutant("replay-truncation-inclusive", SIMULATOR, "total < count", "total <= count"),
    Mutant("replay-finite-check-dropped", SIMULATOR, "if not np.isfinite(block).all():", "if False:"),
    # The scalar forecaster's one recurrence call per step.
    Mutant("holt-seed-trend-reversed", FORECASTING, "_holt_update(e1, e2 - e1, e2,",
           "_holt_update(e1, e1 - e2, e2,"),
    Mutant("holt-step-count-frozen", FORECASTING, "state.observations + 1)", "state.observations)"),
    # A window of any size would hold the same maximum, but the cap keeps a
    # huge configured window from being allocated.
    Mutant("window-not-capped-at-T", SIMULATOR, "min(config.window, T))", "config.window)"),
    # The running mean and the L1 quantum, written into buffers in place.
    Mutant("running-mean-divides-by-s", SIMULATOR, "out=step), s + 1, out=step)", "out=step), s, out=step)"),
    Mutant("quantum-without-abs", SIMULATOR, "np.abs(np.subtract(mean, last_sent, out=distance), out=distance)",
           "np.subtract(mean, last_sent, out=distance)"),
    Mutant("last-sent-always-the-mean", SIMULATOR, "np.copyto(last_sent, mean, where=sends_k[s - 1])",
           "np.copyto(last_sent, mean)"),
    # The pool: each T's streams built once for every group of that T, and the
    # reports joined in grid order whatever order the tasks ran in.
    Mutant("every-group-reads-the-first-block", HARNESS, "streams[groups[index][0].T]",
           "streams[groups[0][0].T]"),
    Mutant("reports-joined-in-submission-order", HARNESS,
           "for i in range(len(groups)) for report in futures[i].result())",
           "for future in futures.values() for report in future.result())"),
    Mutant("reports-joined-in-reverse-grid-order", HARNESS,
           "for i in range(len(groups)) for report in futures[i].result())",
           "for i in reversed(range(len(groups))) for report in futures[i].result())"),
    # A block is freed after the last kernel pass that reads it, before the reports are built.
    Mutant("group-keeps-its-block", SIMULATOR, "    del block\n", ""),
    Mutant("serial-grid-keeps-every-block", HARNESS, "streams.pop(cells[0].T) if", "streams[cells[0].T] if"),
    # The cell metrics.
    Mutant("phi-divides-by-T-plus-1", SIMULATOR, "(first_t_star / T)", "(first_t_star / (T + 1))"),
    Mutant("psi-averaged-over-messages", SIMULATOR, "/ counts.size,", "/ len(events),"),
    Mutant("first-t-star-off-by-one", SIMULATOR, "record.sends.argmax(axis=0) + 1",
           "record.sends.argmax(axis=0)"),
    Mutant("silent-node-only-when-all-silent", SIMULATOR, "(counts == 0).any(axis=1)",
           "(counts == 0).all(axis=1)"),
    Mutant("delta-by-plain-sum", SIMULATOR, "delta=math.fsum(events.magnitude.tolist())",
           "delta=sum(events.magnitude.tolist())"),
    # The event table: experiment-major, then step, then node, numbered from the first experiment.
    Mutant("events-node-before-step", SIMULATOR,
           "experiment, step, node = (i.astype(np.int32) for i in np.nonzero(self.sends.transpose(1, 0, 2)))",
           "experiment, node, step = (i.astype(np.int32) for i in np.nonzero(self.sends.transpose(1, 2, 0)))"),
    Mutant("events-without-experiment-offset", SIMULATOR, "experiment + np.int32(first_experiment)",
           "experiment"),
    # The kernel's running mean, last-sent synopsis and deadline stagger.
    Mutant("running-mean-reads-the-previous-round", SIMULATOR, "np.subtract(rounds[s], mean, out=step)",
           "np.subtract(rounds[s - 1], mean, out=step)"),
    Mutant("last-sent-never-updated", SIMULATOR, "np.copyto(last_sent, mean, where=sends_k[s - 1])",
           "pass"),
    Mutant("deadline-stagger-shifted", SIMULATOR, "offsets = np.arange(n) % T",
           "offsets = np.arange(1, n + 1) % T"),
    # The policies' triggers, resets, forecast clamp and normaliser window.
    Mutant("deadline-reset-one-short", POLICIES, "np.copyto(state.deadline, state.T, where=sends)",
           "np.copyto(state.deadline, state.T - 1, where=sends)"),
    Mutant("forecast-not-clamped", FORECASTING, "np.fmax(forecast, 0.0, out=forecast)\n    forecast += 0.0",
           "pass"),
    Mutant("bm-fires-on-zero-quantum", POLICIES, "return quantum > 0.0,", "return quantum >= 0.0,"),
    Mutant("pm-scores-the-last-forecast", POLICIES, "np.where(state.t >= 2, (a + b + c) / 3.0, np.nan)",
           "np.where(state.t >= 2, c, np.nan)"),
    Mutant("normaliser-window-stops-rolling", POLICIES,
           "self._window[self._observed % len(self._window)] = quantum",
           "self._window[min(self._observed, len(self._window) - 1)] = quantum"),
    # Equivalent: kept so that the reasoning is re-checked on every sweep.
    Mutant("geometric-mean-operands-swapped", POLICIES, "np.sqrt(pod_p * pod_f)",
           "np.sqrt(pod_f * pod_p)",
           equivalent="IEEE multiplication is commutative"),
    Mutant("rule-sum-default-start", T2FLS, "axis=0, initial=0.0)", "axis=0)",
           equivalent="numpy's add.reduce starts from the identity of add, +0.0, when given no initial"),
    Mutant("forecasts-before-past-quanta", POLICIES, "np.concatenate((state.quanta, forecast))",
           "np.concatenate((forecast, state.quanta))",
           equivalent="the two potentials swap places, and their geometric mean is symmetric"),
    Mutant("smallest-group-first", HARNESS, "key=lambda i: -groups[i][0].T)", "key=lambda i: groups[i][0].T)",
           equivalent="the submission order changes only when each task runs, never a report; "
                      "the test of that order kills it all the same"),
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
