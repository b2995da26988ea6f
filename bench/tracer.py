"""Traced run: spans around calls into each qsim layer, recorded from outside.

The package is not edited. `Tracer.install` replaces module and class
attributes of the loaded `qsim` modules with timing wrappers and
`Tracer.uninstall` puts the originals back. Every wrapped call adds its
duration to a per-name total and its self time (duration minus the time of
wrapped calls made inside it) to a per-name self total. Coarse calls (grid,
ingestion, cells, stream generation, report writing) are also kept as
individual spans with their parent, so the whole tree can be written out when
the benchmark ends. Fine-grained per-round calls are only aggregated: a grid
makes millions of them.

Pool workers are forked from the traced process, so they inherit the
wrappers. The pool is swapped for `TracedExecutor`, whose tasks reset the
worker's tracer, run the cell and send its spans and totals back with the
result.
"""

from __future__ import annotations

import importlib
import os
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor

# (module, attribute path, span name, kept as an individual span)
TARGETS = (
    ("qsim.harness", "run_grid", "harness.run_grid", True),
    ("qsim.harness", "ingest_sensor_log", "harness.ingest", True),
    ("qsim.harness", "write_reports", "harness.write_reports", True),
    ("qsim.harness", "run_cell", "simulator.run_cell", True),
    ("qsim.simulator", "generate_synthetic_stream", "simulator.stream_gen", True),
    ("qsim.simulator", "run_experiment", "simulator.run_experiment", False),
    ("qsim.simulator", "update_synopsis", "synopsis.update", False),
    ("qsim.simulator", "update_quantum", "synopsis.quantum", False),
    ("qsim.synopsis", "QuantumNormalizer.observe", "synopsis.normalizer", False),
    ("qsim.synopsis", "QuantumNormalizer.normalize", "synopsis.normalizer", False),
    ("qsim.policies", "_PolicyBase.step", "policies.step", False),
    ("qsim.policies", "holt_init", "forecasting.holt", False),
    ("qsim.policies", "holt_step", "forecasting.holt", False),
    ("qsim.policies", "holt_forecast", "forecasting.holt", False),
    ("qsim.t2fls", "InferenceEngine.evaluate", "t2fls.evaluate", False),
)

# The tracer whose wrappers are installed; the pool's worker entry point
# reaches the inherited copy through it.
ACTIVE: "Tracer | None" = None


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    """Span totals and kept spans of one traced grid run (one process)."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.workers = 1
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []       # open spans: [child_s, span_id]
        self._seq = 0
        self.reset(None)

    # ------------------------------------------------------------------ state

    def reset(self, parent) -> None:
        """Forget everything recorded; new root spans get `parent` as parent."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.spans.clear()
        self.workers = 1
        self._stack[:] = [[0.0, parent]]

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def export(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "spans": list(self.spans),
        }

    def merge(self, exported: dict) -> None:
        for name, (calls, total, own) in exported["stats"].items():
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += total
            stat[2] += own
        for name, amount in exported["counts"].items():
            self.count(name, amount)
        self.spans.extend(exported["spans"])

    def current_span(self):
        return self._stack[-1][1]

    # --------------------------------------------------------------- wrappers

    def wrap(self, name: str, fn, keep: bool):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if keep:
                tracer._seq += 1
                span_id = (os.getpid(), tracer._seq)
                parent = stack[-1][1]
            else:
                span_id = stack[-1][1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[0]
            if keep:
                span = {"id": span_id, "parent": parent, "name": name,
                        "start": start, "end": end, "self": duration - frame[0]}
                if after is not None:
                    after(tracer, span, args, kwargs, result)
                tracer.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        global ACTIVE
        if self._patches:
            return
        for module_name, path, name, keep in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if f"{module_name}.{path}" not in self.absent:
                    self.absent.append(f"{module_name}.{path}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, keep))
        harness = importlib.import_module("qsim.harness")
        if hasattr(harness, "ProcessPoolExecutor"):
            self._patches.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
            harness.ProcessPoolExecutor = TracedExecutor
        ACTIVE = self

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        ACTIVE = None


# ---------------------------------------------------------------- span hooks

def _after_ingest(tracer, span, args, kwargs, result):
    tracer.count("harness.ingest.rows", getattr(result, "total_rows", 0))
    tracer.count("harness.ingest.dropped", getattr(result, "dropped", 0))


def _after_write(tracer, span, args, kwargs, result):
    reports = args[0]
    tracer.count("harness.write_reports.rows",
                 len(reports) + sum(len(r.per_experiment) for r in reports))
    tracer.count("harness.write_reports.bytes",
                 sum(p.stat().st_size for p in os.scandir(result) if p.is_file()))


def _after_cell(tracer, span, args, kwargs, result):
    cell = args[0]
    span["policy"] = cell.policy
    span["rounds"] = cell.E * cell.N * cell.T


def _after_stream(tracer, span, args, kwargs, result):
    span["vectors"] = len(result)
    span["key"] = repr((args, sorted(kwargs.items())))


_AFTER = {
    "harness.ingest": _after_ingest,
    "harness.write_reports": _after_write,
    "simulator.run_cell": _after_cell,
    "simulator.stream_gen": _after_stream,
}


# ---------------------------------------------------------------------- pool

def _run_traced(parent, fn, args, kwargs):
    """Worker entry point: run one task under the inherited tracer."""
    tracer = ACTIVE
    if tracer is None:  # a spawned worker inherits nothing: trace afresh
        tracer = Tracer()
        tracer.install()
    tracer.reset(parent)
    result = fn(*args, **kwargs)
    return result, tracer.export()


class TracedExecutor(ProcessPoolExecutor):
    """Process pool that counts dispatched bytes and collects worker spans."""

    def __init__(self, max_workers=None, *args, **kwargs) -> None:
        super().__init__(max_workers, *args, **kwargs)
        self._sizes: dict[int, int] = {}
        ACTIVE.workers = max_workers or os.cpu_count()

    def submit(self, fn, /, *args, **kwargs):
        tracer = ACTIVE
        # Pickle each argument object once per pool to size it; count it per send.
        for arg in (*args, *kwargs.values()):
            if id(arg) not in self._sizes:
                self._sizes[id(arg)] = len(pickle.dumps(arg, pickle.HIGHEST_PROTOCOL))
            tracer.count("harness.dispatch.bytes", self._sizes[id(arg)])
        inner = super().submit(_run_traced, tracer.current_span(), fn, args, kwargs)
        outer: Future = Future()

        def done(future: Future) -> None:
            try:
                result, exported = future.result()
            except Exception as exc:  # handed to the caller of outer.result()
                outer.set_exception(exc)
                return
            tracer.merge(exported)
            outer.set_result(result)

        inner.add_done_callback(done)
        return outer


# ------------------------------------------------------------------- metrics

def layer_metrics(tracer: Tracer, reports, cells) -> dict[str, float]:
    """Per-layer figures of one traced grid run (everything but overhead)."""
    stats = tracer.stats
    counts = tracer.counts

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def own(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    rounds = sum(c.E * c.N * c.T for c in cells)
    spans = tracer.spans
    grid = [s for s in spans if s["name"] == "harness.run_grid"]
    grid_s = sum(s["end"] - s["start"] for s in grid)
    cell_spans = [s for s in spans if s["name"] == "simulator.run_cell"]
    busy_s = sum(s["end"] - s["start"] for s in cell_spans)
    streams = [s for s in spans if s["name"] == "simulator.stream_gen"]
    generated = sum(s["vectors"] for s in streams)
    distinct = sum({s["key"]: s["vectors"] for s in streams}.values())
    events = [e for r in reports for e in r.per_experiment]
    sends = len(events)
    deadline = sum(1 for e in events if e.cause == "deadline")

    metrics = {
        "harness.ingest.self_s": own("harness.ingest"),
        "harness.ingest.rows": counts.get("harness.ingest.rows", 0),
        "harness.ingest.dropped": counts.get("harness.ingest.dropped", 0),
        "harness.dispatch.bytes": counts.get("harness.dispatch.bytes", 0),
        "harness.pool.busy_share": busy_s / (tracer.workers * grid_s) if grid_s else 0.0,
        "harness.write_reports.self_s": own("harness.write_reports"),
        "harness.write_reports.rows": counts.get("harness.write_reports.rows", 0),
        "harness.write_reports.bytes": counts.get("harness.write_reports.bytes", 0),
        "simulator.stream_gen.calls": calls("simulator.stream_gen"),
        "simulator.stream_gen.self_s": own("simulator.stream_gen"),
        "simulator.stream_gen.vectors_per_consumed": generated / distinct if distinct else 0.0,
        "simulator.run_experiment.self_s": own("simulator.run_experiment"),
        "simulator.run_cell.self_s": own("simulator.run_cell"),
    }
    for policy in ("UDDM", "BM", "PM"):
        mine = [s for s in cell_spans if s["policy"] == policy]
        policy_rounds = sum(s["rounds"] for s in mine)
        metrics[f"simulator.run_cell.us_per_round.{policy}"] = (
            1e6 * sum(s["end"] - s["start"] for s in mine) / policy_rounds if policy_rounds else 0.0
        )
    metrics.update({
        "policies.step.calls": calls("policies.step"),
        "policies.step.self_s": own("policies.step"),
        "policies.sends": sends,
        "policies.deadline_share": deadline / sends if sends else 0.0,
        "forecasting.holt.calls": calls("forecasting.holt"),
        "forecasting.holt.self_s": own("forecasting.holt"),
        "t2fls.evaluate.calls": calls("t2fls.evaluate"),
        "t2fls.evaluate.self_s": own("t2fls.evaluate"),
        "t2fls.evaluate.calls_per_round": calls("t2fls.evaluate") / rounds,
        "synopsis.update.self_s": own("synopsis.update"),
        "synopsis.quantum.self_s": own("synopsis.quantum"),
        "synopsis.normalizer.calls": calls("synopsis.normalizer"),
        "synopsis.normalizer.self_s": own("synopsis.normalizer"),
    })
    return metrics
