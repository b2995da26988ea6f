"""What the benchmark's tracer (bench/tracer.py) and checker (bench/check.py)
read of the package.

The tracer wraps module and class attributes by name and reads ingestion
counts off the result with a default of 0, so a renamed or deleted name would
not fail a traced run: it would be listed absent, or read as 0. The checker
reads each report's events by length, iteration and field name. These tests
load both by file path, without changing them, and pin what they rely on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qsim.harness import ingest_sensor_log, load_config, run_grid, write_reports

from reference_sim import reference_trace

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("qsim_bench_tracer", BENCH / "tracer.py")


@pytest.fixture(scope="module")
def check_module():
    return _load("qsim_bench_check", BENCH / "check.py")


def test_every_target_module_imports(tracer_module):
    modules = sorted({module_name for module_name, *_ in tracer_module.TARGETS})
    for module_name in modules:
        importlib.import_module(module_name)


def test_ingest_result_carries_the_counts_the_tracer_reads(tracer_module, tmp_path):
    log = tmp_path / "log.txt"
    log.write_text(
        "2004-02-28 00:58:15 2 1 19.3 38.4 45.08 2.68742\n"
        "2004-02-28 00:58:46 3 1 19.3 38.4\n"
        "2004-02-28 00:59:16 4 1 19.3 38.4 45.1 2.7\n",
        encoding="utf-8",
    )
    result = ingest_sensor_log(log)
    assert result.total_rows == 3 and result.dropped == 1
    tracer = tracer_module.Tracer()
    tracer_module._after_ingest(tracer, {}, (log,), {}, result)
    assert tracer.counts["harness.ingest.rows"] == 3
    assert tracer.counts["harness.ingest.dropped"] == 1


def test_checker_accepts_reports_that_crossed_the_pool(check_module, tmp_path):
    config = load_config(
        cli_overrides={"policy": "UDDM,BM", "t": "10,30", "theta": "0.6", "e": "4", "n": "2",
                       "seed": "5", "workers": "2", "out-dir": str(tmp_path / "out")},
        environ={},
    )
    reports, manifest = run_grid(config)
    out = write_reports(reports, manifest, config.out_dir)
    problems, tally = check_module.check_run(reports, config, out, reference_trace, seed=5)
    assert sorted(problems) == sorted(check_module.cell_name(r) for r in reports)
    assert not any(problems.values()), problems
    assert tally["differs"] == 0 and sum(tally.values()) >= len(reports)
    fingerprint = check_module.fingerprint(reports)
    assert sorted(fingerprint) == sorted(problems)
    for report in reports:
        entry = fingerprint[check_module.cell_name(report)]
        assert entry["messages"] == sum(entry["causes"].values()) == len(report.per_experiment)
