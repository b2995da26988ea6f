"""What the benchmark's tracer (bench/tracer.py) reads of the package.

The tracer wraps module and class attributes by name and reads ingestion
counts off the result with a default of 0, so a renamed or deleted name would
not fail a traced run: it would be listed absent, or read as 0. These tests
load the tracer by file path, without changing it, and pin what it relies on.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qsim.harness import ingest_sensor_log

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("qsim_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
