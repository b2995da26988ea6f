"""Configuration precedence, ingestion, grid execution, and report files."""

import csv
import hashlib
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from qsim import harness, simulator
from qsim.errors import ConfigurationError
from qsim.harness import (
    DETAIL_COLUMNS,
    SUMMARY_COLUMNS,
    ingest_sensor_log,
    load_config,
    main,
    parse_config_file,
    run_grid,
    write_reports,
)

VALID_ROW = "2004-02-28 00:58:15 2 1 19.3 38.4 45.08 2.68742\n"

# Each configuration key: a non-default value and the field value it gives.
KEY_VALUES = {
    "policy": ("BM", ("BM",)),
    "T": ("7", (7,)),
    "theta": ("0.8", (0.8,)),
    "E": ("3", 3),
    "N": ("2", 2),
    "alpha": ("0.3", 0.3),
    "beta": ("0.4", 0.4),
    "window": ("20", 20),
    "seed": ("5", 5),
    "source": ("log.txt", "log.txt"),
    "profile": ("random-walk", "random-walk"),
    "out_dir": ("elsewhere", "elsewhere"),
    "workers": ("2", 2),
    "mote": ("4", 4),
    "fuzzy": ("spec.json", "spec.json"),
}


def longest_run(text):
    """The length of the longest run of one character repeated in `text`."""
    return max(len(run.group()) for run in re.finditer(r"(.)\1*", text))


def write_log(path, lines):
    path.write_text("".join(lines), encoding="utf-8")
    return path


class TestConfigParsing:
    def test_file_comments_and_spacing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# grid\npolicy = UDDM,BM\nT = 5, 10\ntheta=0.6\n\nseed = 9  # fixed\n",
            encoding="utf-8",
        )
        values = parse_config_file(cfg)
        assert values["policy"] == "UDDM,BM"
        assert values["t"] == "5, 10"
        assert values["seed"] == "9"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_log(tmp_path / "bad.cfg", ["velocity = 9\n"])
        with pytest.raises(ConfigurationError, match="unknown configuration key"):
            parse_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = write_log(tmp_path / "bad.cfg", ["policy UDDM\n"])
        with pytest.raises(ConfigurationError, match="expected 'key = value'"):
            parse_config_file(cfg)

    def test_precedence_cli_over_env_over_file(self, tmp_path):
        cfg = write_log(tmp_path / "run.cfg", ["theta = 0.5\n", "seed = 1\n", "e = 7\n"])
        merged = load_config(
            config_path=cfg,
            cli_overrides={"theta": "0.8"},
            environ={"QSIM_THETA": "0.7", "QSIM_SEED": "2"},
        )
        assert merged.theta == (0.8,)    # CLI beats env
        assert merged.seed == 2          # env beats file
        assert merged.E == 7             # file beats defaults

    @pytest.mark.parametrize("key", KEY_VALUES)
    def test_every_key_spelling_reaches_its_field(self, tmp_path, monkeypatch, key):
        raw, expected = KEY_VALUES[key]
        for spelling in {key.upper(), key.lower(), key.replace("_", "-")}:
            cfg = write_log(tmp_path / "run.cfg", [f"{spelling} = {raw}\n"])
            assert getattr(load_config(config_path=cfg, environ={}), key) == expected
        env_config = load_config(environ={f"QSIM_{key.upper()}": raw})
        assert getattr(env_config, key) == expected
        seen = []
        monkeypatch.setattr(harness, "run_grid", lambda config: (seen.append(config), ((), {}))[1])
        monkeypatch.setattr(harness, "write_reports", lambda reports, manifest, out_dir: tmp_path)
        assert main(["run", f"--{key.replace('_', '-')}", raw]) == 0
        assert getattr(seen[0], key) == expected

    def test_grid_axes_expand(self):
        config = load_config(cli_overrides={"policy": "UDDM,BM,PM", "t": "10,100,1000",
                                            "theta": "0.6,0.75", "e": "3"}, environ={})
        assert len(config.cells()) == 18

    def test_single_cell(self):
        config = load_config(cli_overrides={"e": "2"}, environ={})
        assert len(config.cells()) == 1

    def test_invalid_grid_fails_before_any_work(self):
        with pytest.raises(ConfigurationError):
            load_config(cli_overrides={"policy": "WAVELET"}, environ={})
        with pytest.raises(ConfigurationError):
            load_config(cli_overrides={"t": "0"}, environ={})
        with pytest.raises(ConfigurationError):
            load_config(cli_overrides={"e": "zero"}, environ={})
        with pytest.raises(ConfigurationError):
            load_config(cli_overrides={"workers": "0"}, environ={})


class TestIngestion:
    def test_empty_file(self, tmp_path):
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", []))
        assert len(result) == 0 and result.dropped == 0 and result.total_rows == 0

    def test_empty_file_gives_an_empty_array(self, tmp_path):
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", []))
        assert result.rows.shape == (0, 4) and result.rows.dtype == np.float64

    def test_single_valid_row(self, tmp_path):
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", [VALID_ROW]))
        assert len(result) == 1
        assert result.rows[0].tolist() == [19.3, 38.4, 45.08, 2.68742]

    def test_malformed_rows_dropped_and_counted(self, tmp_path):
        rows = [
            VALID_ROW,
            "2004-02-28 00:58:46 3 1 19.3 38.4\n",            # missing fields
            "2004-02-28 00:59:16 4 1 19.3 38.4 oops 2.7\n",   # unparsable light
        ]
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows))
        assert len(result) == 1 and result.dropped == 2 and result.total_rows == 3

    def test_non_finite_values_dropped(self, tmp_path):
        rows = [VALID_ROW, "2004-02-28 00:59:46 5 1 nan 38.4 45.0 2.7\n"]
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows))
        assert len(result) == 1 and result.dropped == 1

    def test_drops_are_counted_by_reason(self, tmp_path, caplog):
        rows = [
            VALID_ROW,
            "2004-02-28 00:58:46 3 1 19.3 38.4\n",                  # field_count
            "2004-02-28 00:58:46 3 1 19.3 38.4 45.0 2.7 9.9\n",     # field_count
            "2004-02-28 00:59:16 4 1 19.3 38.4 oops 2.7\n",         # unparsable
            "2004-02-28 00:59:16 4.5 1 19.3 38.4 45.0 2.7\n",       # unparsable epoch
            "2004-02-28 00:59:46 5 1 nan 38.4 45.0 2.7\n",          # non_finite
            "2004-02-28 00:59:46 6 1 19.3 inf 45.0 2.7\n",          # non_finite
            "2004-02-28 00:59:46 7 1 19.3 38.4 45.0 -inf\n",        # non_finite
        ]
        caplog.set_level("INFO", logger="qsim.harness")
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows))
        assert tuple(result.dropped_by_reason) == harness.DROP_REASONS
        assert result.dropped_by_reason == {"field_count": 2, "unparsable": 2, "non_finite": 3}
        assert (result.total_rows, len(result), result.dropped) == (8, 1, 7)
        assert "field_count=2, unparsable=2, non_finite=3" in caplog.text

    @pytest.mark.parametrize("row, reason", [
        ("2004-02-28 00:58:46 3 1 19.3 38.4\n", "field_count"),
        ("2004-02-28 00:59:16 4 x 19.3 38.4 45.0 2.7\n", "unparsable"),
        ("2004-02-28 00:59:46 5 1 19.3 38.4 45.0 nan\n", "non_finite"),
    ])
    def test_each_drop_reason_reaches_the_manifest_and_validate(
            self, tmp_path, capsys, row, reason):
        log = write_log(tmp_path / "log.txt", [VALID_ROW * 8, row])
        counts = dict.fromkeys(harness.DROP_REASONS, 0) | {reason: 1}
        assert main(["validate", "--source", str(log)]) == 0
        expected = ", ".join(f"{name}={n}" for name, n in counts.items())
        assert f"rows=9 kept=8 dropped=1 ({expected})" in capsys.readouterr().out
        assert main(["run", "--policy", "BM", "--T", "2", "--E", "1", "--source", str(log),
                     "--out-dir", str(tmp_path / "out")]) == 0
        ingest = json.loads((tmp_path / "out" / "manifest.json").read_text())["ingest"]
        assert ingest["dropped"] == 1 and ingest["dropped_by_reason"] == counts

    def test_sorted_by_epoch_then_mote(self, tmp_path):
        rows = [
            "2004-02-28 01:00:00 7 2 1.0 1.0 1.0 1.0\n",
            "2004-02-28 01:00:00 2 9 2.0 2.0 2.0 2.0\n",
            "2004-02-28 01:00:00 2 1 3.0 3.0 3.0 3.0\n",
            "2004-02-28 01:00:00 2 1 0.5 0.5 0.5 0.5\n",  # same (epoch, mote): file order
        ]
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows))
        assert result.rows[:, 0].tolist() == [3.0, 0.5, 2.0, 1.0]

    def test_per_mote_mode(self, tmp_path):
        rows = [
            "2004-02-28 01:00:00 1 1 1.0 1.0 1.0 1.0\n",
            "2004-02-28 01:00:01 2 2 2.0 2.0 2.0 2.0\n",
            "2004-02-28 01:00:02 3 1 3.0 3.0 3.0 3.0\n",
        ]
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows), mote=1)
        assert result.rows[:, 0].tolist() == [1.0, 3.0]
        assert result.mote == 1

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            ingest_sensor_log(tmp_path / "missing.txt")

    def test_keys_beyond_int64_and_negative_keep_epoch_mote_order(self, tmp_path):
        big = 2 ** 63
        keys = [(big, -big - 1), (-big - 1, big), (5, -3), (-7, 2), (big, -1), (5, -big - 1),
                (-big - 1, -big - 1), (0, 0)]
        rows = [f"2004-02-28 01:00:00 {epoch} {mote} {i}.0 0.0 0.0 0.0\n"
                for i, (epoch, mote) in enumerate(keys)]
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows))
        expected = sorted(range(len(keys)), key=keys.__getitem__)
        assert result.rows[:, 0].tolist() == [float(i) for i in expected]
        assert result.dropped == 0

    def test_malformed_row_of_another_mote_counts_as_dropped(self, tmp_path):
        rows = [
            "2004-02-28 01:00:00 1 1 1.0 1.0 1.0 1.0\n",
            "2004-02-28 01:00:01 2 2 2.0 oops 2.0 2.0\n",  # mote 2, malformed
            "2004-02-28 01:00:02 3 2 3.0 3.0 3.0 3.0\n",  # mote 2, valid: skipped, not dropped
        ]
        result = ingest_sensor_log(write_log(tmp_path / "log.txt", rows), mote=1)
        assert result.rows.tolist() == [[1.0] * 4]
        assert (result.total_rows, result.dropped) == (3, 1)

    def test_non_utf8_byte_in_a_parsed_field_drops_the_row(self, tmp_path):
        log = tmp_path / "log.txt"
        log.write_bytes(
            b"2004-02-28 01:00:00 1 1 1.0 1.0 1.0 1.0\n"
            b"2004-02-28 01:00:01 2 1 2.0 2\xff.0 2.0 2.0\n"  # a reading: dropped
            b"2004-02-28 01:00:02 3 \xe21 3.0 3.0 3.0 3.0\n"  # the mote: dropped
            b"2004-02-\xff28 01:00:03 4 1 4.0 4.0 4.0 4.0\n"  # the date is not parsed: kept
        )
        result = ingest_sensor_log(log)
        assert result.rows[:, 0].tolist() == [1.0, 4.0]
        assert (result.total_rows, result.dropped) == (4, 2)


def small_config(**overrides):
    base = {"policy": "UDDM,BM", "t": "5", "theta": "0.6,0.75", "e": "6", "seed": "3"}
    base.update(overrides)
    return load_config(cli_overrides=base, environ={})


class InlinePool:
    """What the inline pool saw: each pool's size, and each task's arguments and cells."""

    def __init__(self):
        self.sizes, self.args, self.tasks = [], [], []

    def clear(self):
        del self.sizes[:], self.args[:], self.tasks[:]


@pytest.fixture
def inline_pool(monkeypatch):
    """Runs the pool's initializer and each task in this process, at submission."""
    seen = InlinePool()

    class InlineExecutor:
        def __init__(self, max_workers, initializer, initargs):
            seen.sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            seen.args.append(args)
            seen.tasks.append([(c.policy, c.T, c.theta) for c in harness._WORKER[0][args[0]]])
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(harness, "_WORKER", None)  # restored after the test
    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
    return seen


class TestGridAndReports:
    def test_reports_match_grid_order_and_schema(self, tmp_path):
        config = small_config()
        reports, manifest = run_grid(config)
        assert len(reports) == 4
        out = write_reports(reports, manifest, tmp_path / "out")
        with (out / "summary.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == SUMMARY_COLUMNS
        assert len(rows) == 5
        for row, report in zip(rows[1:], reports):
            assert row[0] == report.policy
            assert int(row[1]) == report.T
            assert float(row[2]) == report.theta
            assert 0.0 < float(row[3]) <= 1.0
            assert float(row[4]) >= 0.0
            assert 1.0 <= float(row[5]) <= report.T
            assert int(row[6]) == report.message_count

    def test_summary_cells_equal_recomputation_from_details(self, tmp_path):
        config = small_config()
        reports, manifest = run_grid(config)
        out = write_reports(reports, manifest, tmp_path / "out")
        for report in reports:
            detail = out / f"detail_{report.policy}_{report.T}_{report.theta}.csv"
            with detail.open() as handle:
                rows = list(csv.DictReader(handle))
            assert set(rows[0]) == set(DETAIL_COLUMNS)
            assert len(rows) == report.message_count
            by_experiment: dict[int, list[dict]] = {}
            for row in rows:
                by_experiment.setdefault(int(row["experiment"]), []).append(row)
            assert len(by_experiment) == report.E
            first_stops = [int(events[0]["t_star"]) for events in by_experiment.values()]
            phi = statistics.fmean(t / report.T for t in first_stops)
            delta = statistics.fmean(float(row["magnitude"]) for row in rows)
            psi = statistics.fmean(report.T / len(events) for events in by_experiment.values())
            assert phi == report.phi
            assert delta == report.delta
            assert psi == report.psi

    def test_reruns_are_byte_identical(self, tmp_path):
        config = small_config()
        out1 = write_reports(*run_grid(config), tmp_path / "a")
        out2 = write_reports(*run_grid(config), tmp_path / "b")
        for name in ["summary.csv"] + [p.name for p in out1.glob("detail_*.csv")]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial = write_reports(*run_grid(small_config(workers="1")), tmp_path / "w1")
        parallel = write_reports(*run_grid(small_config(workers="3")), tmp_path / "w3")
        for path in sorted(serial.glob("*.csv")):
            assert path.read_bytes() == (parallel / path.name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        config = small_config()
        reports, manifest = run_grid(config)
        out = write_reports(reports, manifest, tmp_path / "out")
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["tool"] == "qsim"
        assert payload["seed"] == 3
        assert payload["config"]["policy"] == "UDDM,BM"
        assert payload["config"] == {
            "policy": "UDDM,BM", "T": "5", "theta": "0.6,0.75", "E": 6, "N": 1,
            "alpha": 0.5, "beta": 0.5, "window": 50, "seed": 3, "source": "synthetic",
            "profile": "drift", "out_dir": "out", "workers": 1, "mote": None, "fuzzy": None,
        }
        assert len(payload["dataset_checksum"]) == 64
        assert payload["runtime_seconds"] >= 0.0

    def test_pool_is_sized_to_the_grid(self, inline_pool, tmp_path):
        """One pool task per (policy, T) group, on min(workers, groups) workers, and a
        task is its group's index alone; a grid of one group runs in-process at any
        worker count."""
        run_grid(small_config(t="5,8", workers="4"))  # 8 cells in 4 groups
        assert inline_pool.sizes == [4]
        assert sorted(inline_pool.args) == [(0,), (1,), (2,), (3,)]
        assert sorted(len(task) for task in inline_pool.tasks) == [2, 2, 2, 2]  # whole groups
        group_tasks = inline_pool.tasks[:]
        inline_pool.clear()
        # More workers than groups: the pool is no larger than the groups, and they stay whole.
        run_grid(small_config(t="5,8", workers="8"))
        assert inline_pool.sizes == [4]
        assert inline_pool.tasks == group_tasks
        inline_pool.clear()
        run_grid(small_config(policy="UDDM,BM,PM", theta="0.6", workers="2"))
        assert inline_pool.sizes == [2]
        inline_pool.clear()
        # One group, two cells: no pool.
        pooled = write_reports(*run_grid(small_config(policy="UDDM", workers="4")), tmp_path / "w4")
        serial = write_reports(*run_grid(small_config(policy="UDDM", workers="1")), tmp_path / "w1")
        assert inline_pool.sizes == [] and inline_pool.tasks == []
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert len(names) == 3
        for name in names:
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()
        run_grid(small_config(policy="UDDM", theta="0.6", workers="2"))
        assert inline_pool.sizes == []

    def test_tasks_go_largest_first_and_reports_keep_grid_order(self, inline_pool):
        """Tasks are submitted by T, largest first, equal groups in grid order: every
        group holds all of theta and shares E and N, so T orders them as
        cells x E x N x T would. The reports are joined in grid order all the same."""
        reports, _ = run_grid(small_config(t="5,8", workers="2"))
        assert inline_pool.tasks == [[(policy, T, 0.6), (policy, T, 0.75)]
                                     for T in (8, 5) for policy in ("UDDM", "BM")]
        grid = [(policy, T, theta) for policy in ("UDDM", "BM") for T in (5, 8) for theta in (0.6, 0.75)]
        assert [(r.policy, r.T, r.theta) for r in reports] == grid
        assert reports == run_grid(small_config(t="5,8", workers="1"))[0]

    def test_replay_tasks_carry_only_an_index(self, inline_pool, tmp_path):
        """A replayed grid ships the workers the one table of T blocks the serial
        path reads, once, and no task carries the dataset."""
        log = tmp_path / "log.txt"
        assert main(["gen", "--out", str(log), "--length", "400", "--seed", "6"]) == 0
        overrides = {"policy": "UDDM,BM,PM", "t": "5,8", "theta": "0.6", "e": "4",
                     "source": str(log), "workers": "2"}
        reports, _ = run_grid(load_config(cli_overrides=overrides, environ={}))
        assert len(inline_pool.args) == 6
        assert all(len(pickle.dumps(args, pickle.HIGHEST_PROTOCOL)) <= 64 for args in inline_pool.args)
        groups, streams, engine = harness._WORKER
        assert len(groups) == 6 and engine is None
        assert {T: block.shape for T, block in streams.items()} == {5: (4, 8, 4), 8: (4, 11, 4)}
        serial = run_grid(load_config(cli_overrides={**overrides, "workers": "1"}, environ={}))[0]
        assert reports == serial

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_streams_are_built_once_per_T(self, monkeypatch, workers):
        """Every (policy, T) group of one T runs over the same streams, built once in
        the calling process, which never sets the workers' inputs."""
        lengths = []
        build = simulator._synthetic_block

        def counted(seeds, length, *args, **kwargs):
            lengths.append(length)
            return build(seeds, length, *args, **kwargs)

        monkeypatch.setattr(simulator, "_synthetic_block", counted)
        reports, _ = run_grid(small_config(policy="UDDM,BM,PM", t="5,8,13", workers=workers))
        assert len(reports) == 18
        assert sorted(lengths) == [8, 11, 16]  # N x (T + 3) vectors per experiment
        assert harness._WORKER is None

    def test_fuzzy_override_file(self, tmp_path):
        spec = {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0]}}}
        fuzzy = tmp_path / "fuzzy.json"
        fuzzy.write_text(json.dumps(spec), encoding="utf-8")
        config = small_config(policy="UDDM", theta="0.6", fuzzy=str(fuzzy))
        reports, _ = run_grid(config)
        baseline, _ = run_grid(small_config(policy="UDDM", theta="0.6"))
        assert reports[0] != baseline[0]


def row_by_row(events):
    """The detail rows as one f-string per row: the reference `_detail_blocks` must match."""
    causes = events.causes
    columns = (events.experiment, events.t_star, events.triggered, events.magnitude, events.g)
    return "".join(
        f"{experiment},{t_star},{causes[fired]},{magnitude!r},{'' if g != g else repr(g)}\n"
        for experiment, t_star, fired, magnitude, g in zip(*(c.tolist() for c in columns))
    ).encode("utf-8")


class TestDetailFormatter:
    """`_detail_blocks`, which formats each distinct (experiment, t*, cause)
    prefix of a block once, against the row-by-row reference on hand-built
    tables: block edges, the int64 key's edge, all-distinct prefixes, every
    kind of g column, and magnitudes at which `repr` switches notation."""

    BLOCK = harness._DETAIL_BLOCK
    ID_MAX = simulator._ID_MAX
    # repr switches to exponent notation below 1e-4 and from 1e16 on.
    MAGNITUDES = (-0.0, 0.0, 5e-324, 1e-5, 1e-4, 1e16, 9999999999999998.0, 0.1, 2.5, 1.7976931348623157e308)

    @staticmethod
    def table(experiment, t_star, triggered, magnitude, g, cause="threshold"):
        n = len(experiment)
        ones = np.ones(n, np.int32)
        return simulator.EventColumns(
            np.asarray(experiment, np.int32), ones, ones, np.asarray(t_star, np.int32),
            np.asarray(triggered, bool), np.asarray(magnitude, float), np.asarray(g, float), cause)

    @classmethod
    def random_table(cls, n, seed, g="mixed"):
        rng = np.random.default_rng(seed)
        experiment = np.sort(rng.integers(0, max(1, n // 50), n))
        t_star = rng.integers(1, 6, n)
        magnitude = np.where(rng.random(n) < 0.2, rng.choice(cls.MAGNITUDES, n), rng.exponential(3.0, n))
        scores = {"nan": np.full(n, np.nan), "finite": rng.random(n),
                  "mixed": rng.choice([np.nan, 0.0, -0.0, 0.5, 0.8320869184469154], n)}[g]
        return cls.table(experiment, t_star, rng.random(n) < 0.5, magnitude, scores)

    def check(self, events):
        blocks = list(harness._detail_blocks(events))
        assert b"".join(blocks) == row_by_row(events)
        assert [block.count(b"\n") for block in blocks] == [
            min(self.BLOCK, len(events) - start) for start in range(0, len(events), self.BLOCK)]

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 2 * 4096 + 1])
    def test_block_edges(self, n):
        assert self.BLOCK == 4096
        self.check(self.random_table(n, seed=n))

    @pytest.mark.parametrize("g", ["nan", "finite", "mixed"])
    def test_every_kind_of_g_column(self, g):
        events = self.random_table(3 * self.BLOCK, seed=7, g=g)
        self.check(events)
        if g == "mixed":
            assert {0.0, -0.0} <= set(events.g.tolist()) and np.isnan(events.g).any()

    def test_largest_ids_at_the_key_edge(self):
        """Experiment and t* at 2**31 - 2 and 2**31 - 1 make keys up to 2**63 - 1,
        beside small ids in the same block, so the span is 2**32."""
        big = (self.ID_MAX - 1, self.ID_MAX)
        ids = [(e, t, fired) for e in (0, 1, *big) for t in (0, 1, *big) for fired in (False, True)]
        experiment, t_star, triggered = zip(*ids)
        n = len(ids)
        events = self.table(experiment, t_star, triggered, np.resize(self.MAGNITUDES, n),
                            np.resize([np.nan, 0.25, -0.0], n))
        self.check(events)
        text = b"".join(harness._detail_blocks(events))
        assert f"{self.ID_MAX},{self.ID_MAX},threshold,".encode() in text
        assert f"{self.ID_MAX},0,deadline,".encode() in text

    def test_every_prefix_distinct(self):
        """Each row its own experiment, as BM writes at T 1: no prefix repeats."""
        n = 2 * self.BLOCK + 3
        rng = np.random.default_rng(3)
        events = self.table(np.arange(n), np.ones(n), np.ones(n, bool), rng.exponential(1.0, n),
                            np.full(n, np.nan), cause="any-change")
        self.check(events)

    def test_one_prefix_for_a_whole_block(self):
        n = self.BLOCK + 1
        self.check(self.table(np.full(n, 9), np.full(n, 3), np.zeros(n, bool),
                              np.resize(self.MAGNITUDES, n), np.full(n, np.nan)))

    def test_notation_switches(self):
        n = len(self.MAGNITUDES)
        events = self.table(np.zeros(n), np.ones(n), np.zeros(n, bool), self.MAGNITUDES, self.MAGNITUDES)
        self.check(events)
        rows = b"".join(harness._detail_blocks(events)).decode().splitlines()
        assert [row.split(",")[3] for row in rows[:6]] == ["-0.0", "0.0", "5e-324", "1e-05", "0.0001", "1e+16"]


class TestPooledDetail:
    """Detail rows formatted in the pool workers, on cells of several blocks:
    BM (g always empty) and UDDM with staggered nodes (g both empty and set)."""

    OVERRIDES = {"policy": "BM,UDDM", "t": "5", "theta": "0.6", "e": "1500", "n": "4",
                 "seed": "11"}

    @pytest.fixture(scope="class")
    def pooled(self):
        return run_grid(load_config(cli_overrides={**self.OVERRIDES, "workers": "2"}, environ={}))

    @staticmethod
    def detail_bytes(out):
        return {p.name: p.read_bytes() for p in sorted(out.glob("detail_*.csv"))}

    def test_cells_span_several_blocks(self, pooled):
        reports, _ = pooled
        bm, uddm = (r.per_experiment for r in reports)
        assert min(len(bm), len(uddm)) > 2 * harness._DETAIL_BLOCK
        assert np.isnan(bm.g).all()
        assert 0 < np.isnan(uddm.g).sum() < len(uddm)
        assert [len(r.detail) for r in reports] == [
            -(-len(r.per_experiment) // harness._DETAIL_BLOCK) for r in reports]

    def test_detail_bytes_do_not_depend_on_the_worker_count(self, pooled, tmp_path):
        serial = run_grid(load_config(cli_overrides={**self.OVERRIDES, "workers": "1"}, environ={}))
        assert all(r.detail is None for r in serial[0])
        assert pooled[0] == serial[0]  # the detail text takes no part in equality
        written = self.detail_bytes(write_reports(*pooled, tmp_path / "w2"))
        assert written == self.detail_bytes(write_reports(*serial, tmp_path / "w1"))
        assert [text.count(b"\n") for text in written.values()] == [
            1 + r.message_count for r in pooled[0]]

    def test_pooled_columns_are_read_only(self, pooled):
        for report in pooled[0]:
            events = report.per_experiment
            for name in ("experiment", "node", "step", "t_star", "triggered", "magnitude", "g"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(events, name)[0] = getattr(events, name)[-1]

    def test_pickled_pooled_reports_write_the_same_bytes(self, pooled, tmp_path):
        reports, manifest = pooled
        copies = pickle.loads(pickle.dumps(reports, pickle.HIGHEST_PROTOCOL))
        assert [c.detail for c in copies] == [r.detail for r in reports]
        assert self.detail_bytes(write_reports(copies, manifest, tmp_path / "copy")) == \
            self.detail_bytes(write_reports(reports, manifest, tmp_path / "orig"))


class TestSharedDetail:
    """BM never reads theta, so each (BM, T) group's cells share one table and
    one detail text, and their detail files are written once and copied."""

    OVERRIDES = {"policy": "BM", "t": "5,7", "theta": "0.6,0.75,0.9", "e": "40", "n": "2",
                 "seed": "5"}

    def test_a_group_task_ships_one_table_and_one_text(self, monkeypatch):
        cells = load_config(cli_overrides={**self.OVERRIDES, "t": "5"}, environ={}).cells()
        block = simulator._cell_streams(cells[0], None)
        # A worker's inputs, as the pool initializer sets them: the group, and its first cell alone.
        monkeypatch.setattr(harness, "_WORKER", ((cells, cells[:1]), {5: block}, None))
        shipped = pickle.dumps(harness._run_group_task(0), pickle.HIGHEST_PROTOCOL)
        reports = pickle.loads(shipped)
        assert len(reports) == 3
        assert reports[0].per_experiment is reports[1].per_experiment is reports[2].per_experiment
        assert reports[0].detail is reports[1].detail is reports[2].detail
        one_cell = pickle.dumps(harness._run_group_task(1), pickle.HIGHEST_PROTOCOL)
        assert len(shipped) <= 1.1 * len(one_cell)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_shared_files_equal_each_report_written_alone(self, tmp_path, workers):
        reports, manifest = run_grid(load_config(cli_overrides={**self.OVERRIDES, "workers": workers},
                                                 environ={}))
        for T in (5, 7):  # at workers 2 one pool task per group, so the pooled reports share too
            assert len({id(r.per_experiment) for r in reports if r.T == T}) == 1
        shared = TestPooledDetail.detail_bytes(write_reports(reports, manifest, tmp_path / "shared"))
        alone = {}
        for i, report in enumerate(reports):
            alone.update(TestPooledDetail.detail_bytes(
                write_reports([report], manifest, tmp_path / f"alone{i}")))
        assert shared == alone
        assert len(shared) == 6 and len(set(shared.values())) == 2

    def test_a_one_group_sweep_shares_on_several_workers(self, tmp_path):
        """A grid of one group runs in-process, so its cells share at any worker count."""
        reports, manifest = run_grid(load_config(cli_overrides={**self.OVERRIDES, "t": "5",
                                                                "workers": "2"}, environ={}))
        assert reports[0].per_experiment is reports[1].per_experiment is reports[2].per_experiment
        files = TestPooledDetail.detail_bytes(write_reports(reports, manifest, tmp_path))
        assert len(files) == 3 and len(set(files.values())) == 1


class TestReplayDigest:
    """Report bytes of a replayed log pinned by sha256, beside the manifest's
    ingest block. The log is `qsim gen` output spread over 3 motes with
    unsorted, repeated epochs, plus malformed and non-finite rows, and is
    more than 2 x 4,096 lines long. Recorded before ingestion read the log a
    block at a time."""

    DIGEST = "519ab24968141076b93b9559cb7bfb717be15262570e5dc39127b1164e0afe91"
    INGEST = {"rows": 9009, "kept": 9000, "dropped": 9,
              "dropped_by_reason": {"field_count": 3, "unparsable": 3, "non_finite": 3},
              "mode": "merged", "mote": None}

    @pytest.fixture(scope="class")
    def replay_log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("replay") / "log.txt"
        assert main(["gen", "--out", str(path), "--length", "9000", "--seed", "23",
                     "--profile", "random-walk"]) == 0
        bad = ["2004-02-28 01:00:00 5 1 19.3 38.4 45.0\n",          # field_count
               "2004-02-28 01:00:00 5 2 19.3 38.4 oops 2.7\n",      # unparsable
               "2004-02-28 01:00:00 5 3 19.3 nan 45.0 2.7\n",       # non_finite
               "2004-02-28 01:00:00 5 1 19.3 38.4 45.0 2.7 1.0\n",  # field_count
               "2004-02-28 01:00:00 5 2 19.3 38.4 45.0 2.7x\n",     # unparsable
               "2004-02-28 01:00:00 5 3 inf 38.4 45.0 2.7\n",       # non_finite
               "2004-02-28 01:00:00 5\n",                           # field_count
               "2004-02-28 01:00:00 1_0x 1 19.3 38.4 45.0 2.7\n",   # unparsable
               "2004-02-28 01:00:00 5 1 19.3 38.4 45.0 -inf\n"]     # non_finite
        lines = []
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(keepends=True)):
            date, time, _, _, *readings = line.split()
            # Each (epoch, mote) key appears 3 times, 3,000 rows apart.
            lines.append(f"{date} {time} {i * 37 % 3000} {i % 3 + 1} {' '.join(readings)}\n")
            if i % 1000 == 999:
                lines.append(bad[i // 1000])
        path.write_text("".join(lines), encoding="utf-8")
        assert len(lines) > 2 * 4096
        return path

    @pytest.mark.parametrize("workers", [1, 2])
    def test_summary_detail_and_ingest_digest(self, tmp_path, replay_log, workers):
        config = load_config(cli_overrides={
            "policy": "UDDM,BM,PM", "T": "5,100", "theta": "0.6,0.75", "E": "30", "N": "3",
            "seed": "7", "source": str(replay_log), "workers": str(workers),
            "out-dir": str(tmp_path / "out")}, environ={})
        reports, manifest = run_grid(config)
        out = write_reports(reports, manifest, config.out_dir)
        assert manifest["ingest"] == self.INGEST
        digest = hashlib.sha256(json.dumps(manifest["ingest"], sort_keys=True).encode())
        for path in [out / "summary.csv", *sorted(out.glob("detail_*.csv"))]:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert digest.hexdigest() == self.DIGEST


class TestCli:
    def test_run_gen_validate_round_trip(self, tmp_path, capsys):
        log = tmp_path / "stream.txt"
        assert main(["gen", "--out", str(log), "--length", "64", "--seed", "4"]) == 0
        assert main(["validate", "--source", str(log)]) == 0
        out = capsys.readouterr().out
        assert "rows=64 kept=64 dropped=0" in out
        code = main([
            "run", "--policy", "BM", "--T", "5", "--theta", "0.6", "--E", "4",
            "--source", str(log), "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert (tmp_path / "out" / "detail_BM_5_0.6.csv").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_generated_file_replays_like_the_synthetic_stream(self, tmp_path):
        from qsim.simulator import generate_synthetic_stream

        log = tmp_path / "stream.txt"
        main(["gen", "--out", str(log), "--length", "32", "--seed", "8"])
        replayed = ingest_sensor_log(log).rows
        direct = generate_synthetic_stream(8, 32, dims=4, profile="drift")
        assert replayed.tobytes() == direct.tobytes()

    def test_configuration_error_exit_code(self):
        assert main(["run", "--policy", "NOPE"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--t", "5", "--E", "2"],
            ["run", "--velocity", "9"],
            ["run", "--E"],
            ["gen", "--out", "stream.txt", "--length", "abc"],
            [],
            ["run", "--theta", ","],
        ],
        ids=["abbreviated-flag", "unknown-flag", "flag-without-value", "non-integer-length",
             "missing-subcommand", "empty-grid-axis"],
    )
    def test_usage_error_exit_code(self, tmp_path, monkeypatch, caplog, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith("configuration error: ") and "\n" not in error
        assert list(tmp_path.iterdir()) == []

    def test_negative_gen_seed_exit_code(self, tmp_path, monkeypatch, caplog):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--out", "stream.txt", "--length", "5", "--seed", "-3"]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == "configuration error: seed must be >= 0, got -3"
        assert list(tmp_path.iterdir()) == []

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--out-dir" in capsys.readouterr().out

    @pytest.mark.parametrize("theta, shown", [("nan", "nan"), ("inf", "inf"), ("1e400", "inf")])
    def test_non_finite_theta_exit_code(self, tmp_path, caplog, theta, shown):
        """At an infinite threshold every send would be a deadline send; float reads 1e400 as inf."""
        code = main(["run", "--theta", theta, "--E", "2", "--T", "3",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == f"configuration error: theta must be positive and finite, got {shown}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axes",
        [
            ["--policy", "BM,BM", "--T", "5", "--theta", "0.6"],
            ["--policy", "BM", "--T", "5,5", "--theta", "0.6"],
            ["--policy", "BM", "--T", "5", "--theta", "0.6,0.60"],
            ["--policy", "BM", "--T", "5,5", "--theta", "0.6,0.60"],
        ],
        ids=["policy", "T", "theta", "T-and-theta"],
    )
    def test_repeated_grid_axis_value_exit_code(self, tmp_path, caplog, axes):
        code = main(["run", *axes, "--E", "2", "--out-dir", str(tmp_path / "out")])
        assert code == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "repeats" in error and "\n" not in error
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lines", [[], ["2004-02-28 00:58:46 3 1 19.3 38.4\n"] * 3],
                             ids=["empty", "all-malformed"])
    def test_log_without_readings_exit_code(self, tmp_path, caplog, lines):
        log = write_log(tmp_path / "log.txt", lines)
        code = main(["run", "--source", str(log), "--E", "2", "--T", "3",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2
        messages = [r.getMessage() for r in caplog.records]
        assert any("holds 0 vectors" in m for m in messages)
        assert not any("wrapping around" in m for m in messages)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_log_too_short_for_the_largest_T_exit_code(self, tmp_path, monkeypatch, caplog, workers):
        """Every T's streams are built before any group runs, so a log too short
        for the largest T ends the run at once, alike at every worker count."""
        log = tmp_path / "log.txt"
        assert main(["gen", "--out", str(log), "--length", "40", "--seed", "2"]) == 0

        def no_group(*args, **kwargs):
            raise AssertionError("a group ran")

        monkeypatch.setattr(harness, "_run_group", no_group)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_group)
        code = main(["run", "--source", str(log), "--policy", "UDDM,BM", "--T", "5,50", "--E", "2",
                     "--workers", workers, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == ("I/O error: replay data holds 40 vectors but each experiment needs 53 "
                         "(shortfall 13): 1 node(s) x (T=50 + 3)")
        assert not (tmp_path / "out").exists()

    def test_io_error_exit_code(self, tmp_path):
        assert main(["validate", "--source", str(tmp_path / "absent.txt")]) == 2
        assert main([
            "run", "--source", str(tmp_path / "absent.txt"), "--E", "2", "--T", "3",
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            [{"terms": {}}],
            {"grid_points": 101},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "height": "tall"}}},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "shrink": "wide"}}},
            {"terms": {"high": {"upper": [0.555, 0.556, 1.0, 1.0], "lower": [0.551, 0.559, 1.0, 1.0]}}},
            {"rules": 5},
            {"terms": ["low"]},
            {"rules": [{"antecedents": "abc", "consequent": "low"}]},
            {"grid_point": 5},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "hieght": 0.9}}},
            {"rules": [{"antecedents": ["medium", "low", "low"], "consequent": "medium",
                        "weight": 2}]},
            {"terms": {"high": {"upper": [0.55, 0.8, 1, 1], "height": True}}},
            {"terms": {"high": {"upper": ["0.55", "0.8", "1", "1e0"]}}},
            {"terms": {"high": {"upper": [0.55, 0.8, 1, 1], "height": 10**400}}},
            {"terms": {"medium": {"upper": [0.501, 0.502, 0.503, 0.504]}}},
            {"terms": {"high": 5}},
            {"terms": {"high": {"height": 0.9}}},
            {"terms": {"high": None}},
        ],
        ids=[
            "top-level-list", "removed-grid-points", "height-text", "shrink-text",
            "removed-lower", "rules-number", "terms-list", "antecedents-string",
            "unknown-top-level-key", "unknown-term-key", "unknown-rule-key",
            "height-true", "corner-text", "height-huge-int", "zero-mass-term",
            "term-not-an-object", "term-without-upper", "term-null",
        ],
    )
    def test_malformed_fuzzy_spec_exit_code(self, tmp_path, caplog, request, spec):
        fuzzy = tmp_path / "fuzzy.json"
        fuzzy.write_text(json.dumps(spec), encoding="utf-8")
        assert main([
            "run", "--fuzzy", str(fuzzy), "--E", "1", "--T", "2",
            "--out-dir", str(tmp_path / "out"),
        ]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith("configuration error: ") and "\n" not in error
        # The centroid grid size and a term's explicit lower shape are not settings.
        if request.node.callspec.id.startswith("removed-"):
            assert error.startswith("configuration error: unknown keys"), error

    @pytest.mark.parametrize(
        "flag, content, code",
        [
            ("--config", b"policy = BM\nT = \xff5\n", 1),
            ("--fuzzy", b'{"terms": 5\xff}', 2),
            ("--fuzzy", b'{"terms": 5', 2),
            ("--fuzzy", b"[" * 100_000, 2),
        ],
        ids=["config-not-utf8", "fuzzy-not-utf8", "fuzzy-invalid-json", "fuzzy-nested-too-deep"],
    )
    def test_unreadable_input_file_exit_code(self, tmp_path, capsys, caplog, flag, content, code):
        path = tmp_path / "input"
        path.write_bytes(content)
        assert main(["run", flag, str(path), "--E", "1", "--T", "2",
                     "--out-dir", str(tmp_path / "out")]) == code
        (error,) = [r for r in caplog.records if r.levelname == "ERROR"]
        assert str(path) in error.getMessage() and "\n" not in error.getMessage()
        assert error.exc_info is None and "Traceback" not in "".join(capsys.readouterr())
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec",
        [
            {"terms": json.loads("[" * 900 + "]" * 900)},
            {"rules": [{"antecedents": ["low"] * 300, "consequent": "low"}]},
            {"rules": [{"antecedents": ["x" * 5000, "low", "low"], "consequent": "y" * 5000}]},
            {"rules": [json.loads("[" * 900 + "]" * 900)]},
            {"rules": [{"antecedents": "z" * 5000, "consequent": "low"}]},
            {"rules": [{"antecedents": ["low"] * 3, "consequent": "low", "k" * 5000: 1}]},
            {"terms": {"x" * 5000: {}, "y" * 5000: {}}},
            {"terms": {"high": {"upper": list(range(500))}}},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0],
                                "height": json.loads("[" * 900 + "]" * 900)}}},
            {"terms": list(range(1000))},
        ],
        ids=[
            "terms-nested-900-deep", "rule-300-antecedents", "rule-long-labels",
            "rule-nested-900-deep", "antecedents-long-string", "rule-long-unknown-key",
            "long-unknown-term-labels", "upper-500-corners", "height-nested-900-deep",
            "terms-long-list",
        ],
    )
    def test_fuzzy_spec_error_echoes_a_short_value(self, tmp_path, capsys, caplog, spec):
        fuzzy = tmp_path / "fuzzy.json"
        fuzzy.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["run", "--fuzzy", str(fuzzy), "--E", "1", "--T", "2",
                     "--out-dir", str(tmp_path / "out")]) == 1
        (error,) = [r for r in caplog.records if r.levelname == "ERROR"]
        message = error.getMessage()
        assert message.startswith("configuration error: ")
        assert "\n" not in message and len(message) <= 200, message
        assert longest_run(message) <= 40, message  # the value itself is echoed cut short
        assert "Traceback" not in "".join(capsys.readouterr())

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--policy", "x" * 5000], None),
            (["--E", "9" * 4000], None),
            (["--policy", ",".join(["y" * 3000] * 2)], None),
            (["--T", "z" * 5000], None),
            ([], "w" * 5000 + "\n"),
            ([], "k" * 5000 + " = 1\n"),
            ([], "policy = " + "x" * 5000 + "\n"),
            ([], "E = " + "9" * 4000 + "\n"),
        ],
        ids=["cli-policy", "cli-E-out-of-bounds", "cli-repeated-policy", "cli-T-not-an-integer",
             "file-bad-line", "file-unknown-key", "file-policy", "file-E-out-of-bounds"],
    )
    def test_long_config_value_error_echoes_a_short_value(self, tmp_path, capsys, caplog, argv, config):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config, encoding="utf-8")
            argv = ["--config", str(path), *argv]
        assert main(["run", *argv, "--out-dir", str(tmp_path / "out")]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith("configuration error: ")
        assert "\n" not in error and len(error) <= 200, error
        assert longest_run(error) <= 40, error  # the value itself is echoed cut short
        assert "Traceback" not in "".join(capsys.readouterr())
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, code, start",
        [
            (["run", "--" + "v" * 5000], 1, "configuration error: qsim: unrecognized arguments: --vvv"),
            (["run", "--source", "s" * 3000], 2, "I/O error: [Errno 36] File name too long: "),
        ],
        ids=["unknown-long-flag", "long-source-path"],
    )
    def test_every_error_line_is_cut_to_200_characters(self, tmp_path, argv, code, start):
        # The whole stderr line, the logging format's prefix included.
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "qsim", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == code
        (line,) = done.stderr.splitlines()
        assert line.startswith(f"ERROR qsim.harness: {start}"), line
        assert len(line) == 200 and line.endswith("..."), len(line)

    @pytest.mark.parametrize("module", ["qsim", "qsim.harness"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", module, "run", "--policy", "BM,UDDM", "--T", "3", "--E", "2",
             "--workers", "2", "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "wrote 2 report(s)" in done.stdout
        assert sorted(p.name for p in out.iterdir()) == [
            "detail_BM_3_0.6.csv", "detail_UDDM_3_0.6.csv", "manifest.json", "summary.csv"]
        bad = subprocess.run([sys.executable, "-m", module, "run", "--policy", "NOPE"],
                             env=env, capture_output=True, text=True, timeout=120)
        assert bad.returncode == 1 and "configuration error" in bad.stderr

    def test_non_utf8_sensor_log_validates(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        log.write_bytes(VALID_ROW.encode() + b"2004-02-28 00:58:46 3 1 19.3 3\xff8.4 45.0 2.7\n")
        assert main(["validate", "--source", str(log)]) == 0
        assert "rows=2 kept=1 dropped=1" in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["E", "N", "T"])
    def test_id_beyond_int32_exit_code(self, tmp_path, caplog, key):
        # 2**31 is rejected by the bounds check, before anything is allocated.
        out = tmp_path / "out"
        assert main(["run", f"--{key}", str(2**31), "--out-dir", str(out)]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error == f"configuration error: {key} must lie in [1, 2147483647], got {2**31}"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 1.40 TiB")],
                             ids=["bare", "numpy-style"])
    def test_out_of_memory_exit_code(self, tmp_path, monkeypatch, caplog, exc):
        def exhausted(config):
            raise exc

        monkeypatch.setattr(harness, "run_grid", exhausted)
        assert main(["run", "--out-dir", str(tmp_path / "out")]) == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith("out of memory: ") and "\n" not in error
        assert str(exc) in error

    def test_window_above_T_acts_as_T(self, tmp_path):
        grid = ["--policy", "UDDM,BM,PM", "--T", "12", "--theta", "0.6", "--E", "3", "--N", "2",
                "--profile", "random-walk"]
        for window in ("12", str(10**20)):
            assert main(["run", *grid, "--window", window, "--out-dir", str(tmp_path / window)]) == 0
        written = [sorted((p.name, p.read_bytes()) for p in (tmp_path / w).glob("*.csv"))
                   for w in ("12", str(10**20))]
        assert len(written[0]) == 4 and written[0] == written[1]

    def test_env_override_reaches_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSIM_E", "2")
        monkeypatch.setenv("QSIM_OUT_DIR", str(tmp_path / "envout"))
        assert main(["run", "--policy", "BM", "--T", "4", "--theta", "0.6"]) == 0
        summary = (tmp_path / "envout" / "summary.csv").read_text()
        assert "BM" in summary
