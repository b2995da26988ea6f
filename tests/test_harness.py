"""Configuration precedence, ingestion, grid execution, and report files."""

import csv
import json
import statistics
from concurrent.futures import Future

import numpy as np
import pytest

from qsim import harness
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

    def test_pool_is_sized_to_the_grid(self, monkeypatch):
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlineExecutor)
        reports, _ = run_grid(small_config(policy="UDDM", workers="4"))
        assert len(reports) == 2
        assert sizes == [2]

    def test_fuzzy_override_file(self, tmp_path):
        spec = {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0]}}}
        fuzzy = tmp_path / "fuzzy.json"
        fuzzy.write_text(json.dumps(spec), encoding="utf-8")
        config = small_config(policy="UDDM", theta="0.6", fuzzy=str(fuzzy))
        reports, _ = run_grid(config)
        baseline, _ = run_grid(small_config(policy="UDDM", theta="0.6"))
        assert reports[0] != baseline[0]


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
        assert replayed.tolist() == [list(v.values) for v in direct]

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
        ],
        ids=["abbreviated-flag", "unknown-flag", "flag-without-value", "non-integer-length",
             "missing-subcommand"],
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
        assert error == "configuration error: seed must be a non-negative integer, got -3"
        assert list(tmp_path.iterdir()) == []

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--out-dir" in capsys.readouterr().out

    def test_nan_theta_exit_code(self, tmp_path, caplog):
        code = main(["run", "--theta", "nan", "--E", "2", "--T", "3",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert "theta must be positive, got nan" in error and "\n" not in error
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
            {"grid_points": "x"},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "height": "tall"}}},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "shrink": "wide"}}},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "lower": ["a", 0.7, 1.0, 1.0]}}},
            {"rules": 5},
            {"terms": ["low"]},
            {"rules": [{"antecedents": "abc", "consequent": "low"}]},
            {"grid_point": 5},
            {"grid_points": 50.9},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "hieght": 0.9}}},
            {"rules": [{"antecedents": ["medium", "low", "low"], "consequent": "medium",
                        "weight": 2}]},
            {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "lower": [0.6, 0.7, 1.0, 1.0],
                                "shrink": 0.9}}},
        ],
        ids=[
            "top-level-list", "grid-points-text", "height-text", "shrink-text",
            "lower-text", "rules-number", "terms-list", "antecedents-string",
            "unknown-top-level-key", "grid-points-fraction", "unknown-term-key",
            "unknown-rule-key", "lower-and-shrink",
        ],
    )
    def test_malformed_fuzzy_spec_exit_code(self, tmp_path, spec):
        fuzzy = tmp_path / "fuzzy.json"
        fuzzy.write_text(json.dumps(spec), encoding="utf-8")
        assert main([
            "run", "--fuzzy", str(fuzzy), "--E", "1", "--T", "2",
            "--out-dir", str(tmp_path / "out"),
        ]) == 1

    @pytest.mark.parametrize(
        "flag, content, code",
        [
            ("--config", b"policy = BM\nT = \xff5\n", 1),
            ("--fuzzy", b'{"grid_points": 5\xff}', 2),
            ("--fuzzy", b'{"grid_points": 5', 2),
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

    def test_non_utf8_sensor_log_validates(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        log.write_bytes(VALID_ROW.encode() + b"2004-02-28 00:58:46 3 1 19.3 3\xff8.4 45.0 2.7\n")
        assert main(["validate", "--source", str(log)]) == 0
        assert "rows=2 kept=1 dropped=1" in capsys.readouterr().out

    def test_env_override_reaches_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSIM_E", "2")
        monkeypatch.setenv("QSIM_OUT_DIR", str(tmp_path / "envout"))
        assert main(["run", "--policy", "BM", "--T", "4", "--theta", "0.6"]) == 0
        summary = (tmp_path / "envout" / "summary.csv").read_text()
        assert "BM" in summary
