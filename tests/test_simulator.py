"""Experiment driver: determinism, metrics, staggering, and the brute-force oracle."""

import hashlib
import json
import pickle
import random
import statistics
import weakref
from dataclasses import replace
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import harness, simulator
from qsim.errors import ConfigurationError, IngestionError, InvariantViolation, StreamTruncationError
from qsim.harness import load_config, main, run_grid, write_reports
from qsim.policies import CAUSE_DEADLINE, CAUSE_THRESHOLD, BmPolicy, EpochState, build_policy, combine_pods
from qsim.simulator import (
    STREAM_PROFILES,
    DisseminationEvent,
    EventColumns,
    ExperimentConfig,
    generate_synthetic_stream,
    run_cell,
    run_experiment,
)
from qsim.synopsis import DataVector
from qsim.t2fls import InferenceEngine, default_engine, engine_from_config

from reference_sim import reference_trace
from scalar_synopsis import Synopsis, update_quantum, update_synopsis


def replay_cell(experiments, T):
    """BM over hand-built 1-D experiments, each the bootstrap value then one value per round.

    BM sends exactly when the running mean moves, so a value equal to the
    current mean holds and any other value sends.
    """
    dataset = []
    for values in experiments:
        assert len(values) == T + 1
        dataset.extend(DataVector((float(v),)) for v in values + [0.0, 0.0])  # 2 unread slack
    config = ExperimentConfig(policy="BM", T=T, theta=0.6, E=len(experiments), source="replay")
    return run_cell(config, dataset=dataset)


# Means 0, 1, 2, 3, 4 reached at rounds 2, 5, 7 and 9: x = m + (m' - m) * count.
FOUR_SENDS = [0, 0, 3, 1, 1, 7, 2, 10, 3, 13, 4]


class TestMetrics:
    def test_phi_all_deadline(self):
        report = replay_cell([[0] * 11] * 3, T=10)
        assert [e.t_star for e in report.per_experiment] == [10, 10, 10]
        assert report.phi == 1.0

    def test_phi_direct_formula(self):
        # First sends at t* = 5 (the mean moves 0 -> 1) and at the deadline.
        report = replay_cell([[0, 0, 0, 0, 0, 6, 1, 1, 1, 1, 1], [0] * 11], T=10)
        assert [e.t_star for e in report.per_experiment] == [5, 10]
        assert report.phi == 0.75
        assert report.delta == 0.5
        assert report.psi == 10.0

    def test_delta_trivials(self):
        assert replay_cell([[0, 0, 0], [0, 0, 0]], T=2).delta == 0.0
        # The mean moves 0 -> 10 -> 30: magnitudes 10 and 20.
        report = replay_cell([[0, 20, 70]], T=2)
        assert [e.magnitude for e in report.per_experiment] == [10.0, 20.0]
        assert report.delta == 15.0

    def test_psi_formula(self):
        every_round = replay_cell([list(range(11))], T=10)
        assert every_round.message_count == 10 and every_round.psi == 1.0
        four = replay_cell([FOUR_SENDS], T=10)
        assert [e.step for e in four.per_experiment] == [2, 5, 7, 9]
        assert four.psi == 2.5
        assert replay_cell([[0] * 11], T=10).psi == 10.0
        # psi averages T / sends over the experiments
        assert replay_cell([list(range(11)), FOUR_SENDS, [0] * 11], T=10).psi == 4.5


class TestSyntheticStreams:
    def test_same_seed_identical(self):
        a = generate_synthetic_stream(5, 100, dims=3, profile="random-walk")
        b = generate_synthetic_stream(5, 100, dims=3, profile="random-walk")
        assert a == b

    def test_distinct_seeds_differ(self):
        a = generate_synthetic_stream(5, 50, dims=2)
        b = generate_synthetic_stream(6, 50, dims=2)
        assert a != b

    def test_drift_mean_increment_matches_slope(self):
        stream = generate_synthetic_stream(1, 10001, dims=2, profile="drift")
        for dim in range(2):
            diffs = [
                stream[i + 1].values[dim] - stream[i].values[dim]
                for i in range(len(stream) - 1)
            ]
            assert statistics.fmean(diffs) == pytest.approx(1.0, rel=0.05)

    def test_piecewise_constant_without_jumps_is_identically_zero(self):
        stream = generate_synthetic_stream(3, 200, dims=2, profile="piecewise-constant", jump_prob=0.0)
        assert all(v.values == (0.0, 0.0) for v in stream)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic_stream(1, 10, profile="brownian-bridge")
        with pytest.raises(ConfigurationError):
            ExperimentConfig(profile="brownian-bridge")

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic_stream(1, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", [1, -2], None, True],
                             ids=["negative", "fraction", "text", "negative-in-list", "none", "bool"])
    def test_invalid_seed(self, seed):
        with pytest.raises(ConfigurationError, match=r"seed must be (an integer|>= 0), got "):
            generate_synthetic_stream(seed, 10)


class TestRunExperiment:
    def test_unreachable_threshold_forces_deadline_at_exactly_T(self):
        for policy in ("UDDM", "PM"):
            config = ExperimentConfig(policy=policy, T=8, theta=1.01, E=1, seed=2,
                                      profile="random-walk")
            stream = generate_synthetic_stream(9, config.vectors_per_experiment, profile="random-walk")
            trace = run_experiment(config, stream)
            assert [e.step for e in trace.events] == [8]
            assert all(e.cause == "deadline" and e.t_star == 8 for e in trace.events)

    def test_constant_stream_only_deadline_causes(self):
        stream = generate_synthetic_stream(3, 100, profile="piecewise-constant", jump_prob=0.0)
        for policy in ("UDDM", "BM", "PM"):
            config = ExperimentConfig(policy=policy, T=6, theta=0.6, E=1)
            trace = run_experiment(config, stream)
            assert {e.cause for e in trace.events} == {"deadline"}
            assert all(e.magnitude == 0.0 for e in trace.events)

    def test_determinism_bit_identical_traces(self):
        config = ExperimentConfig(policy="UDDM", T=20, theta=0.6, E=1, seed=11)
        stream = generate_synthetic_stream(11, config.vectors_per_experiment)
        assert run_experiment(config, stream) == run_experiment(config, stream)

    def test_experiment_index_must_fit_an_int32_column(self):
        config = ExperimentConfig(policy="BM", T=4, E=1, N=2, seed=5)
        stream = generate_synthetic_stream(5, config.vectors_per_experiment)
        trace = run_experiment(config, stream, experiment=2**31 - 2)
        assert {e.experiment for e in trace.events} == {2**31 - 2}
        for experiment in (-1, 2**31 - 1, 2**40):
            with pytest.raises(ConfigurationError, match="experiment index"):
                run_experiment(config, stream, experiment=experiment)

    def test_truncation_error_names_the_shortfall(self):
        config = ExperimentConfig(T=10, E=1)
        stream = generate_synthetic_stream(1, 5)
        with pytest.raises(StreamTruncationError, match="shortfall 8"):
            run_experiment(config, stream)

    def test_staggered_deadlines_never_all_coincide(self):
        config = ExperimentConfig(policy="BM", T=5, theta=0.6, E=1, N=4, seed=13,
                                  profile="piecewise-constant")
        stream = generate_synthetic_stream(3, config.vectors_per_experiment,
                                           profile="piecewise-constant", jump_prob=0.0)
        trace = run_experiment(config, stream)
        by_step: dict[int, set[int]] = {}
        for event in trace.events:
            assert event.cause == "deadline"
            by_step.setdefault(event.step, set()).add(event.node)
        assert by_step, "deadline events must exist"
        assert all(len(nodes) < 4 for nodes in by_step.values())
        # node i's deadlines all fall in the congruence class (i - 1) mod T
        for event in trace.events:
            assert event.step % 5 == (event.node - 1) % 5

    def test_first_epoch_offsets_differ_across_nodes(self):
        config = ExperimentConfig(policy="BM", T=4, theta=0.6, E=1, N=3, seed=1,
                                  profile="piecewise-constant")
        stream = generate_synthetic_stream(3, config.vectors_per_experiment,
                                           profile="piecewise-constant", jump_prob=0.0)
        trace = run_experiment(config, stream)
        first = {}
        for event in trace.events:
            first.setdefault(event.node, event.step)
        assert len(set(first.values())) == 3


class TestRunCell:
    def test_conservation_and_ranges(self):
        config = ExperimentConfig(policy="UDDM", T=10, theta=0.6, E=25, seed=21)
        report = run_cell(config)
        assert report.message_count == len(report.per_experiment)
        assert 0.0 < report.phi <= 1.0
        assert 1.0 <= report.psi <= report.T
        assert report.delta >= 0.0
        # events are ordered by (experiment, step)
        keys = [(e.experiment, e.step, e.node) for e in report.per_experiment]
        assert keys == sorted(keys)

    def test_determinism_across_runs(self):
        config = ExperimentConfig(policy="PM", T=12, theta=0.75, E=10, seed=5)
        assert run_cell(config) == run_cell(config)

    def test_psi_is_T_under_unreachable_threshold(self):
        config = ExperimentConfig(policy="UDDM", T=9, theta=1.01, E=5, seed=3)
        report = run_cell(config)
        assert report.psi == 9.0
        assert report.phi == 1.0

    def test_replay_dataset_slicing_wraps(self):
        config = ExperimentConfig(policy="BM", T=5, theta=0.6, E=4, seed=1,
                                  source="replay", profile="drift")
        dataset = generate_synthetic_stream(2, 20)
        report = run_cell(config, dataset=dataset)
        assert report.message_count == len(report.per_experiment) > 0

    def test_decision_record_is_views_of_the_kernel_arrays(self):
        config = ExperimentConfig(policy="UDDM", T=7, E=3, N=2, seed=8)
        thetas = (0.6, 0.3, 0.75)
        records = simulator._simulate(config, thetas, simulator._cell_streams(config, None))
        assert len(records) == len(thetas)
        for theta, record in zip(thetas, records):
            arrays = (record.sends, record.triggered, record.t_star, record.quantum, record.score)
            for array in arrays:
                assert array.shape == (7, 3, 2) and not array.flags.owndata
            assert record.events() == run_cell(replace(config, theta=theta)).per_experiment

    def test_grid_ids_are_bounded_by_int32(self):
        ExperimentConfig(T=2**31 - 1, E=2**31 - 1, N=2**31 - 1)  # builds, allocating nothing
        for key in ("T", "E", "N"):
            with pytest.raises(ConfigurationError, match=f"{key} must lie in"):
                ExperimentConfig(**{key: 2**31})

    @pytest.mark.parametrize("key, value, message", [
        ("T", 2.5, "T must be an integer, got 2.5"),
        ("T", True, "T must be an integer, got True"),
        ("E", 2.5, "E must be an integer, got 2.5"),
        ("N", 1.5, "N must be an integer, got 1.5"),
        ("window", 2.5, "window must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("window", 0, "normalization window must be >= 1, got 0"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("theta", "0.6", "theta must be a real number, got '0.6'"),
        ("theta", True, "theta must be a real number, got True"),
        ("alpha", "0.5", "alpha must be a real number, got '0.5'"),
        ("beta", "0.5", "beta must be a real number, got '0.5'"),
    ])
    def test_invalid_cell_values_rejected(self, key, value, message):
        with pytest.raises(ConfigurationError, match=message):
            ExperimentConfig(**{"policy": "BM", "E": 2, key: value})

    def test_numpy_integers_accepted(self):
        sizes = {"T": 3, "E": 2, "N": 2, "window": 5, "seed": 4}
        config = ExperimentConfig(policy="BM", **{key: np.int64(v) for key, v in sizes.items()})
        assert run_cell(config) == run_cell(ExperimentConfig(policy="BM", **sizes))

    def test_numpy_floats_accepted(self):
        config = ExperimentConfig(policy="PM", T=4, E=2, theta=np.float32(0.75), alpha=np.float64(0.5))
        assert run_cell(config) == run_cell(ExperimentConfig(policy="PM", T=4, E=2, theta=0.75))

    def test_replay_requires_dataset(self):
        config = ExperimentConfig(source="some/file.txt")
        with pytest.raises(ConfigurationError):
            run_cell(config)

    def test_replay_dataset_shorter_than_one_experiment(self):
        config = ExperimentConfig(policy="BM", T=50, theta=0.6, E=2, source="replay")
        with pytest.raises(StreamTruncationError, match="shortfall"):
            run_cell(config, dataset=generate_synthetic_stream(2, 10))


class _MutedBm(BmPolicy):
    """BM, except that the `muted` lanes never disseminate."""

    def __init__(self, muted):
        self.muted = muted

    def step_lanes(self, state, quantum):
        t_star, sends, triggered, score = super().step_lanes(state, quantum)
        sends[self.muted] = triggered[self.muted] = False
        return t_star, sends, triggered, score


class TestDisseminationInvariant:
    @pytest.mark.parametrize("muted, message", [
        (slice(None), "experiment 0: 0 of 2 nodes disseminated"),
        (5, "experiment 2: 1 of 2 nodes disseminated"),  # lane 5: experiment 2, node 2
    ], ids=["every-lane", "one-lane"])
    def test_a_silent_node_is_an_invariant_violation(self, monkeypatch, muted, message):
        monkeypatch.setattr(simulator, "build_policy", lambda *args, **kwargs: _MutedBm(muted))
        with pytest.raises(InvariantViolation, match=message):
            run_cell(ExperimentConfig(policy="BM", T=6, E=4, N=2, seed=3))

    def test_the_cli_exits_3_with_one_line(self, monkeypatch, tmp_path, caplog):
        monkeypatch.setattr(simulator, "build_policy", lambda *args, **kwargs: _MutedBm(5))
        assert main(["run", "--policy", "BM", "--T", "6", "--E", "4", "--N", "2", "--seed", "3",
                     "--workers", "1", "--out-dir", str(tmp_path / "out")]) == 3
        (error,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert error.startswith("internal invariant violated: experiment 2: 1 of 2 nodes disseminated;")
        assert "\n" not in error
        assert not (tmp_path / "out").exists()


EVENT_COLUMNS = ("experiment", "node", "step", "t_star", "triggered", "magnitude", "g")


class TestEventColumns:
    @pytest.fixture(scope="class")
    def report(self):
        return run_cell(ExperimentConfig(policy="UDDM", T=10, theta=0.6, E=4, N=2, seed=7))

    def test_length_and_iteration(self, report):
        events = report.per_experiment
        listed = list(events)
        assert len(events) == len(listed) == report.message_count > 2
        assert all(type(e) is DisseminationEvent for e in listed)

    def test_columns_pickle_in_at_most_34_bytes_per_event(self):
        events = run_cell(ExperimentConfig(policy="BM", T=1000, E=10, seed=4)).per_experiment
        assert len(events) >= 10_000
        assert [c.dtype for c in (events.experiment, events.node, events.step, events.t_star)] \
            == [np.int32] * 4
        assert len(pickle.dumps(events)) <= 34 * len(events)

    def test_events_hold_plain_python_values(self, report):
        for event in report.per_experiment:
            assert [type(v) for v in event[:4]] == [int] * 4
            assert type(event.magnitude) is float
            assert event.g is None or type(event.g) is float
        assert {e.cause for e in report.per_experiment} <= {"threshold", "deadline"}
        assert any(e.g is None for e in report.per_experiment)  # no score before round 3

    def test_pickle_round_trip(self, report):
        restored = pickle.loads(pickle.dumps(report))
        assert restored == report
        assert list(restored.per_experiment) == list(report.per_experiment)

    def test_columns_are_read_only(self, report):
        """Before and after a pickle round trip, which is how a pooled report arrives."""
        for events in (report.per_experiment, pickle.loads(pickle.dumps(report)).per_experiment):
            for name in EVENT_COLUMNS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(events, name)[0] = getattr(events, name)[-1]

    def test_equality_compares_every_column(self, report):
        events = report.per_experiment
        assert events == pickle.loads(pickle.dumps(events))
        for name in EVENT_COLUMNS:
            columns = {key: getattr(events, key).copy() for key in EVENT_COLUMNS}
            last = columns[name][-1].item()
            # Any other value: the flag flipped, NaN (no score) replaced, a number moved.
            columns[name][-1] = (not last) if type(last) is bool else 0.5 if last != last else last + 1
            assert EventColumns(**columns, trigger_cause=events.trigger_cause) != events
        renamed = EventColumns(events.experiment, events.node, events.step, events.t_star,
                               events.triggered, events.magnitude, events.g, "other")
        assert renamed != events


def scalar_experiment(config, stream, experiment, policy):
    """One experiment through the scalar API, one node and one round at a time."""
    n = config.N
    synopses = [update_synopsis(Synopsis.empty(len(stream[0])), stream[j]) for j in range(n)]
    last_sent = list(synopses)
    epochs = [
        EpochState(T=config.T, theta=config.theta, deadline=(j % config.T) or config.T,
                   window=config.window)
        for j in range(n)
    ]
    events = []
    for s in range(1, config.T + 1):
        for j, epoch in enumerate(epochs):
            synopses[j] = update_synopsis(synopses[j], stream[s * n + j])
            quantum = update_quantum(last_sent[j], synopses[j])
            t_star = int(epoch.t[0])
            decision = policy.step(epoch, quantum)
            if decision.disseminate:
                last_sent[j] = synopses[j]
                events.append(DisseminationEvent(experiment, j + 1, s, t_star, decision.cause,
                                                 quantum, decision.g))
    return events


FUZZY_SPEC = {
    "terms": {label: {"upper": list(upper), "shrink": 0.3}
              for label, upper in (("low", (0.0, 0.0, 0.2, 0.45)),
                                   ("medium", (0.2, 0.45, 0.55, 0.8)),
                                   ("high", (0.55, 0.8, 1.0, 1.0)))},
    "rules": [{"antecedents": ["medium", "low", "low"], "consequent": "medium"}],
}


# Both entry points that take replay data, which one slicer cuts and checks.
REPLAY_ENTRY_POINTS = [
    pytest.param(lambda config, data: run_cell(config, dataset=data), id="run_cell"),
    pytest.param(lambda config, data: run_experiment(config, data), id="run_experiment"),
]


class TestKernelMatchesScalarPath:
    """The lane kernel against the scalar API, compared with == (no tolerance)."""

    def check(self, config, engine=None):
        policy = build_policy(config.policy, engine=engine, alpha=config.alpha, beta=config.beta)
        streams = [
            generate_synthetic_stream([config.seed, config.T, config.N, i],
                                      config.vectors_per_experiment, profile=config.profile)
            for i in range(config.E)
        ]
        expected = [scalar_experiment(config, stream, i, policy) for i, stream in enumerate(streams)]
        report = run_cell(config, engine=engine)
        assert list(report.per_experiment) == [e for events in expected for e in events]
        firsts, counts = [], []
        for events in expected:
            for node in range(1, config.N + 1):
                mine = [e for e in events if e.node == node]
                firsts.append(mine[0].t_star)
                counts.append(len(mine))
        assert report.phi == statistics.fmean(t / config.T for t in firsts)
        assert report.delta == statistics.fmean(e.magnitude for e in report.per_experiment)
        assert report.psi == statistics.fmean(config.T / c for c in counts)
        if engine is None:
            trace = run_experiment(config, streams[1], experiment=1)
            assert list(trace.events) == expected[1]

    @pytest.mark.parametrize("profile", STREAM_PROFILES)
    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    def test_events_and_metrics_equal(self, policy, profile):
        for N in (1, 3):
            for T in (1, 2, 5, 10):
                for theta in (0.3, 0.6, 1.01):
                    self.check(ExperimentConfig(policy=policy, T=T, theta=theta, E=3, N=N,
                                                seed=17, profile=profile))

    @pytest.mark.parametrize("profile", STREAM_PROFILES)
    def test_custom_engine_equal(self, profile):
        engine = engine_from_config(FUZZY_SPEC)
        for N in (1, 3):
            for T, theta in ((5, 0.3), (10, 0.6), (40, 0.45)):
                self.check(ExperimentConfig(policy="UDDM", T=T, theta=theta, E=3, N=N, seed=23,
                                            profile=profile), engine)

    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    def test_signed_zero_streams_equal(self, policy):
        # The kernel starts from the bootstrap vector as it is, -0.0 included;
        # the scalar synopsis computes 0.0 + (x - 0.0) / 1, which turns -0.0 into 0.0.
        rng = random.Random(2)
        values = (0.0, -0.0, 1.0, -1.0, 2.5)
        for N in (1, 3):
            for T in (1, 3, 7):
                config = ExperimentConfig(policy=policy, T=T, theta=0.6, E=1, N=N)
                scalar_policy = build_policy(policy)
                for experiment in range(20):
                    stream = [DataVector(tuple(rng.choice(values) for _ in range(2)))
                              for _ in range(config.vectors_per_experiment)]
                    events = list(run_experiment(config, stream, experiment).events)
                    expected = scalar_experiment(config, stream, experiment, scalar_policy)
                    assert events == expected
                    assert list(map(repr, events)) == list(map(repr, expected))

    def test_replay_array_equals_data_vectors(self):
        config = ExperimentConfig(policy="PM", T=10, theta=0.6, E=5, N=2, source="replay")
        vectors = generate_synthetic_stream(4, 70, profile="random-walk")
        rows = np.array([v.values for v in vectors])
        assert run_cell(config, dataset=rows) == run_cell(config, dataset=vectors)

    @pytest.mark.parametrize("dataset, message", [
        ([DataVector((1.0, 2.0))] * 4 + [DataVector((1.0,))], "differ in dimension"),
        (np.zeros(10), r"must form a \(rows, dims\) array, got shape \(10,\)"),
    ], ids=["ragged", "one-dimensional"])
    @pytest.mark.parametrize("entry", REPLAY_ENTRY_POINTS)
    def test_malformed_dataset_rejected(self, entry, dataset, message):
        config = ExperimentConfig(policy="BM", T=2, E=1, source="replay")
        with pytest.raises(ConfigurationError, match=message):
            entry(config, dataset)

    @pytest.mark.parametrize("entry", REPLAY_ENTRY_POINTS)
    def test_non_finite_array_rejected(self, entry):
        config = ExperimentConfig(policy="BM", T=2, E=1, source="replay")
        rows = np.zeros((5, 4))
        rows[1, 2] = np.inf
        with pytest.raises(IngestionError, match="non-finite"):
            entry(config, rows)

    @pytest.mark.parametrize("dataset", [[], np.zeros((0, 4))], ids=["empty-list", "empty-array"])
    @pytest.mark.parametrize("entry", REPLAY_ENTRY_POINTS)
    def test_empty_dataset_is_truncated(self, entry, dataset):
        # The length is checked before the rows are converted or shape-checked.
        config = ExperimentConfig(policy="BM", T=2, E=1, source="replay")
        with pytest.raises(StreamTruncationError, match=r"holds 0 vectors .*\(shortfall 5\)"):
            entry(config, dataset)


class TestGroupedPass:
    """One kernel pass over the cells of a (policy, T) group, one lane set per
    theta, against one `run_cell` per cell, compared with ==."""

    THETAS = (0.6, 0.3, 0.75, 1.01)

    def check(self, config, dataset=None, engine=None):
        cells = [replace(config, theta=theta) for theta in self.THETAS]
        grouped = simulator._run_group(cells, simulator._cell_streams(config, dataset), engine)
        separate = [run_cell(cell, dataset, engine) for cell in cells]
        assert list(grouped) == separate
        assert [r.per_experiment for r in grouped] == [r.per_experiment for r in separate]
        assert [r.theta for r in grouped] == list(self.THETAS)
        return grouped

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    def test_synthetic(self, policy, N):
        for profile in STREAM_PROFILES:
            reports = self.check(ExperimentConfig(policy=policy, T=12, E=5, N=N, seed=9,
                                                  profile=profile))
            if policy != "BM":  # the thresholds lead to different decisions
                assert len({r.message_count for r in reports}) > 1

    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    def test_replay(self, policy, N):
        dataset = generate_synthetic_stream(6, 150, profile="random-walk")
        self.check(ExperimentConfig(policy=policy, T=10, E=4, N=N, source="replay"), dataset)

    @pytest.mark.parametrize("N", [1, 2])
    def test_custom_engine(self, N):
        self.check(ExperimentConfig(policy="UDDM", T=15, E=4, N=N, seed=2, profile="random-walk"),
                   engine=engine_from_config(FUZZY_SPEC))

    def test_engine_sees_only_the_scored_lanes(self):
        """Drift at theta 0.6 locks UDDM into period 3, so the engine is skipped
        on the rounds where no lane has t >= 3, and sees only those that have."""

        class CountingEngine(InferenceEngine):
            def __init__(self):
                super().__init__()
                self.lanes = []

            def evaluate_many(self, x1, x2, x3):
                self.lanes.append(np.shape(x1))
                return super().evaluate_many(x1, x2, x3)

        config = ExperimentConfig(policy="UDDM", T=30, theta=0.6, E=3, seed=5)
        engine = CountingEngine()
        record, = simulator._simulate(config, (0.6,), simulator._cell_streams(config, None), engine)
        scored = (record.t_star >= 3).reshape(30, -1).sum(axis=1)
        assert engine.lanes == [(2, n) for n in scored if n]
        assert 0 < np.count_nonzero(scored) <= 30 // 3 + 1
        assert np.isnan(record.score[record.t_star < 3]).all()
        assert not np.isnan(record.score[record.t_star >= 3]).any()


class TestSharedTables:
    """Cells of a group whose events are equal bit for bit share one table."""

    THETAS = (0.6, 0.75, 0.9)

    def group(self, policy, thetas=THETAS, **config):
        cells = [ExperimentConfig(policy=policy, theta=theta, **config) for theta in thetas]
        return simulator._run_group(cells, simulator._cell_streams(cells[0], None))

    def test_bm_cells_share_one_table(self):
        reports = self.group("BM", T=20, E=6, N=2, seed=3, profile="random-walk")
        assert [r.theta for r in reports] == list(self.THETAS)
        assert reports[0].per_experiment is reports[1].per_experiment is reports[2].per_experiment

    def test_uddm_cells_that_decide_differently_share_nothing(self):
        reports = self.group("UDDM", T=30, E=6, seed=3, profile="random-walk")
        assert len({r.message_count for r in reports}) == 3
        assert len({id(r.per_experiment) for r in reports}) == 3

    @pytest.mark.parametrize("column", ["quantum", "score"])
    def test_a_zero_of_another_sign_is_not_shared(self, monkeypatch, column):
        """-0.0 == 0.0, but the detail files write them differently, so the
        tables are not equal and must not share."""
        simulate = simulator._simulate

        def signed_zeros(config, thetas, block, engine=None):
            records = simulate(config, thetas, block, engine)
            # The first event: experiment 0's first send.
            experiment, step, node = (int(i[0]) for i in np.nonzero(records[0].sends.transpose(1, 0, 2)))
            first_send = step, experiment, node
            signed = []
            for record, zero in zip(records, (0.0, -0.0)):
                values = getattr(record, column).copy()
                values[first_send] = zero
                signed.append(replace(record, **{column: values}))
            return tuple(signed)

        monkeypatch.setattr(simulator, "_simulate", signed_zeros)
        first, second = self.group("BM", thetas=self.THETAS[:2], T=10, E=3, seed=2)
        assert first.per_experiment != second.per_experiment
        assert first.per_experiment is not second.per_experiment
        name = {"quantum": "magnitude", "score": "g"}[column]
        assert [repr(getattr(r.per_experiment, name)[0].item()) for r in (first, second)] == [
            "0.0", "-0.0"]


class TestBlockLifetime:
    """The stream block of a one-group run is freed after its kernel pass,
    before the reports are built: the caller hands `_run_group` its last
    reference, and `_run_group` drops it."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Weak references to every block built, each checked dead when a report is built."""
        refs, build, report = [], simulator._cell_streams, simulator._report

        def tracked(config, dataset):
            block = build(config, dataset)
            refs.append(weakref.ref(block))
            return block

        def checked(config, record):
            assert refs and all(ref() is None for ref in refs), "a stream block outlived its pass"
            return report(config, record)

        monkeypatch.setattr(simulator, "_cell_streams", tracked)
        monkeypatch.setattr(harness, "_cell_streams", tracked)
        monkeypatch.setattr(simulator, "_report", checked)
        return refs

    def test_run_cell(self, blocks):
        run_cell(ExperimentConfig(policy="PM", T=10, E=3, seed=4))
        assert len(blocks) == 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_group_run_grid(self, blocks, workers):
        reports, _ = run_grid(load_config(cli_overrides={
            "policy": "BM", "t": "10", "theta": "0.6,0.75", "e": "3", "workers": str(workers)},
            environ={}))
        assert len(reports) == 2 and len(blocks) == 1


class TestReportDigests:
    """Report bytes pinned by sha256, so a 1-ulp regrouping of any float
    operation fails here. Recorded while the scalar per-node decision path
    still existed beside the lane kernel and matched it exactly."""

    DIGESTS = {
        ("random-walk", 1, False): "3def44d0ee6fca10b1e039e79fa998cb4811658d939437ba30d72b4c2ca3c05d",
        ("random-walk", 3, False): "7f70d1870941f2c7661a11c3c744a1f221ad0bccc62dde5f1e73507aa564651b",
        ("drift", 1, False): "25de7cdca3cd94b6b3891d02b692193b0e1a5da31367889675c2b4251faf89e8",
        ("drift", 3, False): "7e7950552899b82ab38aaa832798c10c64908b8efa2e59cce84bd331cd23b377",
        ("piecewise-constant", 1, False): "2d6e99944b847ef8106e861d818370c64cda2fcb2c42e2ade0a6d6f5a4eecf0b",
        ("piecewise-constant", 3, False): "3f684f6d623f4ed86d88973a7467f93e5a09305f5bb81985f943aa53ea5c688e",
        ("random-walk", 1, True): "7af26cc1e8addcb3d568493a0fa761ba8d2d010b7434df667baa1054c3052b46",
        ("random-walk", 3, True): "a374d0a017e0c4a35fcfa0eca409c6c064b3ce8118b13949be3fcde921e4b460",
        ("drift", 1, True): "499f6b78f3df10edd8716338d243ada939a46d640f38e4bf2fa249d9c7973c3a",
        ("drift", 3, True): "8dc730681bd23ac3ce7e8ec5863f57ed0b64cb90616b8b56acd960b2eede0f43",
        ("piecewise-constant", 1, True): "d97948ae610144c4c718978df9e59493c249b5df22e6dd8a2c2d0aa7eccebaee",
        ("piecewise-constant", 3, True): "e5d551e3e8b6f1cbc2d822fed109ee375b64adbc1685d24e7318d1dd5aee341a",
    }

    @staticmethod
    def digest(tmp_path, profile, N, fuzzy, workers):
        overrides = {"policy": "UDDM,BM,PM", "T": "1,5,10", "theta": "0.3,0.6,1.01", "E": "3",
                     "N": str(N), "seed": "17", "profile": profile, "workers": str(workers),
                     "out-dir": str(tmp_path / "out")}
        if fuzzy:
            spec = tmp_path / "fuzzy.json"
            spec.write_text(json.dumps(FUZZY_SPEC), encoding="utf-8")
            overrides["fuzzy"] = str(spec)
        config = load_config(cli_overrides=overrides, environ={})
        out = write_reports(*run_grid(config), config.out_dir)
        digest = hashlib.sha256()
        for path in [out / "summary.csv", *sorted(out.glob("detail_*.csv"))]:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()

    @pytest.mark.parametrize("fuzzy", [False, True], ids=["default-engine", "fuzzy-spec"])
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("profile", STREAM_PROFILES)
    def test_summary_and_detail_digests(self, tmp_path, profile, N, fuzzy):
        assert self.digest(tmp_path, profile, N, fuzzy, workers=1) == self.DIGESTS[profile, N, fuzzy]

    @pytest.mark.parametrize("fuzzy", [False, True], ids=["default-engine", "fuzzy-spec"])
    @pytest.mark.parametrize("N", [1, 3])
    @pytest.mark.parametrize("profile", STREAM_PROFILES)
    def test_pooled_run_gives_the_same_digests(self, tmp_path, profile, N, fuzzy):
        """Detail rows formatted in the pool workers hash to the serial run's digests."""
        assert self.digest(tmp_path, profile, N, fuzzy, workers=2) == self.DIGESTS[profile, N, fuzzy]


TOL = 1e-9  # criterion 8


def oracle_agrees(got, want) -> bool:
    """Criterion 8's comparison of one event with the oracle's, at TOL."""
    if (got.node, got.step, got.t_star, got.cause) != (
            want["node"], want["step"], want["t_star"], want["cause"]):
        return False
    if abs(got.magnitude - want["magnitude"]) > TOL:
        return False
    if max(got.magnitude, want["magnitude"]) <= 2 * TOL:
        # Under the normaliser's 1e-9 floor a ~1e-16 quantum difference is
        # amplified 1e9-fold into g; the decision was compared above.
        return True
    if want["g"] is None or got.g is None:
        return want["g"] is None and got.g is None
    return abs(got.g - want["g"]) <= TOL


def at_tie(cause, magnitude, g, theta) -> bool:
    """A send the 1e-9 tolerance cannot settle."""
    if cause == "any-change":
        return magnitude <= TOL
    return cause != "deadline" and g is not None and abs(g - theta) <= TOL


class TestBruteForceOracle:
    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    @pytest.mark.parametrize("T,profile,seed", [
        (5, "random-walk", 101),
        (3, "drift", 202),
        (4, "piecewise-constant", 303),
        (1, "drift", 404),
    ])
    def test_single_node_traces_match(self, policy, T, profile, seed):
        config = ExperimentConfig(policy=policy, T=T, theta=0.6, E=1, seed=seed, profile=profile)
        stream = generate_synthetic_stream(seed, 20 + 3, profile=profile)
        trace = run_experiment(config, stream[: config.vectors_per_experiment])
        expected = reference_trace(
            [v.values for v in stream], policy, T=T, theta=0.6
        )
        assert len(trace.events) == len(expected)
        for got, want in zip(trace.events, expected):
            assert (got.node, got.step, got.t_star, got.cause) == (
                want["node"], want["step"], want["t_star"], want["cause"])
            assert got.magnitude == pytest.approx(want["magnitude"], abs=1e-9)
            if want["g"] is None:
                assert got.g is None
            else:
                assert got.g == pytest.approx(want["g"], abs=1e-9)

    def test_multi_node_trace_matches(self):
        config = ExperimentConfig(policy="UDDM", T=4, theta=0.5, E=1, N=3, seed=77)
        stream = generate_synthetic_stream(77, config.vectors_per_experiment)
        trace = run_experiment(config, stream)
        expected = reference_trace([v.values for v in stream], "UDDM", T=4, theta=0.5, N=3)
        assert [(e.node, e.step, e.t_star, e.cause) for e in trace.events] == [
            (w["node"], w["step"], w["t_star"], w["cause"]) for w in expected
        ]


    @settings(max_examples=200, deadline=None)
    @given(
        policy=st.sampled_from(["UDDM", "BM", "PM"]),
        profile=st.sampled_from(STREAM_PROFILES),
        T=st.integers(1, 8),
        theta=st.sampled_from([0.2, 0.3, 0.45, 0.6, 0.75, 0.9, 1.01]),
        N=st.integers(1, 3),
        E=st.integers(1, 3),
        dims=st.integers(1, 4),
        window=st.integers(1, 12),
        smoothing=st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_short_streams_match(self, policy, profile, T, theta, N, E, dims, window,
                                        smoothing, seed):
        """Criterion 8's comparison on random grids and streams.

        The oracle recomputes means from prefix sums, the package updates them
        incrementally, so a quantum that is 0 in one can be ~1e-16 in the
        other. Where that decides a send (BM's any-change) or a score lies
        within 1e-9 of theta, the two traces may part: both histories are
        valid, and the rest of that experiment is not compared.
        """
        alpha, beta = smoothing
        config = ExperimentConfig(policy=policy, T=T, theta=theta, E=E, N=N, alpha=alpha,
                                  beta=beta, window=window, source="replay")
        size = config.vectors_per_experiment
        dataset = generate_synthetic_stream(seed, E * size, dims=dims, profile=profile)
        report = run_cell(config, dataset=dataset)
        assert {e.experiment for e in report.per_experiment} == set(range(E))
        for i in range(E):
            slice_ = [v.values for v in dataset[i * size:(i + 1) * size]]
            expected = reference_trace(slice_, policy, T=T, theta=theta, alpha=alpha, beta=beta,
                                       window=window, N=N)
            got = [e for e in report.per_experiment if e.experiment == i]
            for ours, want in zip_longest(got, expected):
                if ours is None or want is None or not oracle_agrees(ours, want):
                    sides = ([] if ours is None else [(ours.cause, ours.magnitude, ours.g)]) + (
                        [] if want is None else [(want["cause"], want["magnitude"], want["g"])])
                    assert any(at_tie(*side, theta) for side in sides), (ours, want)
                    break


class TestMetamorphic:
    """Rescaling or offsetting the stream changes no decision.

    An offset leaves every synopsis difference, so every quantum, as it was;
    a scale multiplies every quantum, the window maximum and the linear Holt
    forecasts alike, so the normalised inputs to each trigger do not move.
    """

    @pytest.mark.parametrize("transform", ["scale-7", "offset-1e3"])
    @pytest.mark.parametrize("T,theta", [(10, 0.6), (100, 0.75)])
    @pytest.mark.parametrize("profile", STREAM_PROFILES)
    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    def test_scale_and_offset_leave_decisions_unchanged(self, policy, profile, T, theta, transform):
        config = ExperimentConfig(policy=policy, T=T, theta=theta, E=10, N=2, source="replay")
        stream = generate_synthetic_stream(0, config.E * config.vectors_per_experiment, profile=profile)
        if transform == "scale-7":
            moved = [DataVector(tuple(7.0 * v for v in x.values)) for x in stream]
        else:
            moved = [DataVector(tuple(v + 1e3 for v in x.values)) for x in stream]

        def decisions(dataset):
            report = run_cell(config, dataset=dataset)
            return [(e.experiment, e.node, e.step, e.cause) for e in report.per_experiment]

        assert decisions(moved) == decisions(stream)

    @pytest.mark.parametrize("profile", STREAM_PROFILES)
    @pytest.mark.parametrize("policy", ["UDDM", "BM", "PM"])
    def test_power_of_two_scale_is_exact(self, policy, profile):
        # A scale of 2**k rounds nothing anew: every magnitude moves by exactly 2**k,
        # and the scores g are the same floats.
        config = ExperimentConfig(policy=policy, T=100, theta=0.6, E=20, N=3, source="replay")
        stream = generate_synthetic_stream(0, config.E * config.vectors_per_experiment, profile=profile)
        base = run_cell(config, dataset=stream).per_experiment
        for k in (-20, -3, 5, 30):
            scale = 2.0**k
            moved = run_cell(config, dataset=[DataVector(tuple(scale * v for v in x.values))
                                              for x in stream]).per_experiment
            for column in ("experiment", "node", "step", "t_star", "triggered", "g"):
                assert getattr(moved, column).tobytes() == getattr(base, column).tobytes(), (k, column)
            assert moved.magnitude.tobytes() == (base.magnitude * scale).tobytes(), k


class TestUnreachableTheta:
    """Above the engine's largest centroid, UDDM's g never exceeds theta, and above 1
    PM's mean forecast never does: both send only at the deadline. At the largest
    centroid itself UDDM still fires, since the centroid-weighted average rounds one
    ulp above that centroid. Each held on random-walk seeds 0-19 at E 200."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_deadline_only_above_the_largest_centroid(self, seed):
        def events(policy, theta):
            return run_cell(ExperimentConfig(policy=policy, T=100, theta=theta, E=200, seed=seed,
                                             profile="random-walk")).per_experiment

        for policy, theta in (("UDDM", 0.85), ("PM", 1.0)):
            assert {e.cause for e in events(policy, theta)} == {CAUSE_DEADLINE}
        top = max(default_engine()._centroids)
        fired = [e.g for e in events("UDDM", top) if e.cause == CAUSE_THRESHOLD]
        assert fired and set(fired) == {np.nextafter(top, 1.0)}


class TestDriftPeriod:
    """On drift every policy is a fixed-period sender, and the engine alone gives UDDM's period.

    Within an epoch the drift's quantum rises about linearly, and the window
    maximum is the last epoch's peak. So at round k >= 3 UDDM's past triple reads
    ((k-2)/k, (k-1)/k, 1) and its forecasts saturate at 1: UDDM first sends at the
    smallest such k whose score clears theta. The oracle reads the engine and no
    kernel code. Each pinned fact held on drift seeds 0-19 at T 10, 100 and 1000.
    """

    @staticmethod
    def period(theta):
        engine = default_engine()
        saturated = engine.evaluate(1.0, 1.0, 1.0)
        return next(k for k in range(3, 100)
                    if combine_pods(engine.evaluate((k - 2) / k, (k - 1) / k, 1.0), saturated) > theta)

    @staticmethod
    def first_t_stars(report):
        """Each lane's t* at its first send."""
        events = report.per_experiment
        lanes = events.experiment.astype(np.int64) * report.N + events.node
        order = np.lexsort((events.step, lanes))
        _, first = np.unique(lanes[order], return_index=True)
        assert len(first) == report.E * report.N
        return set(events.t_star[order][first].tolist())

    def test_engine_periods(self):
        assert (self.period(0.6), self.period(0.75)) == (3, 4)

    @pytest.mark.parametrize("T", [10, 100, 1000])
    def test_drift_cells_follow_the_period(self, T):
        k = self.period(0.6)
        # theta 0.75 sits just below the score at round 4, so an epoch's noise can hold one round more.
        late = {self.period(0.75), self.period(0.75) + 1}
        for seed in range(20):
            for policy in ("UDDM", "BM", "PM"):
                cells = [ExperimentConfig(policy=policy, T=T, theta=theta, E=20, seed=seed, profile="drift")
                         for theta in (0.6, 0.75)]
                low, high = simulator._run_group(cells, simulator._cell_streams(cells[0], None))
                if policy == "UDDM":
                    assert self.first_t_stars(low) == {k}, seed
                    assert low.psi == T / (T // k), seed
                    assert self.first_t_stars(high) <= late, seed
                else:
                    assert low.psi == high.psi == {"BM": 1.0, "PM": 2.0}[policy], seed
