"""Experiment driver: determinism, metrics, staggering, and the brute-force oracle."""

import statistics

import pytest

from qsim.errors import ConfigurationError, StreamTruncationError
from qsim.simulator import (
    STREAM_PROFILES,
    ExperimentConfig,
    generate_synthetic_stream,
    run_cell,
    run_experiment,
)
from qsim.synopsis import DataVector

from reference_sim import reference_trace


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

    def test_replay_requires_dataset(self):
        config = ExperimentConfig(source="some/file.txt")
        with pytest.raises(ConfigurationError):
            run_cell(config)

    def test_replay_dataset_shorter_than_one_experiment(self):
        config = ExperimentConfig(policy="BM", T=50, theta=0.6, E=2, source="replay")
        with pytest.raises(StreamTruncationError):
            run_cell(config, dataset=generate_synthetic_stream(2, 10))


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
