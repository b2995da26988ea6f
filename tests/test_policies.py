"""Policy triggers, the shared epoch lifecycle, and the fusion operator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import policies
from qsim.errors import ConfigurationError
from qsim.policies import (
    CAUSE_ANY_CHANGE,
    CAUSE_DEADLINE,
    CAUSE_PREDICTION,
    CAUSE_THRESHOLD,
    BmPolicy,
    EpochState,
    PmPolicy,
    UddmPolicy,
    build_policy,
    combine_pods,
)
from qsim.synopsis import DataVector
from qsim.t2fls import InferenceEngine, default_engine, make_term

from scalar_synopsis import Synopsis, update_quantum, update_synopsis

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def make_state(T=10, theta=0.6, deadline=None):
    return EpochState(T=T, theta=theta, deadline=deadline)


def feed(policy, state, values):
    """Step the policy over raw quantum values; returns the decision list."""
    return [policy.step(state, float(value)) for value in values]


class TestCombinePods:
    def test_zero_annihilation(self):
        assert combine_pods(0.0, 0.9) == 0.0

    def test_identity(self):
        assert combine_pods(1.0, 1.0) == 1.0

    def test_exact_arithmetic_example(self):
        assert combine_pods(0.64, 0.81) == pytest.approx(0.72, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(unit, unit)
    def test_bounded_by_min_and_max(self, a, b):
        g = combine_pods(a, b)
        assert min(a, b) - 1e-12 <= g <= max(a, b) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(unit)
    def test_idempotence(self, x):
        assert combine_pods(x, x) == pytest.approx(x, abs=1e-12)


class TestUddm:
    def test_holds_until_three_quanta_exist(self):
        policy = UddmPolicy()
        state = make_state(T=10)
        decisions = feed(policy, state, [5.0, 5.0])
        assert [d.cause for d in decisions] == [None, None]
        assert all(d.g is None for d in decisions)

    def test_saturated_quanta_trigger_by_threshold(self):
        # Three equal quanta normalize to (1, 1, 1); the flat forecast does too,
        # so both potentials sit at the high-term centroid (>= 0.75) and the
        # fused score clears theta = 0.6.
        policy = UddmPolicy()
        state = make_state(T=10, theta=0.6)
        decisions = feed(policy, state, [5.0, 5.0, 5.0])
        last = decisions[-1]
        assert last.disseminate
        assert last.cause == CAUSE_THRESHOLD
        c_high = default_engine().centroid("high")
        assert last.g == pytest.approx(c_high, abs=1e-12)
        assert last.g >= 0.75

    def test_deadline_fires_when_score_stays_below_theta(self):
        policy = UddmPolicy()
        state = make_state(T=5, theta=0.99)
        decisions = feed(policy, state, [5.0] * 5)
        assert [d.cause for d in decisions[:4]] == [None] * 4
        assert decisions[-1].disseminate
        assert decisions[-1].cause == CAUSE_DEADLINE
        assert decisions[-1].g is not None and decisions[-1].g <= 0.99

    def test_epoch_resets_after_dissemination(self):
        policy = UddmPolicy()
        state = make_state(T=10, theta=0.6)
        feed(policy, state, [5.0, 5.0, 5.0])
        assert state.t.tolist() == [1]
        assert state.deadline.tolist() == [state.T]
        # the normalizer's scale memory survives the reset
        assert state.normalize([5.0, 2.5]).tolist() == [1.0, 0.5]
        # a fresh epoch: no past triple and no forecaster for its first two rounds
        assert [(d.cause, d.g) for d in feed(policy, state, [5.0, 5.0])] == [(None, None)] * 2

    def test_zero_potential_never_triggers_by_threshold(self):
        # Terms with a coverage gap: inputs in the gap fire no rule at all, so
        # the potential and the fused score annihilate to exactly zero.
        gappy = (
            make_term("low", 0.0, 0.0, 0.1, 0.2),
            make_term("medium", 0.4, 0.45, 0.55, 0.6),
            make_term("high", 0.8, 0.9, 1.0, 1.0),
        )
        policy = UddmPolicy(engine=InferenceEngine(terms=gappy))
        state = make_state(T=50, theta=0.01)
        decisions = feed(policy, state, [10.0] + [3.0] * 20)
        assert all(d.cause is None for d in decisions)
        assert any(d.g == 0.0 for d in decisions)

    def test_threshold_monotonicity_on_fixed_stream(self):
        rng = random.Random(33)
        values = [rng.uniform(0, 10) for _ in range(40)]
        firsts = []
        for theta in (0.3, 0.6, 0.75, 0.9):
            policy = UddmPolicy()
            state = make_state(T=40, theta=theta)
            decisions = feed(policy, state, values)
            firsts.append(next(i for i, d in enumerate(decisions) if d.disseminate))
        assert firsts == sorted(firsts)


class TestBm:
    def test_zero_change_holds(self):
        policy = BmPolicy()
        state = make_state(T=10)
        assert feed(policy, state, [0.0])[0].cause is None

    def test_any_change_triggers(self):
        policy = BmPolicy()
        state = make_state(T=10)
        decision = feed(policy, state, [0.001])[0]
        assert decision.disseminate
        assert decision.cause == CAUSE_ANY_CHANGE
        assert decision.g is None

    def test_deadline_forces_on_flat_stream(self):
        policy = BmPolicy()
        state = make_state(T=4)
        decisions = feed(policy, state, [0.0, 0.0, 0.0, 0.0])
        assert [d.disseminate for d in decisions] == [False] * 3 + [True]
        assert decisions[-1].cause == CAUSE_DEADLINE


class TestPm:
    def test_zero_forecasts_hold_and_deadline_applies(self):
        # A collapsing series keeps the clamped forecasts at (0, 0, 0) through
        # the whole window, so even a tiny threshold never fires.
        policy = PmPolicy()
        state = make_state(T=5, theta=0.05)
        decisions = feed(policy, state, [20.0] + [0.0] * 4)
        assert [d.cause for d in decisions[:4]] == [None] * 4
        assert all(d.g == 0.0 for d in decisions[1:4])
        assert decisions[-1].cause == CAUSE_DEADLINE

    def test_saturated_forecasts_trigger(self):
        policy = PmPolicy()
        state = make_state(T=10, theta=0.75)
        decisions = feed(policy, state, [5.0, 5.0])
        assert decisions[0].cause is None  # forecaster not seeded yet
        assert decisions[-1].disseminate
        assert decisions[-1].cause == CAUSE_PREDICTION
        assert decisions[-1].g == pytest.approx(1.0, abs=1e-12)

    def test_boundary_mean_exactly_at_theta_holds(self):
        # First epoch parks a 20 in the normalizer window and expires at the
        # deadline; the second epoch's quanta (11, 12, 13) leave the forecaster
        # at level 13, trend 1, so the forecasts (14, 15, 16) normalize to
        # (0.7, 0.75, 0.8) whose mean hits theta = 0.75 exactly: strict
        # inequality means hold.
        policy = PmPolicy()
        state = make_state(T=10, theta=0.75)
        first_epoch = feed(policy, state, [20.0] + [0.0] * 9)
        assert first_epoch[-1].cause == CAUSE_DEADLINE
        second = feed(policy, state, [11.0, 12.0, 13.0])
        assert [d.cause for d in second] == [None] * 3
        assert second[-1].g == 0.75


class TestEpochLifecycle:
    def test_reset_soundness_quantum_returns_to_zero(self):
        # Mimic the node loop: on dissemination the caller re-baselines
        # last_sent, after which the quantum is exactly zero.
        rng = random.Random(4)
        policy = BmPolicy()
        synopsis = Synopsis.empty(2)
        state = EpochState(T=6, theta=0.6)
        for step in range(1, 30):
            synopsis = update_synopsis(
                synopsis, DataVector((rng.uniform(0, 5), rng.uniform(0, 5)), timestamp=step)
            )
            if step == 1:
                last_sent = synopsis
                continue
            decision = policy.step(state, update_quantum(last_sent, synopsis))
            if decision.disseminate:
                last_sent = synopsis
                assert update_quantum(last_sent, synopsis) == 0.0

    def test_deadline_liveness_for_every_policy(self):
        rng = random.Random(8)
        values = [abs(rng.gauss(0, 1)) for _ in range(200)]
        for name in ("UDDM", "BM", "PM"):
            policy = build_policy(name)
            state = make_state(T=7, theta=0.95)
            gaps = 0
            for value in values:
                decision = policy.step(state, value)
                gaps += 1
                if decision.disseminate:
                    assert gaps <= 7
                    gaps = 0
            assert gaps < 7

    def test_quanta_views_and_reset(self):
        # The state keeps the last three quanta, oldest first; after a send
        # only the newest belongs to the fresh epoch (t = 1).
        state = make_state(T=10)
        for i in range(5):
            state.observe(np.array([float(i)]))
        assert [q.tolist() for q in state.quanta] == [[2.0], [3.0], [4.0]]
        assert state.t.tolist() == [1]
        assert BmPolicy().step(state, 9.0).cause == CAUSE_ANY_CHANGE
        assert [q.tolist() for q in state.quanta] == [[3.0], [4.0], [9.0]]
        assert state.t.tolist() == [1]

    @pytest.mark.parametrize("policy_cls", [UddmPolicy, PmPolicy])
    def test_score_exactly_at_theta_holds(self, policy_cls):
        # Read the first score the fixed stream produces, then rerun with theta
        # set to exactly that score: the trigger is a strict inequality, so the
        # round that scores theta, and every round before it, holds.
        stream = [1.0, 2.0, 4.0, 5.0]
        probe = feed(policy_cls(), make_state(T=10, theta=0.6), stream)
        first = next(i for i, d in enumerate(probe) if d.g is not None)
        theta = probe[first].g
        decisions = feed(policy_cls(), make_state(T=10, theta=theta), stream)
        assert decisions[first].g == theta
        assert [d.cause for d in decisions[: first + 1]] == [None] * (first + 1)

    def test_shortened_first_deadline(self):
        policy = BmPolicy()
        state = make_state(T=10, deadline=3)
        decisions = feed(policy, state, [0.0, 0.0, 0.0, 0.0])
        assert decisions[2].cause == CAUSE_DEADLINE
        assert state.deadline == 10  # back to the full epoch after the reset

    def test_state_validation(self):
        with pytest.raises(ConfigurationError):
            EpochState(T=0, theta=0.5)
        with pytest.raises(ConfigurationError):
            EpochState(T=5, theta=0.0)
        with pytest.raises(ConfigurationError):
            EpochState(T=5, theta=float("nan"))
        with pytest.raises(ConfigurationError):
            EpochState(T=5, theta=0.5, deadline=6)
        with pytest.raises(ConfigurationError):
            EpochState(T=5, theta=0.5, deadline=np.array([1, 5, 6]))
        with pytest.raises(ConfigurationError):
            EpochState(T=5, theta=0.5, window=0)

    def test_one_lane_or_many(self):
        assert EpochState(T=5, theta=0.5).deadline.tolist() == [5]
        assert EpochState(T=5, theta=0.5, deadline=3).deadline.tolist() == [3]
        state = EpochState(T=5, theta=0.5, deadline=np.array([5, 1, 2]))
        assert state.t.tolist() == [1, 1, 1]
        with pytest.raises(ConfigurationError, match="one lane"):
            BmPolicy().step(state, 1.0)

    @pytest.mark.parametrize("theta", [[0.6, 0.0], [0.6, -0.1], [float("nan"), 0.6],
                                       [0.6, 0.7, 0.8], [[0.6, 0.7]]],
                             ids=["zero", "negative", "nan", "too-many", "two-dimensional"])
    def test_threshold_array_validation(self, theta):
        with pytest.raises(ConfigurationError, match="thresholds must be positive and finite, one or one per lane"):
            EpochState(T=5, theta=np.array(theta), deadline=np.array([5, 5]))

    @pytest.mark.parametrize("policy_cls", [UddmPolicy, PmPolicy])
    def test_threshold_per_lane_equals_one_state_per_threshold(self, policy_cls):
        thetas = (0.2, 0.45, 0.7, 0.95)
        rng = random.Random(4)
        quanta = [rng.choice((0.0, rng.random(), 3 * rng.random())) for _ in range(60)]
        policy = policy_cls()
        state = EpochState(T=7, theta=np.array(thetas), deadline=np.full(len(thetas), 7))
        lanes = [policy.step_lanes(state, np.full(len(thetas), q)) for q in quanta]
        for i, theta in enumerate(thetas):
            one = make_state(T=7, theta=theta)
            for q, (t_star, sends, triggered, score) in zip(quanta, lanes):
                want = policy.step_lanes(one, np.array([q]))
                got = (t_star[i:i + 1], sends[i:i + 1], triggered[i:i + 1], score[i:i + 1])
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("quantum", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("policy_cls", [UddmPolicy, BmPolicy, PmPolicy])
    def test_step_rejects_a_quantum_that_is_no_distance(self, policy_cls, quantum):
        with pytest.raises(ConfigurationError, match="finite quantum"):
            policy_cls().step(make_state(), quantum)

    def test_fresh_state_normalizes_by_the_floor(self):
        assert make_state().normalize([0.0, 5e-10, 1.0]).tolist() == [0.0, pytest.approx(0.5), 1.0]

    def test_the_callers_deadline_array_is_never_written(self):
        deadline = np.array([1, 2])
        state = EpochState(T=4, theta=0.5, deadline=deadline)
        for _ in range(3):
            BmPolicy().step_lanes(state, np.zeros(2))
        assert deadline.tolist() == [1, 2]
        assert state.deadline.tolist() == [4, 4]

    def test_build_policy(self):
        assert isinstance(build_policy("UDDM"), UddmPolicy)
        assert isinstance(build_policy("BM"), BmPolicy)
        assert isinstance(build_policy("PM"), PmPolicy)
        with pytest.raises(ConfigurationError):
            build_policy("GOSSIP")
        with pytest.raises(ConfigurationError):
            build_policy("PM", alpha=1.0)


class TestForecastClamp:
    """A forecast that is not positive, -0.0 and NaN included, is clamped to +0.0,
    as `np.where(forecast > 0.0, forecast, 0.0)` clamps it, whatever the lane count."""

    CASES = {
        "negative-zero": ([-0.0], [-0.0]),
        "mixed": ([-0.0, -1.5, np.nan, 2.0, 0.0, 0.5], [-0.0, 0.25, 1.0, -0.5, -0.0, -1.0]),
    }

    @pytest.mark.parametrize("lanes", [1, 2, 3, 5, 17])
    @pytest.mark.parametrize("case", CASES)
    def test_nonpositive_and_nan_forecasts_become_positive_zero(self, monkeypatch, case, lanes):
        level, trend = (np.resize(values, lanes) for values in self.CASES[case])
        # The Holt step is replaced, so the forecasts are level + h * trend of the values above.
        monkeypatch.setattr(policies, "_holt_update", lambda *_: (level.copy(), trend.copy()))
        state = EpochState(T=10, theta=0.5, deadline=np.full(lanes, 10))
        raw = level + np.array([[1.0], [2.0], [3.0]]) * trend
        forecast = PmPolicy()._forecast(state)
        assert forecast.tobytes() == np.where(raw > 0.0, raw, 0.0).tobytes()
        assert not np.signbit(forecast).any()
