"""Every argument rule of the library, as one table: integers, real numbers and named choices.

An integer argument is an `int` or a numpy integer, never a `bool`, a float or
text; a real number is an `int`, a `float` or a numpy number, never a `bool`
or text. An argument of many numbers takes a list or tuple of them, or an
array of an integer dtype (integers) or of an integer or floating dtype
(real numbers). Each row names an entry point, the argument it checks and the
message it must raise.
"""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qsim.errors import ConfigurationError
from qsim.forecasting import holt_forecast, holt_init, holt_step
from qsim.harness import ingest_sensor_log
from qsim.policies import BmPolicy, EpochState, UddmPolicy, build_policy
from qsim.simulator import ExperimentConfig, generate_synthetic_stream, run_cell, run_experiment
from qsim.synopsis import DataVector
from qsim.t2fls import IntervalTerm, default_engine, make_term

CONFIG = ExperimentConfig(policy="BM", T=4, E=1, N=2, seed=5)
STREAM = generate_synthetic_stream(5, CONFIG.vectors_per_experiment)
REPLAY = ExperimentConfig(policy="UDDM", T=6, E=3, N=2, source="replay")
# Rows of motes 1, 2 and -1, which the --mote flag accepts too.
SENSOR_LOG = "".join(f"2004-02-28 01:06:{epoch:02d} {epoch} {mote} 19.9 37.1 45.1 2.69\n"
                     for epoch in range(6) for mote in (1, 2, -1))


def ingest(mote):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "log.txt"
        log.write_text(SENSOR_LOG, encoding="utf-8")
        return ingest_sensor_log(log, mote=mote)


def jumping_stream(jump_prob):
    return generate_synthetic_stream(1, 6, profile="piecewise-constant", jump_prob=jump_prob)


# Each integer argument: the call that passes it `value`, and the name its messages give it.
INTEGER_ARGUMENTS = {
    "config-T": (lambda value: ExperimentConfig(policy="BM", E=2, T=value), "T"),
    "config-E": (lambda value: ExperimentConfig(policy="BM", E=value), "E"),
    "config-N": (lambda value: ExperimentConfig(policy="BM", E=2, N=value), "N"),
    "config-window": (lambda value: ExperimentConfig(policy="BM", E=2, window=value),
                      "normalization window"),
    "config-seed": (lambda value: ExperimentConfig(policy="BM", E=2, seed=value), "seed"),
    "epoch-T": (lambda value: EpochState(T=value, theta=0.5), "epoch length T"),
    "epoch-window": (lambda value: EpochState(T=5, theta=0.5, window=value), "normalization window"),
    "epoch-deadline": (lambda value: EpochState(T=5, theta=0.5, deadline=value), "epoch deadline"),
    "stream-seed": (lambda value: generate_synthetic_stream(value, 3), "seed"),
    "stream-list-seed": (lambda value: generate_synthetic_stream([1, value], 3), "seed"),
    "stream-length": (lambda value: generate_synthetic_stream(1, value), "stream length"),
    "stream-dims": (lambda value: generate_synthetic_stream(1, 3, dims=value), "stream dims"),
    "experiment-index": (lambda value: run_experiment(CONFIG, STREAM, experiment=value),
                         "experiment index"),
    "forecast-horizon": (lambda value: holt_forecast(holt_init(1.0, 2.0), value), "forecast horizon"),
    "ingest-mote": (ingest, "mote"),
}
NOT_INTEGERS = {"fraction": 2.5, "bool": True, "text": "3", "numpy-float": np.float64(2.0)}

REAL_CASES = [
    pytest.param(lambda: EpochState(T=5, theta=True), "theta must be a real number, got True",
                 id="epoch-theta-bool"),
    pytest.param(lambda: EpochState(T=5, theta="0.6"), "theta must be a real number, got '0.6'",
                 id="epoch-theta-text"),
    pytest.param(lambda: BmPolicy().step(EpochState(T=5, theta=0.5), True),
                 "quantum must be a real number, got True", id="step-quantum-bool"),
    pytest.param(lambda: BmPolicy().step(EpochState(T=5, theta=0.5), "1"),
                 "quantum must be a real number, got '1'", id="step-quantum-text"),
    pytest.param(lambda: IntervalTerm("low", (0.0, 0.0, 0.2, 0.45), height=True),
                 "term 'low': height must be a real number, got True", id="term-height-bool"),
    pytest.param(lambda: IntervalTerm("low", (0.0, 0.0, 0.2, 0.45), shrink="0"),
                 "term 'low': shrink must be a real number, got '0'", id="term-shrink-text"),
    pytest.param(lambda: make_term("low", False, False, 0.2, 0.45),
                 "term 'low': upper corner must be a real number, got False", id="term-corner-bool"),
    pytest.param(lambda: IntervalTerm("low", ("0", 0.0, 0.2, 0.45)),
                 "term 'low': upper corner must be a real number, got '0'", id="term-corner-text"),
    pytest.param(lambda: holt_init(1.0, 2.0, alpha="0.5"), "alpha must be a real number, got '0.5'",
                 id="holt-alpha-text"),
    pytest.param(lambda: UddmPolicy(beta="0.5"), "beta must be a real number, got '0.5'",
                 id="policy-beta-text"),
    # An array of many numbers goes through the same rule as one number.
    pytest.param(lambda: EpochState(T=5, theta=np.array(["0.5"])),
                 re.escape("theta must be a real number, got array(['0.5'], dtype='<U3')"),
                 id="epoch-theta-text-array"),
    pytest.param(lambda: EpochState(T=5, theta=np.array([True])),
                 re.escape("theta must be a real number, got array([ True])"), id="epoch-theta-bool-array"),
    pytest.param(lambda: default_engine().evaluate_many(np.array([True, False]), 0.2, 0.3),
                 re.escape("x1 must be a real number, got array([ True, False])"),
                 id="evaluate-many-bool-array"),
    pytest.param(lambda: default_engine().evaluate_many([0.1, "0.2"], [0.2, 0.2], [0.3, 0.3]),
                 re.escape("x1 must be a real number, got '0.2'"), id="evaluate-many-list-entry-text"),
    pytest.param(lambda: run_cell(REPLAY, np.full((40, 4), "1.5")),
                 re.escape("replay data must be a real number, got array([['1.5'..., dtype='<U3')"),
                 id="replay-text-array"),
    pytest.param(lambda: run_cell(REPLAY, np.ones((40, 4), complex)),
                 re.escape("replay data must be a real number, got array([[1.+0....0.j, 1.+0.j]])"),
                 id="replay-complex-array"),
    pytest.param(lambda: run_cell(REPLAY, [[1.0, 2.0, 3.0, 4.0]] * 40),
                 re.escape("replay data must be an array or DataVectors, got [[1.0, 2.0, 3.0, 4.0], [1.0,"),
                 id="replay-nested-list"),
    pytest.param(lambda: DataVector(("1",)), re.escape("data vector entry must be a real number, got '1'"),
                 id="data-vector-text"),
    pytest.param(lambda: DataVector((0.5, True)), re.escape("data vector entry must be a real number, got True"),
                 id="data-vector-bool"),
    pytest.param(lambda: default_engine().centroid("x" * 300),
                 re.escape(f"unknown term label '{'x' * 12}...{'x' * 13}'; expected one of ('low', 'medium', 'high')"),
                 id="centroid-label-cut"),
    # A threshold is finite: at an infinite one every send would be forced by the deadline.
    *(pytest.param(lambda theta=theta: ExperimentConfig(policy="BM", E=2, theta=theta),
                   re.escape(f"theta must be positive and finite, got {theta!r}"), id=f"config-theta-{text}")
      for text, theta in (("inf", math.inf), ("1e400", float("1e400")), ("nan", math.nan))),
    pytest.param(lambda: EpochState(T=5, theta=math.inf),
                 re.escape("thresholds must be positive and finite, one or one per lane, got array(inf)"),
                 id="epoch-theta-inf"),
    pytest.param(lambda: EpochState(T=5, theta=np.array([0.5, math.inf]), deadline=[5, 5]),
                 re.escape("thresholds must be positive and finite, one or one per lane, got array([0.5, inf])"),
                 id="epoch-theta-inf-array"),
]
# Each real-number argument that takes no other rule: the call that passes it `value`, and its name.
REAL_ARGUMENTS = {
    "holt-init-quantum": (lambda value: holt_init(value, 2.0), "quantum"),
    "holt-init-second-quantum": (lambda value: holt_init(1.0, value), "quantum"),
    "holt-step-quantum": (lambda value: holt_step(holt_init(1.0, 2.0), value), "quantum"),
    "stream-jump-prob": (jumping_stream, "jump_prob"),
    "evaluate-x1": (lambda value: default_engine().evaluate(value, 0.2, 0.3), "x1"),
    "evaluate-x2": (lambda value: default_engine().evaluate(0.1, value, 0.3), "x2"),
    "evaluate-x3": (lambda value: default_engine().evaluate(0.1, 0.2, value), "x3"),
    "evaluate-many-x1": (lambda value: default_engine().evaluate_many(value, 0.2, 0.3), "x1"),
    "evaluate-many-x2": (lambda value: default_engine().evaluate_many(0.1, value, 0.3), "x2"),
    "evaluate-many-x3": (lambda value: default_engine().evaluate_many(0.1, 0.2, value), "x3"),
}
NOT_REALS = {"bool": True, "text": "0.1"}


def _integer_cases():
    for argument, (call, name) in INTEGER_ARGUMENTS.items():
        for kind, value in NOT_INTEGERS.items():
            yield pytest.param(lambda call=call, value=value: call(value),
                               re.escape(f"{name} must be an integer, got {value!r}"),
                               id=f"{argument}-{kind}")
    # numpy would read a bool inside a list as the integer 1.
    for kind, value in {"bool": True, "numpy-bool": np.True_}.items():
        yield pytest.param(lambda value=value: EpochState(T=5, theta=0.5, deadline=[value, 2]),
                           re.escape(f"epoch deadline must be an integer, got {value!r}"),
                           id=f"epoch-deadline-list-{kind}")
    # An array's every entry lies in the range.
    for bad, deadline in ((0, [0, 2]), (6, [2, 6]), (9, [7, 9])):
        yield pytest.param(lambda deadline=deadline: EpochState(T=5, theta=0.5, deadline=np.array(deadline)),
                           re.escape(f"epoch deadline must lie in [1, 5], got {bad}"),
                           id=f"epoch-deadline-array-{bad}")


def _real_cases():
    for argument, (call, name) in REAL_ARGUMENTS.items():
        for kind, value in NOT_REALS.items():
            yield pytest.param(lambda call=call, value=value: call(value),
                               re.escape(f"{name} must be a real number, got {value!r}"),
                               id=f"{argument}-{kind}")
    for value in (float("nan"), -0.1, 1.1):
        yield pytest.param(lambda value=value: jumping_stream(value),
                           re.escape(f"jump_prob must lie in [0, 1], got {value!r}"),
                           id=f"stream-jump-prob-{value!r}")
    # A fraction or text equals no mote id, so it would keep no rows in silence.
    for value in (1.5, "1"):
        yield pytest.param(lambda value=value: ingest(value),
                           re.escape(f"mote must be an integer, got {value!r}"), id=f"ingest-mote-{value!r}")


@pytest.mark.parametrize("call, message", [
    *_integer_cases(),
    *REAL_CASES,
    *_real_cases(),
    pytest.param(lambda: IntervalTerm("low", (0, 0.2, 0.45)),
                 re.escape("term 'low': upper shape needs 4 corners, got (0, 0.2, 0.45)"),
                 id="term-three-corners"),
    # An epoch's rounds are counted in int64.
    pytest.param(lambda: EpochState(T=2**63, theta=0.5),
                 re.escape("epoch length T must lie in [1, 9223372036854775807], got 9223372036854775808"),
                 id="epoch-T-above-int64"),
    pytest.param(lambda: ExperimentConfig(policy="BM", E=np.int64(2**31)),
                 re.escape("E must lie in [1, 2147483647], got 2147483648"), id="numpy-integer-bound"),
    pytest.param(lambda: build_policy("XM"), re.escape("unknown policy 'XM'; expected one of"),
                 id="policy-name"),
    pytest.param(lambda: ExperimentConfig(policy=np.array(["BM"])),
                 re.escape("unknown policy array(['BM'], dtype='<U2'); expected one of"), id="policy-array"),
    pytest.param(lambda: generate_synthetic_stream(1, 3, profile="brown"),
                 re.escape("unknown stream profile 'brown'; expected one of"), id="stream-profile"),
])
def test_argument_rule(call, message):
    with pytest.raises(ConfigurationError, match=message):
        call()


def test_numpy_integers_accepted():
    state = EpochState(T=np.int64(5), theta=0.5, deadline=np.int32(2), window=np.int64(3))
    assert state.deadline.tolist() == [2] and state.deadline.dtype == np.int64
    assert (generate_synthetic_stream(np.int64(4), np.int32(6), dims=np.int64(2))
            == generate_synthetic_stream(4, 6, dims=2))
    assert generate_synthetic_stream([np.int64(1), np.uint8(2)], 3) == generate_synthetic_stream([1, 2], 3)
    assert holt_forecast(holt_init(1.0, 2.0), np.int64(2)) == holt_forecast(holt_init(1.0, 2.0), 2)


def test_numpy_experiment_index_keeps_the_int32_column():
    trace = run_experiment(CONFIG, STREAM, experiment=np.int64(2))
    assert trace.events.experiment.dtype == np.int32
    assert trace.events == run_experiment(CONFIG, STREAM, experiment=2).events


def test_jump_prob_bounds_accepted():
    assert {x.values for x in jumping_stream(0.0)} == {(0.0,) * 4}
    assert len({x.values for x in jumping_stream(1.0)}) == 6


def test_any_integer_mote_accepted():
    for mote in (1, -1, np.int64(2)):
        result = ingest(mote)
        assert len(result) == 6 and result.mote == mote
    assert len(ingest(None)) == 18


def test_arrays_of_integer_and_float32_dtypes_accepted():
    """int32, int64 and float32 arrays, 0-d arrays and numpy scalars give the float64 results bit for bit."""
    engine = default_engine()
    corners = np.array([[0, 1, 1, 0, 1], [0, 0, 1, 1, 1], [1, 0, 1, 0, 0]], dtype=float)
    quarters = np.array([[0.25, 0.5, 0.75], [0.125, 0.5, 1.0], [0.75, 0.375, 0.0]])
    for reference, dtypes in ((corners, (np.int32, np.int64, np.float32)), (quarters, (np.float32,))):
        expected = engine.evaluate_many(*reference).tobytes()
        for dtype in dtypes:
            assert engine.evaluate_many(*reference.astype(dtype)).tobytes() == expected
    expected = engine.evaluate_many(0.25, 1.0, 0.5)
    for triple in ((np.array(0.25), np.array(1), np.array(0.5, np.float32)),
                   (np.float32(0.25), np.int64(1), np.float64(0.5))):
        result = engine.evaluate_many(*triple)
        assert result.shape == () and result.tobytes() == expected.tobytes()
    assert engine.evaluate(np.float32(0.25), np.int64(1), np.float64(0.5)) == float(expected)

    reference = EpochState(T=5, theta=np.array([1.0, 2.0]), deadline=np.array([5, 3]))
    for dtype in (np.int32, np.int64):
        state = EpochState(T=5, theta=np.array([1, 2], dtype), deadline=np.array([5, 3], dtype))
        assert (state.theta.tobytes(), state.deadline.tobytes()) == (reference.theta.tobytes(),
                                                                     reference.deadline.tobytes())
    assert EpochState(T=5, theta=np.array([1, 2], np.float32), deadline=[5, 3]).theta.tobytes() \
        == reference.theta.tobytes()
    reference = EpochState(T=5, theta=0.5, deadline=3)
    for theta, deadline in ((np.array(0.5), np.array(3)), (np.float32(0.5), np.int32(3)), (np.int64(1), 3)):
        state = EpochState(T=5, theta=theta, deadline=deadline)
        assert state.theta.tobytes() == np.float64(theta).tobytes() and state.theta.shape == ()
        assert state.deadline.tobytes() == reference.deadline.tobytes()

    rows = np.cumsum(np.random.default_rng(3).integers(-4, 5, size=(REPLAY.E * REPLAY.vectors_per_experiment, 4)),
                     axis=0)
    expected = run_cell(REPLAY, rows.astype(float))
    assert expected.message_count > 0
    for dtype in (np.int32, np.int64, np.float32):
        assert run_cell(REPLAY, rows.astype(dtype)) == expected
    vectors = [DataVector(tuple(np.float32(v) for v in row)) for row in rows.tolist()]
    assert run_cell(REPLAY, vectors) == expected
