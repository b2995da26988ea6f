"""Every argument rule of the library, as one table: integers, real numbers and named choices.

An integer argument is an `int` or a numpy integer, never a `bool`, a float or
text; a real number is an `int`, a `float` or a numpy number, never a `bool`
or text. Each row names an entry point, the argument it checks and the
message it must raise.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qsim.errors import ConfigurationError
from qsim.forecasting import holt_forecast, holt_init, holt_step
from qsim.harness import ingest_sensor_log
from qsim.policies import BmPolicy, EpochState, UddmPolicy, build_policy
from qsim.simulator import ExperimentConfig, generate_synthetic_stream, run_experiment
from qsim.t2fls import IntervalTerm, default_engine, make_term

CONFIG = ExperimentConfig(policy="BM", T=4, E=1, N=2, seed=5)
STREAM = generate_synthetic_stream(5, CONFIG.vectors_per_experiment)
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
}
NOT_REALS = {"bool": True, "text": "0.1"}

DEADLINE = r"epoch deadlines \[.+\] must be integers in \[1, T=5\]"


def _integer_cases():
    for argument, (call, name) in INTEGER_ARGUMENTS.items():
        for kind, value in NOT_INTEGERS.items():
            yield pytest.param(lambda call=call, value=value: call(value),
                               re.escape(f"{name} must be an integer, got {value!r}"),
                               id=f"{argument}-{kind}")
    for kind, value in NOT_INTEGERS.items():
        yield pytest.param(lambda value=value: EpochState(T=5, theta=0.5, deadline=value), DEADLINE,
                           id=f"epoch-deadline-{kind}")
    # numpy would read a bool inside a list as the integer 1.
    for kind, value in {"bool": True, "numpy-bool": np.True_}.items():
        yield pytest.param(lambda value=value: EpochState(T=5, theta=0.5, deadline=[value, 2]), DEADLINE,
                           id=f"epoch-deadline-list-{kind}")


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
