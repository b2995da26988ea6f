"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else. The slow criteria (directional
reproduction and the full-scale grid) are real wall-clock gates.
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

from qsim.forecasting import HoltState, holt_forecast, holt_init, holt_step
from qsim.harness import load_config, run_grid, write_reports
from qsim.policies import combine_pods
from qsim.simulator import ExperimentConfig, generate_synthetic_stream, run_cell, run_experiment
from qsim.t2fls import (InferenceEngine, IntervalTerm, default_engine, default_rule_base, default_terms,
                        trapezoid)

from reference_sim import reference_trace

# pinned tolerances, straight from the criteria
TOL_HOLT = 1e-9
TOL_T2FLS = 1e-9
TOL_FUSION = 1e-12
RUNS = 20
ORDERING_QUORUM = 18  # >= 90% of 20 seeded runs


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number:02d} ({label}): FAIL")
        raise
    else:
        print(f"[ACCEPTANCE] criterion {number:02d} ({label}): PASS")


def test_criterion_01_holt_exactness():
    with criterion(1, "holt exactness"):
        started = time.perf_counter()
        # e_j = 2 + 3j with unit smoothing factors tracks the line exactly
        series = [2.0 + 3.0 * j for j in range(1, 40)]
        state = HoltState(level=series[1], trend=series[1] - series[0],
                          alpha=1.0, beta=1.0, observations=2)
        for j, e in enumerate(series[2:], start=3):
            state = holt_step(state, e)
            forecast = holt_forecast(state, 3)
            for k, value in enumerate(forecast, start=1):
                assert abs(value - (2.0 + 3.0 * (j + k))) <= TOL_HOLT
        # constant series: the trend stays at zero for 100 random factor draws
        rng = random.Random(0)
        for _ in range(100):
            alpha, beta = rng.uniform(1e-6, 1 - 1e-6), rng.uniform(1e-6, 1 - 1e-6)
            c = rng.uniform(-1e3, 1e3)
            state = holt_init(c, c, alpha, beta)
            for _ in range(30):
                state = holt_step(state, c)
                assert abs(state.trend) <= TOL_HOLT
                assert abs(state.level - c) <= TOL_HOLT * max(1.0, abs(c))
        assert time.perf_counter() - started < 1.0


def test_criterion_02_recurrence_oracle():
    with criterion(2, "recurrence oracle"):
        rng = random.Random(1)
        for _ in range(1000):
            n = rng.randint(2, 50)
            series = [rng.uniform(0.0, 25.0) for _ in range(n)]
            alpha, beta = rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)
            # independent direct evaluation of the recurrences
            v = series[0]
            b = series[1] - series[0]
            for e in series[1:]:
                v_new = alpha * e + (1.0 - alpha) * (v + b)
                b = beta * (v_new - v) + (1.0 - beta) * b
                v = v_new
            state = holt_init(series[0], series[1], alpha, beta)
            for e in series[2:]:
                state = holt_step(state, e)
            assert abs(state.level - v) <= TOL_HOLT
            assert abs(state.trend - b) <= TOL_HOLT
            forecast = holt_forecast(state, 3)
            for k, value in enumerate(forecast, start=1):
                assert abs(value - max(0.0, v + k * b)) <= TOL_HOLT


def test_criterion_03_t2fls_properties():
    with criterion(3, "t2fls properties"):
        engine = default_engine()
        # interval containment on a 1001-point grid for every term
        for term in default_terms():
            for i in range(1001):
                lo, hi = term.membership(i / 1000)
                assert 0.0 <= lo <= hi <= 1.0
        # range and componentwise monotonicity over 1000 random ordered pairs
        rng = random.Random(0)
        for _ in range(1000):
            u = [rng.random() for _ in range(3)]
            w = [x + rng.random() * (1.0 - x) for x in u]
            pu, pw = engine.evaluate(*u), engine.evaluate(*w)
            assert 0.0 <= pu <= 1.0 and 0.0 <= pw <= 1.0
            assert pu <= pw + TOL_T2FLS
        # Type-1 degeneration: a zero footprint reproduces the single-membership
        # weighted-centroid evaluator
        terms = tuple(IntervalTerm(t.label, t.upper, shrink=0.0, height=1.0)
                      for t in default_terms())
        collapsed = InferenceEngine(terms=terms)
        base = default_rule_base()

        def type1_centroid(term):
            num = den = 0.0
            for i in range(101):
                x = i / 100
                g = trapezoid(x, *term.upper)
                num += x * g
                den += g
            return num / den

        centroids = {t.label: type1_centroid(t) for t in terms}
        labels = tuple(t.label for t in terms)

        def type1(x1, x2, x3):
            num = den = 0.0
            for combo in product(labels, repeat=3):
                firing = min(
                    trapezoid(x, *terms[labels.index(l)].upper)
                    for x, l in zip((x1, x2, x3), combo)
                )
                num += firing * centroids[base.consequent(combo)]
                den += firing
            return 0.0 if den <= 0.0 else num / den

        rng = random.Random(3)
        for _ in range(500):
            triple = tuple(rng.random() for _ in range(3))
            assert abs(collapsed.evaluate(*triple) - type1(*triple)) <= TOL_T2FLS


def test_criterion_04_fusion_properties():
    with criterion(4, "fusion properties"):
        rng = random.Random(4)
        for _ in range(10000):
            a, b = rng.random(), rng.random()
            g = combine_pods(a, b)
            assert combine_pods(0.0, b) == 0.0
            assert abs(combine_pods(a, a) - a) <= TOL_FUSION
            assert min(a, b) - TOL_FUSION <= g <= max(a, b) + TOL_FUSION


def test_criterion_05_deadline_liveness():
    with criterion(5, "deadline liveness"):
        # unreachable threshold: every epoch ends at exactly t = T, psi = T
        for policy in ("UDDM", "PM"):
            for profile in ("drift", "random-walk", "piecewise-constant"):
                config = ExperimentConfig(policy=policy, T=7, theta=1.01, E=10,
                                          seed=5, profile=profile)
                report = run_cell(config)
                assert report.psi == 7.0
                assert report.phi == 1.0
                assert all(e.cause == "deadline" and e.t_star == 7
                           for e in report.per_experiment)
        # constant streams: every policy ends every epoch at the deadline
        stream = generate_synthetic_stream(6, 100, profile="piecewise-constant", jump_prob=0.0)
        for policy in ("UDDM", "BM", "PM"):
            config = ExperimentConfig(policy=policy, T=6, theta=0.6, E=1)
            assert {e.cause for e in run_experiment(config, stream)} == {"deadline"}


def _ordering_grid(seed):
    reports = {}
    for policy in ("UDDM", "BM", "PM"):
        for T in (10, 100):
            for theta in (0.6, 0.75):
                config = ExperimentConfig(policy=policy, T=T, theta=theta, E=100, seed=seed)
                reports[(policy, T, theta)] = run_cell(config)
    return reports


def test_criterion_06_directional_reproduction():
    with criterion(6, "directional delta/psi orderings"):
        started = time.perf_counter()
        cells = [(T, theta) for T in (10, 100) for theta in (0.6, 0.75)]
        wins = {"delta_bm": 0, "delta_pm": 0, "psi_bm": 0, "psi_pm": 0}
        for run in range(RUNS):
            reports = _ordering_grid(3000 + run)
            if all(reports[("UDDM", *c)].delta >= reports[("BM", *c)].delta for c in cells):
                wins["delta_bm"] += 1
            if all(reports[("UDDM", *c)].delta >= reports[("PM", *c)].delta for c in cells):
                wins["delta_pm"] += 1
            if all(reports[("UDDM", *c)].psi >= reports[("BM", *c)].psi for c in cells):
                wins["psi_bm"] += 1
            if all(reports[("UDDM", *c)].psi >= reports[("PM", *c)].psi for c in cells):
                wins["psi_pm"] += 1
        elapsed = time.perf_counter() - started
        for name, count in wins.items():
            assert count >= ORDERING_QUORUM, f"ordering {name} held in only {count}/{RUNS} runs"
        assert elapsed < 60.0, f"directional grid took {elapsed:.1f}s"


def test_criterion_07_phi_trend():
    with criterion(7, "phi trend across (theta, T)"):
        wins = 0
        for run in range(RUNS):
            seed = 5000 + run
            eager = run_cell(ExperimentConfig(policy="UDDM", T=10, theta=0.6, E=100, seed=seed))
            patient = run_cell(ExperimentConfig(policy="UDDM", T=1000, theta=0.75, E=100, seed=seed))
            if eager.phi > patient.phi:
                wins += 1
        assert wins >= ORDERING_QUORUM, f"phi ordering held in only {wins}/{RUNS} runs"


def test_criterion_08_bruteforce_equivalence():
    with criterion(8, "brute-force trace equivalence"):
        for policy in ("UDDM", "BM", "PM"):
            for T in (1, 2, 3, 5):
                for theta in (0.3, 0.6, 1.01):
                    for profile, seed in (("drift", 11), ("random-walk", 22),
                                          ("piecewise-constant", 33)):
                        config = ExperimentConfig(policy=policy, T=T, theta=theta,
                                                  E=2, seed=seed, source="replay",
                                                  profile=profile)
                        dataset = generate_synthetic_stream(
                            seed, 2 * config.vectors_per_experiment, profile=profile)
                        report = run_cell(config, dataset=dataset)
                        expected = []
                        size = config.vectors_per_experiment
                        for i in range(2):
                            slice_ = dataset[i * size:(i + 1) * size].tolist()
                            for event in reference_trace(slice_, policy, T=T, theta=theta):
                                expected.append((i, event))
                        assert len(report.per_experiment) == len(expected)
                        for got, (exp_i, want) in zip(report.per_experiment, expected):
                            assert got.experiment == exp_i
                            assert (got.node, got.step, got.t_star, got.cause) == (
                                want["node"], want["step"], want["t_star"], want["cause"])
                            assert got.magnitude == pytest.approx(want["magnitude"], abs=1e-9)
                            if want["g"] is None:
                                assert got.g is None
                            else:
                                assert got.g == pytest.approx(want["g"], abs=1e-9)


def test_criterion_09_determinism(tmp_path):
    with criterion(9, "byte-identical reports"):
        overrides = {"policy": "UDDM,BM,PM", "t": "5,9", "theta": "0.6",
                     "e": "15", "seed": "12"}
        config_a = load_config(cli_overrides=dict(overrides), environ={})
        config_b = load_config(cli_overrides=dict(overrides), environ={})
        out_a = write_reports(*run_grid(config_a), tmp_path / "a")
        out_b = write_reports(*run_grid(config_b), tmp_path / "b")
        names = sorted(p.name for p in out_a.glob("*.csv"))
        assert names, "reports must exist"
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        config_w = load_config(cli_overrides=dict(overrides, workers="2"), environ={})
        out_w = write_reports(*run_grid(config_w), tmp_path / "w")
        for name in names:
            assert (out_a / name).read_bytes() == (out_w / name).read_bytes()


def test_criterion_10_scale(tmp_path):
    with criterion(10, "full-grid scale"):
        started = time.perf_counter()
        config = load_config(
            cli_overrides={
                "policy": "UDDM,BM,PM", "t": "10,100,1000", "theta": "0.6,0.75",
                "e": "1000", "seed": "42", "workers": "2",
                "out-dir": str(tmp_path / "grid"),
            },
            environ={},
        )
        reports, manifest = run_grid(config)
        write_reports(reports, manifest, config.out_dir)
        elapsed = time.perf_counter() - started
        assert len(reports) == 18
        assert all(r.message_count == len(r.per_experiment) for r in reports)
        print(f"[ACCEPTANCE] full grid wall time: {elapsed:.1f}s")
        assert elapsed < 300.0, f"full grid took {elapsed:.1f}s"
