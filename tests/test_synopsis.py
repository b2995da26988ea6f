"""Synopsis maintenance, quantum computation, and normalization."""

import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.errors import ConfigurationError
from qsim.policies import EpochState

from scalar_synopsis import Synopsis, update_quantum, update_synopsis

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(*values):
    return tuple(float(v) for v in values)


class TestUpdateSynopsis:
    def test_two_point_mean(self):
        s = Synopsis(stats=(2.0,), count=1)
        out = update_synopsis(s, vec(4.0))
        assert out.stats == (3.0,)
        assert out.count == 2

    def test_fixed_point(self):
        s = Synopsis(stats=(5.0, 5.0), count=10)
        out = update_synopsis(s, vec(5.0, 5.0))
        assert out.stats == (5.0, 5.0)
        assert out.count == 11

    def test_stream_mean_matches_batch_recomputation(self):
        stream = [1.0, 2.0, 3.0, 4.0]
        s = Synopsis.empty(1)
        for v in stream:
            s = update_synopsis(s, vec(v))
        assert s.count == 4
        assert s.stats[0] == pytest.approx(statistics.mean(stream), abs=1e-12)
        assert s.stats[0] == 2.5

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            update_synopsis(Synopsis.empty(2), vec(1.0))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=12),
           st.randoms(use_true_random=False))
    def test_mean_is_permutation_insensitive(self, vectors, rng):
        def fold(vs):
            s = Synopsis.empty(3)
            for v in vs:
                s = update_synopsis(s, vec(*v))
            return s

        shuffled = list(vectors)
        rng.shuffle(shuffled)
        a, b = fold(vectors), fold(shuffled)
        assert a.count == b.count
        for x, y in zip(a.stats, b.stats):
            assert x == pytest.approx(y, abs=1e-9)


class TestUpdateQuantum:
    def test_identical_synopses(self):
        s = Synopsis(stats=(1.0, 2.0), count=3)
        assert update_quantum(s, s) == 0.0

    def test_sum_of_absolute_differences(self):
        a = Synopsis(stats=(1.0, 2.0), count=1)
        b = Synopsis(stats=(2.0, 0.0), count=2)
        assert update_quantum(a, b) == 3.0

    def test_matches_elementwise_recomputation(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Synopsis(stats=tuple(rng.uniform(-50, 50) for _ in range(5)), count=1)
            b = Synopsis(stats=tuple(rng.uniform(-50, 50) for _ in range(5)), count=2)
            expected = sum(abs(x - y) for x, y in zip(b.stats, a.stats))
            assert update_quantum(a, b) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            update_quantum(Synopsis.empty(2), Synopsis.empty(3))

    def test_returns_plain_float(self):
        q = update_quantum(Synopsis.empty(1), Synopsis(stats=(2.0,), count=1))
        assert type(q) is float and q == 2.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=4, max_size=4),
           st.lists(finite_floats, min_size=4, max_size=4))
    def test_symmetry(self, xs, ys):
        a = Synopsis(stats=tuple(xs), count=1)
        b = Synopsis(stats=tuple(ys), count=1)
        assert update_quantum(a, b) == update_quantum(b, a)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_floats, min_size=3, max_size=3),
           st.lists(finite_floats, min_size=3, max_size=3),
           st.lists(finite_floats, min_size=3, max_size=3))
    def test_triangle_inequality(self, xs, ys, zs):
        a = Synopsis(stats=tuple(xs), count=1)
        b = Synopsis(stats=tuple(ys), count=1)
        c = Synopsis(stats=tuple(zs), count=1)
        ab = update_quantum(a, b)
        bc = update_quantum(b, c)
        ac = update_quantum(a, c)
        assert ac <= ab + bc + 1e-9 * (1.0 + ab + bc)


class TestNormalizer:
    """The normaliser of a one-lane `EpochState`: window maximum, ratio, cut at 1."""

    @staticmethod
    def lane(window=50, values=()):
        state = EpochState(T=1, theta=0.5, window=window)
        for v in values:
            state.observe(np.array([v]))
        return state

    @staticmethod
    def normalize(state, value):
        (out,) = state.normalize(np.array([value])).tolist()
        return out

    def test_zero_maps_to_zero(self):
        assert self.normalize(self.lane(values=[12.0]), 0.0) == 0.0

    def test_window_maximum_maps_to_one(self):
        assert self.normalize(self.lane(values=[3.0, 12.0, 7.0]), 12.0) == 1.0

    def test_direct_ratio(self):
        assert self.normalize(self.lane(values=[3.0, 12.0, 7.0]), 3.0) == 0.25

    def test_eviction_of_old_maximum(self):
        norm = self.lane(window=3, values=[100.0, 1.0, 2.0])
        assert self.normalize(norm, 50.0) == 0.5
        norm.observe(np.array([4.0]))  # evicts the 100
        assert self.normalize(norm, 4.0) == 1.0
        assert self.normalize(norm, 2.0) == 0.5

    def test_output_always_in_unit_interval_and_zero_iff_zero(self):
        rng = random.Random(5)
        norm = self.lane(window=10)
        for _ in range(500):
            v = rng.uniform(0, 100)
            norm.observe(np.array([v]))
            out = self.normalize(norm, v)
            assert 0.0 <= out <= 1.0
            assert (out == 0.0) == (v == 0.0)
        norm.observe(np.array([0.0]))
        assert self.normalize(norm, 0.0) == 0.0

    def test_normalizes_a_computed_quantum(self):
        quantum = update_quantum(Synopsis(stats=(1.0, 1.0), count=1), Synopsis(stats=(2.0, 2.0), count=2))
        assert self.normalize(self.lane(values=[8.0]), quantum) == 0.25

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            EpochState(T=1, theta=0.5, window=0)
