"""Fuzzy engine: term geometry, rule base, firing, reduction, and its properties."""

import dataclasses
import logging
import pickle
import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim.errors import ConfigurationError
from qsim.t2fls import (
    TERM_LABELS,
    InferenceEngine,
    IntervalTerm,
    RuleBase,
    default_engine,
    default_rule_base,
    default_terms,
    engine_from_config,
    trapezoid,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def grid_centroid(term, points=101):
    """Independent centroid oracle on the uniform grid."""
    num = den = 0.0
    for i in range(points):
        x = i / (points - 1)
        lo, hi = term.membership(x)
        num += x * (lo + hi) / 2
        den += (lo + hi) / 2
    return num / den


def nie_tan(engine, firing):
    """Independent output oracle for explicit firing intervals {antecedents: (lo, hi)}:
    Nie-Tan midpoints weighting the grid centroids of the consequent terms."""
    terms = {t.label: t for t in engine.terms}
    num = den = 0.0
    for combo, (lo, hi) in firing.items():
        mass = (lo + hi) / 2
        num += mass * grid_centroid(terms[engine.rules.consequent(combo)])
        den += mass
    return 0.0 if den <= 0.0 else num / den


def boundwise_min_firing(engine, inputs):
    """Firing interval of every rule: minimum of the antecedent lower bounds, and of the upper ones."""
    by_label = [{t.label: t.membership(x) for t in engine.terms} for x in inputs]
    return {
        combo: (
            min(m[label][0] for m, label in zip(by_label, combo)),
            min(m[label][1] for m, label in zip(by_label, combo)),
        )
        for combo in product(TERM_LABELS, repeat=3)
    }


GAPPY_TERMS = (
    IntervalTerm("low", (0.0, 0.0, 0.1, 0.2)),
    IntervalTerm("medium", (0.4, 0.45, 0.55, 0.6)),
    IntervalTerm("high", (0.8, 0.9, 1.0, 1.0)),
)

# Shrunk lower supports: unlike the default terms, whose lower shapes are the
# upper ones scaled by 0.9, the lower bound here does not cancel out of the
# weighted average, so a defuzzifier that ignores it gives a different output.
SHRUNK = InferenceEngine(terms=tuple(IntervalTerm(t.label, t.upper, shrink=0.3) for t in default_terms()))


def scalar_memberships(engine, x):
    """Lower and upper grade of x in each of the engine's terms, clamping stray inputs."""
    x = min(max(x, 0.0), 1.0)
    lows = tuple(t.height * trapezoid(x, *t.lower) for t in engine.terms)
    highs = tuple(trapezoid(x, *t.upper) for t in engine.terms)
    return lows, highs


def scalar_evaluate(engine, x1, x2, x3):
    """Bit-exact scalar reference for `evaluate_many`, one triple at a time.

    The 27 rules in rule order; a rule whose upper firing is 0 is skipped, and
    each other adds its lower plus upper firing (2x the Nie-Tan midpoint).
    """
    l1, u1 = scalar_memberships(engine, x1)
    l2, u2 = scalar_memberships(engine, x2)
    l3, u3 = scalar_memberships(engine, x3)
    labels = [t.label for t in engine.terms]
    centroids = [engine.centroid(engine.rules.consequent(c)) for c in product(labels, repeat=3)]
    num = 0.0
    den = 0.0
    for i in range(3):
        a_lo = l1[i]
        a_hi = u1[i]
        if a_hi <= 0.0:
            continue
        for j in range(3):
            b_hi = min(u2[j], a_hi)
            if b_hi <= 0.0:
                continue
            b_lo = min(l2[j], a_lo)
            for k in range(3):
                hi = min(u3[k], b_hi)
                if hi <= 0.0:
                    continue
                mass = min(l3[k], b_lo) + hi
                num += mass * centroids[9 * i + 3 * j + k]
                den += mass
    if den <= 0.0:
        return 0.0
    return min(num / den, 1.0)


class TestTrapezoid:
    def test_plateau_and_outside(self):
        assert trapezoid(0.5, 0.2, 0.4, 0.6, 0.8) == 1.0
        assert trapezoid(0.1, 0.2, 0.4, 0.6, 0.8) == 0.0
        assert trapezoid(0.9, 0.2, 0.4, 0.6, 0.8) == 0.0

    def test_linear_edges(self):
        assert trapezoid(0.3, 0.2, 0.4, 0.6, 0.8) == pytest.approx(0.5)
        assert trapezoid(0.7, 0.2, 0.4, 0.6, 0.8) == pytest.approx(0.5)

    def test_degenerate_shoulders(self):
        assert trapezoid(0.0, 0.0, 0.0, 0.2, 0.45) == 1.0
        assert trapezoid(1.0, 0.55, 0.8, 1.0, 1.0) == 1.0


class TestTerms:
    def test_interval_containment_on_fine_grid(self):
        for term in default_terms():
            for i in range(1001):
                x = i / 1000
                lo, hi = term.membership(x)
                assert 0.0 <= lo <= hi <= 1.0

    def test_containment_holds_for_shrunk_lower_supports(self):
        term = IntervalTerm("medium", (0.2, 0.45, 0.55, 0.8), shrink=0.2, height=0.8)
        for i in range(1001):
            x = i / 1000
            lo, hi = term.membership(x)
            assert lo <= hi + 1e-12

    def test_misordered_shape_rejected(self):
        with pytest.raises(ConfigurationError, match="upper shape"):
            IntervalTerm(label="bad", upper=(0.5, 0.4, 0.6, 0.8))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(unit, min_size=4, max_size=4), st.floats(0.0, 1.0, exclude_max=True),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_derived_lower_lies_inside_upper(self, corners, shrink, height):
        term = IntervalTerm("t", tuple(sorted(corners)), shrink=shrink, height=height)
        (a, b, c, d), (la, lb, lc, ld) = term.upper, term.lower
        assert a <= la <= lb == b and c == lc <= ld <= d
        # Both grades are linear between consecutive corners and jump only at
        # a vertical edge, so the corners and the midpoints between them cover
        # every piece; the grid samples the shape as a user would.
        points = sorted({*term.upper, *term.lower})
        points += [(p + q) / 2 for p, q in zip(points, points[1:])]
        for x in points + [i / 1000 for i in range(1001)]:
            lo, hi = term.membership(x)
            assert lo <= hi + 1e-12, x

    def test_lower_corners_of_a_shrunk_shape(self):
        term = IntervalTerm("medium", (0.0, 0.5, 0.75, 1.0), shrink=0.5, height=0.8)
        assert term.lower == (0.25, 0.5, 0.75, 0.875)
        assert term.membership(0.375) == (0.8 * 0.5, 0.75)

    def test_lower_is_derived_again_on_pickle_and_replace(self):
        term = IntervalTerm("medium", (0.0, 0.5, 0.75, 1.0), shrink=0.5)
        assert pickle.loads(pickle.dumps(term)) == term
        assert pickle.loads(pickle.dumps(term)).lower == (0.25, 0.5, 0.75, 0.875)
        assert dataclasses.replace(term, shrink=0.25).lower == (0.125, 0.5, 0.75, 0.9375)

    def test_shape_defaults(self):
        upper = (0.2, 0.45, 0.55, 0.8)
        assert IntervalTerm("medium", upper) == IntervalTerm("medium", upper, shrink=0.0, height=0.9)

    def test_explicit_lower_is_not_accepted(self):
        upper = (0.2, 0.45, 0.55, 0.8)
        # A lower shape in third position would otherwise be read as `shrink`.
        with pytest.raises(TypeError):
            IntervalTerm("medium", upper, upper)
        with pytest.raises(TypeError):
            IntervalTerm("medium", upper, lower=upper)
        with pytest.raises(TypeError):
            IntervalTerm("medium", upper, 0.2, 0.8)

    def test_invalid_height_and_shrink(self):
        with pytest.raises(ConfigurationError):
            IntervalTerm("x", (0.0, 0.1, 0.2, 0.3), height=0.0)
        with pytest.raises(ConfigurationError):
            IntervalTerm("x", (0.0, 0.1, 0.2, 0.3), shrink=1.0)


class TestFuzzify:
    def test_plateau_with_explicit_height(self):
        term = IntervalTerm("high", (0.55, 0.8, 1.0, 1.0), height=0.8)
        assert term.membership(0.9) == (0.8, 1.0)

    def test_outside_support_is_zero_interval(self):
        low = default_terms()[0]
        assert low.membership(0.9) == (0.0, 0.0)

    def test_rising_edge_matches_direct_interpolation(self):
        high = default_terms()[2]
        for x in (0.6, 0.65, 0.7, 0.78):
            g = (x - 0.55) / (0.8 - 0.55)
            lo, hi = high.membership(x)
            assert hi == pytest.approx(g, abs=1e-12)
            assert lo == pytest.approx(0.9 * g, abs=1e-12)

    def test_out_of_range_input_clamped_with_diagnostic(self, caplog):
        engine = default_engine()
        with caplog.at_level("WARNING"):
            got = engine.evaluate(-0.25, 0.5, 0.5)
        assert got == engine.evaluate(0.0, 0.5, 0.5)
        assert any("clamp" in r.message for r in caplog.records)

    def test_nan_input_rejected(self):
        with pytest.raises(ConfigurationError, match="NaN"):
            default_engine().evaluate(float("nan"), 0.5, 0.5)


class TestFireRule:
    """Rule firing as evaluate sees it: the boundwise minimum of the antecedent intervals."""

    # Low and medium reach (1, 1) on their plateaus; high tops out at (0.5, 1).
    TERMS = (
        IntervalTerm("low", (0.0, 0.0, 0.2, 0.45), shrink=0.3, height=1.0),
        IntervalTerm("medium", (0.2, 0.45, 0.55, 0.8), shrink=0.3, height=1.0),
        IntervalTerm("high", (0.55, 0.8, 1.0, 1.0), shrink=0.3, height=0.5),
    )

    def test_identity(self):
        # x2 = x3 = 0 are (1, 1) in low and (0, 0) elsewhere, so each firing
        # rule (t, low, low) fires exactly x1's own interval in t.
        engine = InferenceEngine(terms=self.TERMS)
        low = self.TERMS[0]
        assert low.membership(0.0) == (1.0, 1.0)
        for x in (0.6, 0.7, 0.75):
            firing = {(t.label, "low", "low"): t.membership(x) for t in self.TERMS}
            assert engine.evaluate(x, 0.0, 0.0) == pytest.approx(nie_tan(engine, firing), abs=1e-12)

    def test_annihilator(self):
        # 0.3 lies in a coverage gap: (0, 0) in every term kills every rule,
        # whatever the other two inputs fire.
        engine = InferenceEngine(terms=GAPPY_TERMS)
        for x1, x3 in ((0.0, 1.0), (0.5, 0.5), (1.0, 0.05)):
            assert engine.evaluate(x1, 0.3, x3) == 0.0

    def test_componentwise_minimum(self):
        # In rule (low, high, high) the lower bound comes from high's (0.5, 1)
        # and the upper one from low's interval at 0.25: the firing interval is
        # neither antecedent's interval.
        engine = InferenceEngine(terms=self.TERMS)
        low, medium, high = self.TERMS
        lo_low, hi_low = low.membership(0.25)
        lo_high, hi_high = high.membership(1.0)
        assert lo_high < lo_low and hi_low < hi_high
        assert medium.membership(0.25)[0] == 0.0
        firing = {
            ("low", "high", "high"): (lo_high, hi_low),
            ("medium", "high", "high"): medium.membership(0.25),
        }
        weakest = {**firing, ("low", "high", "high"): (lo_low, hi_low)}
        out = engine.evaluate(0.25, 1.0, 1.0)
        assert out == pytest.approx(nie_tan(engine, firing), abs=1e-12)
        assert abs(out - nie_tan(engine, weakest)) > 1e-3

    def test_arity_mismatch(self):
        table = dict(default_rule_base().table)
        del table[("low", "low", "low")]
        table[("low", "low")] = "low"
        with pytest.raises(ConfigurationError, match="exactly 3 antecedents"):
            RuleBase(table)


class TestRuleBase:
    def test_default_is_complete_and_monotone(self):
        base = default_rule_base()
        assert len(base) == 27
        assert set(base.table) == set(product(TERM_LABELS, repeat=3))

    def test_rank_average_spot_values(self):
        base = default_rule_base()
        assert base.consequent(("low", "low", "low")) == "low"
        assert base.consequent(("medium", "low", "low")) == "low"       # mean 1/3 rounds down
        assert base.consequent(("high", "low", "low")) == "medium"      # mean 2/3 rounds up
        assert base.consequent(("high", "high", "low")) == "medium"     # mean 4/3 rounds down
        assert base.consequent(("high", "high", "medium")) == "high"    # mean 5/3 rounds up
        assert base.consequent(("high", "high", "high")) == "high"

    def test_incomplete_base_rejected(self):
        table = dict(default_rule_base().table)
        del table[("high", "high", "high")]
        with pytest.raises(ConfigurationError, match="incomplete"):
            RuleBase(table)

    def test_non_monotone_base_rejected(self):
        table = dict(default_rule_base().table)
        table[("high", "high", "high")] = "low"
        with pytest.raises(ConfigurationError, match="monotone"):
            RuleBase(table)

    def test_unknown_label_rejected(self):
        table = dict(default_rule_base().table)
        table[("low", "low", "low")] = "enormous"
        with pytest.raises(ConfigurationError, match="unknown term label"):
            RuleBase(table)


class TestFootprint:
    """The default footprint changes no output beyond rounding: each lower grade is
    0.9 x its upper one, so a rule's Nie-Tan mass is 1.9 x its upper firing, and the
    factor cancels in the centroid ratio. A shrunk lower shape does not cancel."""

    def test_default_engine_equals_type_1_and_a_shrunk_one_does_not(self):
        x = np.random.default_rng(16).random((3, 20_000))
        default = default_engine().evaluate_many(*x)
        for shape, agrees in (({"height": 1.0}, True), ({"shrink": 0.5}, False)):
            engine = InferenceEngine([IntervalTerm(t.label, t.upper, **shape) for t in default_terms()])
            gap = np.abs(engine.evaluate_many(*x) - default).max()
            assert (gap <= 1e-15) == agrees, (shape, gap)


class TestEvaluate:
    def test_all_low_inputs_hit_the_low_centroid(self):
        engine = default_engine()
        expected = grid_centroid(default_terms()[0])
        assert engine.evaluate(0.0, 0.0, 0.0) == pytest.approx(expected, abs=1e-9)
        assert expected <= 0.25

    def test_all_high_inputs_hit_the_high_centroid(self):
        engine = default_engine()
        expected = grid_centroid(default_terms()[2])
        assert engine.evaluate(1.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-9)
        assert expected >= 0.75

    def test_midpoint_inputs_hit_the_medium_centroid(self):
        engine = default_engine()
        expected = grid_centroid(default_terms()[1])
        out = engine.evaluate(0.5, 0.5, 0.5)
        assert out == pytest.approx(expected, abs=1e-9)
        assert abs(out - 0.5) <= 0.05

    def test_zero_firing_mass_yields_zero(self):
        engine = InferenceEngine(terms=GAPPY_TERMS)
        assert engine.evaluate(0.3, 0.3, 0.3) == 0.0

    def test_matches_boundwise_minimum_and_nie_tan_reference(self):
        rng = random.Random(29)
        for _ in range(300):
            triple = tuple(rng.random() for _ in range(3))
            expected = nie_tan(SHRUNK, boundwise_min_firing(SHRUNK, triple))
            assert SHRUNK.evaluate(*triple) == pytest.approx(expected, abs=1e-12)

    def test_permutation_symmetry(self):
        engine = default_engine()
        rng = random.Random(13)
        for _ in range(100):
            triple = tuple(rng.random() for _ in range(3))
            values = {engine.evaluate(*p) for p in permutations(triple)}
            assert max(values) - min(values) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(unit, unit, unit)
    def test_output_always_in_unit_interval(self, a, b, c):
        assert 0.0 <= default_engine().evaluate(a, b, c) <= 1.0

    def test_componentwise_monotonicity_on_sampled_pairs(self):
        engine = default_engine()
        rng = random.Random(0)
        for _ in range(500):
            u = [rng.random() for _ in range(3)]
            w = [x + rng.random() * (1.0 - x) for x in u]
            assert engine.evaluate(*u) <= engine.evaluate(*w) + 1e-9

    def test_type1_degeneration_matches_single_membership_weighted_centroid(self):
        # Zero footprint: lower shape identical to the upper one.
        terms = tuple(
            IntervalTerm(t.label, t.upper, shrink=0.0, height=1.0) for t in default_terms()
        )
        engine = InferenceEngine(terms=terms)
        base = default_rule_base()
        centroids = {t.label: grid_centroid(t) for t in terms}

        def type1(x1, x2, x3):
            num = den = 0.0
            for combo in product(TERM_LABELS, repeat=3):
                firing = min(
                    trapezoid(x, *terms[TERM_LABELS.index(label)].upper)
                    for x, label in zip((x1, x2, x3), combo)
                )
                num += firing * centroids[base.consequent(combo)]
                den += firing
            return 0.0 if den <= 0 else num / den

        rng = random.Random(21)
        for _ in range(300):
            triple = tuple(rng.random() for _ in range(3))
            assert engine.evaluate(*triple) == pytest.approx(type1(*triple), abs=1e-9)

    def test_explicit_defaults_match_default_engine(self):
        engine = InferenceEngine(terms=default_terms(), rules=default_rule_base())
        assert engine.evaluate(0.5, 0.5, 0.5) == default_engine().evaluate(0.5, 0.5, 0.5)

    def test_engine_validates_construction(self):
        with pytest.raises(ConfigurationError):
            InferenceEngine(terms=default_terms()[:2])
        narrow = IntervalTerm("medium", (0.501, 0.502, 0.503, 0.504))  # between two grid points
        with pytest.raises(ConfigurationError, match="term 'medium' has zero mass on the centroid grid"):
            InferenceEngine(terms=(default_terms()[0], narrow, default_terms()[2]))

    def test_default_centroids(self):
        engine = default_engine()
        assert [engine.centroid(label) for label in TERM_LABELS] \
            == [0.1678787878787879, 0.5000000000000003, 0.8321212121212125]
        with pytest.raises(ConfigurationError, match="unknown term label 'x'"):
            engine.centroid("x")

    @pytest.mark.parametrize("terms", [
        tuple(IntervalTerm(label, t.upper) for label, t in zip(("small", "mid", "large"), default_terms())),
        tuple(IntervalTerm(label, t.upper) for label, t in zip(("low", "high", "medium"), default_terms())),
        default_terms()[::-1],
    ], ids=["relabelled", "labels-swapped", "reversed"])
    def test_terms_must_be_low_medium_high_in_order(self, terms):
        with pytest.raises(ConfigurationError, match=r"\('low', 'medium', 'high'\) in that order"):
            InferenceEngine(terms=terms)


def corner_triples(engine, count, seed):
    """Seeded input triples, about a third of the inputs on 0, 1 or a trapezoid corner."""
    corners = sorted({0.0, 1.0} | {v for t in engine.terms for v in (*t.upper, *t.lower)})
    rng = random.Random(seed)
    return [
        tuple(rng.choice(corners) if rng.random() < 0.35 else rng.random() for _ in range(3))
        for _ in range(count)
    ]


class TestEvaluateMany:
    @pytest.mark.parametrize("engine", [default_engine(), SHRUNK, InferenceEngine(terms=GAPPY_TERMS)],
                             ids=["default", "shrunk", "gappy"])
    def test_bit_identical_to_scalar_loop(self, engine):
        triples = corner_triples(engine, 3000, seed=5)
        want = [scalar_evaluate(engine, *triple) for triple in triples]
        assert engine.evaluate_many(*np.array(triples).T).tolist() == want
        # One triple per call, where numpy would sum a lone row pairwise.
        assert [engine.evaluate(*triple) for triple in triples[:300]] == want[:300]

    def test_shape_follows_the_inputs(self):
        engine = default_engine()
        triples = corner_triples(engine, 12, seed=6)
        batch = np.array(triples).T.reshape(3, 3, 4)
        got = engine.evaluate_many(*batch)
        assert got.shape == (3, 4)
        assert got.reshape(-1).tolist() == [scalar_evaluate(engine, *t) for t in triples]
        assert engine.evaluate_many(0.5, 0.1, 0.1).shape == ()
        assert float(engine.evaluate_many(0.5, 0.1, 0.1)) == scalar_evaluate(engine, 0.5, 0.1, 0.1)

    def test_degenerate_point_term(self):
        # A term whose four corners coincide: both edge ratios are 0/0 on the point.
        terms = (IntervalTerm("low", (0.0, 0.0, 0.3, 0.5)), IntervalTerm("medium", (0.5, 0.5, 0.5, 0.5)),
                 IntervalTerm("high", (0.5, 0.8, 1.0, 1.0)))
        engine = InferenceEngine(terms=terms)
        triples = corner_triples(engine, 500, seed=7) + [(0.5, 0.5, 0.5), (-0.0, 0.5, 1.0)]
        got = engine.evaluate_many(*np.array(triples).T)
        assert got.tolist() == [scalar_evaluate(engine, *triple) for triple in triples]

    def test_out_of_range_inputs_clamped_with_diagnostic(self, caplog):
        engine = default_engine()
        with caplog.at_level(logging.WARNING, logger="qsim.t2fls"):
            got = engine.evaluate_many(np.array([-0.25, 0.5]), np.array([0.1, 1.5]), np.array([0.1, 0.2]))
        assert "2 fuzzifier inputs outside [0, 1]" in caplog.text
        assert got.tolist() == [scalar_evaluate(engine, 0.0, 0.1, 0.1),
                                scalar_evaluate(engine, 0.5, 1.0, 0.2)]

    def test_nan_input_rejected(self):
        with pytest.raises(ConfigurationError, match="1 fuzzifier inputs are NaN"):
            default_engine().evaluate_many(np.array([0.2, 0.5]), np.array([0.1, np.nan]),
                                           np.array([0.1, 0.2]))


class TestRuleSum:
    """Whatever the batch size, the 27 rules are summed in rule order, as the
    scalar reference sums them: `evaluate_many` takes one `np.add.reduce` along
    the rule axis, which is not the contiguous one, so reduce adds the rules one
    after another rather than pairwise."""

    @pytest.mark.parametrize("lanes", [1, 2, 3, 1000])
    def test_batches_equal_the_sequential_scalar_sum(self, lanes):
        engine = SHRUNK
        triples = corner_triples(engine, 200 * lanes if lanes < 1000 else lanes, seed=lanes)
        want = np.array([scalar_evaluate(engine, *triple) for triple in triples])
        batches = np.array(triples).reshape(-1, lanes, 3).transpose(0, 2, 1)
        got = np.concatenate([engine.evaluate_many(*batch) for batch in batches])
        assert got.tobytes() == want.tobytes()


class TestZeroSigns:
    """A triple with no firing mass evaluates to +0.0, never -0.0: the detail
    files write the two zeros differently."""

    # Every upper shape rises from 0, so a -0.0 input grades as a zero on every term.
    SLOPED_FROM_ZERO = (IntervalTerm("low", (0.0, 0.1, 0.2, 0.3)),
                        IntervalTerm("medium", (0.0, 0.45, 0.55, 0.7)),
                        IntervalTerm("high", (0.0, 0.8, 1.0, 1.0)))

    @pytest.mark.parametrize("lanes", [1, 2, 3, 9, 17])
    def test_no_firing_mass_gives_positive_zero(self, lanes):
        zeros = np.zeros(lanes).tobytes()
        gappy = InferenceEngine(terms=GAPPY_TERMS)
        assert gappy.evaluate_many(*np.full((3, lanes), 0.3)).tobytes() == zeros
        assert gappy.evaluate_many(*np.repeat([[-0.0], [0.3], [0.7]], lanes, axis=1)).tobytes() == zeros
        sloped = InferenceEngine(terms=self.SLOPED_FROM_ZERO)
        assert sloped.evaluate_many(*np.full((3, lanes), -0.0)).tobytes() == zeros

    def test_negative_zero_grades_still_give_positive_zero(self, monkeypatch):
        """Of two zeros, fmax may return either, so a zero grade may carry
        either sign; the result must not depend on it."""
        engine = InferenceEngine(terms=GAPPY_TERMS)
        grade = engine._grade

        def negative_zeros(x):
            g = grade(x)
            g[g == 0.0] = -0.0
            return g

        monkeypatch.setattr(engine, "_grade", negative_zeros)
        triples = corner_triples(engine, 300, seed=11) + [(0.3, 0.3, 0.3), (0.7, 0.3, 0.05)]
        got = engine.evaluate_many(*np.array(triples).T)
        assert got.tobytes() == np.array([scalar_evaluate(engine, *t) for t in triples]).tobytes()


class TestEngineFromConfig:
    def test_term_and_rule_overrides(self):
        spec = {
            "terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "height": 0.8, "shrink": 0.05}},
            "rules": [{"antecedents": ["medium", "low", "low"], "consequent": "medium"}],
        }
        engine = engine_from_config(spec)
        assert engine.terms[2].upper == (0.5, 0.7, 1.0, 1.0)
        assert engine.terms[2].height == 0.8
        assert engine.terms[2].lower == IntervalTerm("high", (0.5, 0.7, 1.0, 1.0), shrink=0.05).lower
        assert engine.rules.consequent(("medium", "low", "low")) == "medium"
        # untouched terms stay at the defaults
        assert engine.terms[0].upper == default_terms()[0].upper

    def test_non_monotone_override_rejected(self):
        spec = {"rules": [{"antecedents": ["high", "high", "high"], "consequent": "low"}]}
        with pytest.raises(ConfigurationError):
            engine_from_config(spec)

    def test_malformed_term_rejected(self):
        with pytest.raises(ConfigurationError):
            engine_from_config({"terms": {"low": {"upper": [0.1, 0.2]}}})

    def test_string_antecedents_rejected(self):
        spec = {"rules": [{"antecedents": "abc", "consequent": "low"}]}
        with pytest.raises(ConfigurationError, match="antecedents must be a list"):
            engine_from_config(spec)

    def test_unknown_keys_and_grid_points_rejected(self):
        with pytest.raises(ConfigurationError, match=r"unknown keys in engine overrides: \['grid_point'\]"):
            engine_from_config({"grid_point": 5})
        with pytest.raises(ConfigurationError, match="unknown keys in term 'high'"):
            engine_from_config({"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "hieght": 0.9}}})
        # The centroid grid is fixed at 101 points; it is not a setting.
        with pytest.raises(ConfigurationError, match=r"unknown keys in engine overrides: \['grid_points'\]"):
            engine_from_config({"grid_points": 101})

    def test_lower_rejected_as_unknown_key(self):
        # A spec's lower shape is always derived from its upper one; an explicit one,
        # even a valid one, is not a setting.
        spec = {"terms": {"high": {"upper": [0.5, 0.7, 1.0, 1.0], "lower": [0.6, 0.7, 1.0, 1.0]}}}
        with pytest.raises(ConfigurationError, match=r"unknown keys in term 'high': \['lower'\]"):
            engine_from_config(spec)

    def test_unknown_term_label_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown term labels"):
            engine_from_config({"terms": {"enormous": {"upper": [0.5, 0.7, 1.0, 1.0]}}})
