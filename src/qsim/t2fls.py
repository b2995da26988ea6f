"""Interval Type-2 fuzzy inference over three normalized quanta.

Each linguistic term (low / medium / high) is an interval trapezoid: an upper
membership function and a lower one derived from it, which lies inside it, so
every input maps to a membership interval rather than a single grade. The
27-rule knowledge base conjoins the three inputs with the minimum t-norm
applied boundwise, giving one firing interval per rule. Type reduction is the
Nie-Tan midpoint collapse; defuzzification is the firing-weighted average of
consequent-term centroids, taken on a uniform grid of 101 points over [0, 1]
that the engine grades with its input kernel (the scalar `trapezoid` and
`IntervalTerm.membership` are the tests' reference). The output, the potential
of dissemination, always lands in [0, 1]; the rules' firing masses are summed
in rule order from +0.0, so zero total firing mass yields +0.0.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, _check_real, _echo

__all__ = [
    "TERM_LABELS",
    "IntervalTerm",
    "RuleBase",
    "InferenceEngine",
    "trapezoid",
    "make_term",
    "default_terms",
    "default_rule_base",
    "default_engine",
    "engine_from_config",
]

log = logging.getLogger(__name__)

# The labels of an engine's three terms, in rank order; rule consequents are
# monotone in it.
TERM_LABELS = ("low", "medium", "high")

# Term centroids are sums over this many evenly spaced points of [0, 1].
_CENTROID_POINTS = 101


def trapezoid(x: float, a: float, b: float, c: float, d: float) -> float:
    """Trapezoidal membership with plateau [b, c]; degenerate edges act as shoulders."""
    if x < a or x > d:
        return 0.0
    if b <= x <= c:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (d - x) / (d - c)


@dataclass(frozen=True, slots=True)
class IntervalTerm:
    """One linguistic term: an upper trapezoid and a lower one derived from it.

    The lower shape is `upper` with its support feet pulled toward the core by
    the fraction `shrink` (keyword-only, in [0, 1), default 0), scaled to
    `height` (keyword-only, in (0, 1], default 0.9). It keeps the upper
    plateau, its feet lie inside the upper feet (a + shrink * (b - a) rounds
    to at most b for shrink < 1), and its height is at most 1, so the lower
    grade never exceeds the upper one. shrink = 0 and height = 1 collapse the
    footprint entirely (a plain Type-1 term).
    """

    label: str
    upper: tuple[float, float, float, float]
    shrink: float = field(default=0.0, kw_only=True)
    height: float = field(default=0.9, kw_only=True)
    lower: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.upper) != 4:
            raise ConfigurationError(
                f"term {self.label!r}: upper shape needs 4 corners, got {_echo(self.upper)}")
        a, b, c, d = (_check_real(f"term {self.label!r}: upper corner", v) for v in self.upper)
        if not (0.0 <= a <= b <= c <= d <= 1.0):
            raise ConfigurationError(
                f"term {self.label!r}: upper shape {self.upper} must satisfy 0 <= a <= b <= c <= d <= 1"
            )
        if not 0.0 <= _check_real(f"term {self.label!r}: shrink", self.shrink) < 1.0:
            raise ConfigurationError(f"term {self.label!r}: shrink must lie in [0, 1), got {self.shrink}")
        if not 0.0 < _check_real(f"term {self.label!r}: height", self.height) <= 1.0:
            raise ConfigurationError(
                f"term {self.label!r}: lower-shape height must lie in (0, 1], got {self.height}"
            )
        lower = (a + self.shrink * (b - a), b, c, d - self.shrink * (d - c))
        object.__setattr__(self, "lower", lower)

    def membership(self, x: float) -> tuple[float, float]:
        return (self.height * trapezoid(x, *self.lower), trapezoid(x, *self.upper))


def make_term(label: str, a: float, b: float, c: float, d: float, **shape: float) -> IntervalTerm:
    """The `IntervalTerm` with upper trapezoid (a, b, c, d); `shrink` and `height` pass through."""
    return IntervalTerm(label, (a, b, c, d), **shape)


@lru_cache(maxsize=1)
def default_terms() -> tuple[IntervalTerm, IntervalTerm, IntervalTerm]:
    """Three interval terms uniformly covering [0, 1].

    The upper shapes form a complementary partition (adjacent grades sum to
    one across each overlap) and every lower shape is the upper one scaled to
    height 0.9. Both choices are load-bearing for monotonicity of the
    inference output: complementary overlaps make opposing mass shifts cancel
    under the minimum t-norm, and a scaled (rather than shrunk) lower shape
    preserves that cancellation boundwise. Asymmetric overlaps or shrunk lower
    supports visibly break it.
    """
    return (
        make_term("low", 0.0, 0.0, 0.2, 0.45),
        make_term("medium", 0.2, 0.45, 0.55, 0.8),
        make_term("high", 0.55, 0.8, 1.0, 1.0),
    )


class RuleBase:
    """Complete 27-rule grid with a monotone consequent mapping.

    `table` maps each (a1, a2, a3) antecedent triple to its consequent label:
    IF the three inputs are (a1, a2, a3) THEN the potential is the consequent.
    Every combination of the TERM_LABELS must appear, and raising any
    antecedent label may never lower the consequent label.
    """

    def __init__(self, table: Mapping[tuple[str, str, str], str]) -> None:
        rank = TERM_LABELS.index
        table = dict(table)
        for antecedents, consequent in table.items():
            rule = f"{_echo(antecedents)} -> {_echo(consequent)}"
            if len(antecedents) != 3:
                raise ConfigurationError(f"rule {rule} must have exactly 3 antecedents")
            for label in (*antecedents, consequent):
                if label not in TERM_LABELS:
                    raise ConfigurationError(f"unknown term label {_echo(label)} in rule {rule}")
        missing = [c for c in product(TERM_LABELS, repeat=3) if c not in table]
        if missing:
            raise ConfigurationError(f"rule base incomplete: {len(missing)} combinations missing")
        for combo, consequent in table.items():
            for pos in range(3):
                r = rank(combo[pos])
                if r == 2:
                    continue
                raised = list(combo)
                raised[pos] = TERM_LABELS[r + 1]
                if rank(table[tuple(raised)]) < rank(consequent):
                    raise ConfigurationError(
                        f"rule base not monotone: raising input {pos} of {combo} lowers the consequent"
                    )
        self._table = table

    @property
    def table(self) -> Mapping[tuple[str, str, str], str]:
        return MappingProxyType(self._table)

    def consequent(self, antecedents: Sequence[str]) -> str:
        return self._table[tuple(antecedents)]

    def __len__(self) -> int:
        return len(self._table)


def default_rule_base() -> RuleBase:
    """Rank-average rules: the consequent rank is the half-up rounded mean rank.

    With ranks 0/1/2 the consequent is low for rank sums 0-1, medium for 2-4,
    high for 5-6; this is monotone by construction.
    """
    table = {
        # floor(s/3 + 1/2) in integer arithmetic, s the rank sum
        tuple(TERM_LABELS[i] for i in combo): TERM_LABELS[(2 * sum(combo) + 3) // 6]
        for combo in product(range(3), repeat=3)
    }
    return RuleBase(table)


class InferenceEngine:
    """Immutable evaluator of input triples; one kernel grades the inputs and the centroid grid."""

    def __init__(
        self,
        terms: Sequence[IntervalTerm] | None = None,
        rules: RuleBase | None = None,
    ) -> None:
        terms = tuple(terms) if terms is not None else default_terms()
        labels = tuple(t.label for t in terms)
        if labels != TERM_LABELS:
            raise ConfigurationError(f"engine terms must be {TERM_LABELS} in that order, got {labels}")
        rules = rules if rules is not None else default_rule_base()
        self.terms = terms
        self.rules = rules
        # One row per lower shape, then one per upper shape, as columns
        # broadcasting over (input, triple).
        a, b, c, d = np.array([t.lower for t in terms] + [t.upper for t in terms]).T.reshape(4, 6, 1, 1)
        # Each edge's foot and run, the falling edge's run negated (-0.0 where it is flat).
        self._feet = np.array([a, d])
        self._runs = np.array([b - a, -(d - c)])
        self._scales = np.array([t.height for t in terms] + [1.0] * 3).reshape(6, 1, 1)
        grid = np.arange(_CENTROID_POINTS) / (_CENTROID_POINTS - 1)
        lo, hi = self._grade(grid[None]).reshape(2, 3, -1)
        mass = lo + hi  # the midpoint's factor 1/2 cancels in the ratio
        # Each term's sums run over the grid in order, one point after another.
        num, den = np.add.accumulate([grid * mass, mass], axis=2)[:, :, -1]
        for label, total in zip(TERM_LABELS, den):
            if total <= 0.0:
                raise ConfigurationError(f"term {label!r} has zero mass on the centroid grid")
        self._centroids = tuple((num / den).tolist())
        rule_centroids = [
            self._centroids[TERM_LABELS.index(rules.consequent(combo))]
            for combo in product(TERM_LABELS, repeat=3)
        ]
        # Each rule's weights for its firing mass: into the numerator, then the denominator.
        self._rule_weights = np.array([[c, 1.0] for c in rule_centroids]).reshape(27, 2, 1)

    def centroid(self, label: str) -> float:
        if label not in TERM_LABELS:
            raise ConfigurationError(f"unknown term label {label!r}")
        return self._centroids[TERM_LABELS.index(label)]

    def evaluate(self, x1: float, x2: float, x3: float) -> float:
        """Potential of dissemination for one normalized input triple of real numbers."""
        return float(self.evaluate_many(*map(_check_real, ("x1", "x2", "x3"), (x1, x2, x3))))

    def evaluate_many(self, x1, x2, x3) -> np.ndarray:
        """Potential of dissemination for arrays of normalized input triples.

        The three arguments share one shape, which the result takes. Inputs
        outside [0, 1] are clamped with a warning; a NaN input is a
        ConfigurationError. Each rule's firing mass is the sum of its lower
        and upper firing (twice the Nie-Tan midpoint; the factor cancels), a
        zero of either sign where the rule does not fire, since a zero upper
        firing forces a zero lower one. The 27 masses are summed one after
        another from +0.0, so a triple's result does not depend on the batch
        and a triple with no firing mass yields +0.0.
        """
        x = np.array((x1, x2, x3), dtype=float)
        shape = x.shape[1:]
        x = x.reshape(3, -1)
        if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
            if np.isnan(x).any():
                raise ConfigurationError(f"{np.isnan(x).sum()} fuzzifier inputs are NaN")
            log.warning("%d fuzzifier inputs outside [0, 1]; clamping",
                        np.count_nonzero((x < 0.0) | (x > 1.0)))
            x = np.clip(x, 0.0, 1.0)
        # (bound, term, input, triple) -> per rule, the minimum over the inputs.
        g = self._grade(x).reshape(2, 3, 3, -1)
        lo, hi = np.minimum(
            np.minimum(g[:, :, 0, None, None], g[:, None, :, 1, None]), g[:, None, None, :, 2]
        ).reshape(2, 27, -1)
        # The rules lead, not as the contiguous axis, which reduce would add pairwise.
        mass = lo + hi
        num, den = np.add.reduce(mass[:, None] * self._rule_weights, axis=0, initial=0.0)
        den[den <= 0.0] = 1.0  # where num is +0.0 too
        return np.minimum(num / den, 1.0).reshape(shape)

    def _grade(self, x: np.ndarray) -> np.ndarray:
        """Each term's lower grades, then its upper ones, at (inputs, points) `x`: (6, inputs, points)."""
        # Each edge's ratio is at least 1 across the plateau, so the smaller
        # one, cut to [0, 1], is `trapezoid`; (x - d) / -(d - c) is (d - x) / (d - c)
        # but for the sign of a zero, which no output reads. A flat edge divides
        # by zero: +-inf away from its foot, NaN on it, which fmin passes over.
        ratio = x - self._feet
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio /= self._runs
        grade = np.fmin(ratio[0], ratio[1], out=ratio[0])
        np.fmin(grade, 1.0, out=grade)
        np.fmax(grade, 0.0, out=grade)
        grade *= self._scales
        return grade


@lru_cache(maxsize=1)
def default_engine() -> InferenceEngine:
    return InferenceEngine()


def _spec_number(value, what: str) -> float:
    try:
        return float(_check_real(what, value))
    except OverflowError as exc:
        raise ConfigurationError(f"{what} is too large for a float, got {_echo(value)}") from exc


def _spec_list(value, what: str) -> Sequence:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{what} must be a list, got {_echo(value)}")
    return value


def _spec_keys(entry: Mapping, allowed: tuple[str, ...], what: str) -> None:
    unknown = set(entry) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {what}: {_echo(sorted(unknown, key=str))}")


def engine_from_config(spec: Mapping) -> InferenceEngine:
    """Build an engine from a parsed configuration mapping.

    Recognized keys: "terms" mapping label -> {"upper": [a,b,c,d], "shrink": f,
    "height": h}, each an `IntervalTerm` given the keys present; "rules" as a
    list of {"antecedents": [l1, l2, l3], "consequent": label} overrides
    applied on top of the rank-average base. A spec of any other shape, or
    with any other key, is a ConfigurationError.
    """
    if not isinstance(spec, Mapping):
        raise ConfigurationError(f"engine overrides must be an object, got {type(spec).__name__}")
    _spec_keys(spec, ("terms", "rules"), "engine overrides")
    term_spec = spec.get("terms", {})
    if not isinstance(term_spec, Mapping):
        raise ConfigurationError(
            f"engine overrides: terms must map labels to shapes, got {_echo(term_spec)}"
        )
    unknown = set(term_spec) - set(TERM_LABELS)
    if unknown:
        raise ConfigurationError(f"unknown term labels in engine overrides: {_echo(sorted(unknown))}")
    terms = []
    for label, default in zip(TERM_LABELS, default_terms()):
        if label not in term_spec:  # a `null` entry is given, and malformed
            terms.append(default)
            continue
        entry = term_spec[label]
        if not isinstance(entry, Mapping) or "upper" not in entry:
            raise ConfigurationError(f"term {label!r}: invalid or missing upper shape")
        _spec_keys(entry, ("upper", "shrink", "height"), f"term {label!r}")
        upper = tuple(_spec_number(v, f"term {label!r}: upper corner")
                      for v in _spec_list(entry["upper"], f"term {label!r}: upper shape"))
        shape = {key: _spec_number(entry[key], f"term {label!r}: {key}")
                 for key in ("shrink", "height") if key in entry}
        terms.append(IntervalTerm(label, upper, **shape))
    rules = None
    if "rules" in spec:
        table = dict(default_rule_base().table)
        for entry in _spec_list(spec["rules"], "engine overrides: rules"):
            if not isinstance(entry, Mapping) or "antecedents" not in entry or "consequent" not in entry:
                raise ConfigurationError(f"malformed rule override {_echo(entry)}")
            _spec_keys(entry, ("antecedents", "consequent"), f"rule override {_echo(entry)}")
            antecedents = _spec_list(entry["antecedents"], f"rule override {_echo(entry)}: antecedents")
            table[tuple(str(v) for v in antecedents)] = str(entry["consequent"])
        rules = RuleBase(table)
    return InferenceEngine(terms=terms, rules=rules)
