"""The record scripts under scripts/: the mutation list and the paired-run rule.

Both scripts take minutes and run outside tier-1, so these tests load them by
file path and pin what a stale edit would otherwise break only in the slow run:
every mutant's anchor, and how `bench_pairs.py` pairs and summarises runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # a dataclass looks its module up while it is built
    spec.loader.exec_module(module)
    return module


mutants = _load("qsim_scripts_mutants", ROOT / "scripts" / "mutants.py")
bench_pairs = _load("qsim_scripts_bench_pairs", ROOT / "scripts" / "bench_pairs.py")


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_anchor_occurs_once(mutant):
    """A source edit that orphans a mutant, or makes its anchor ambiguous, fails here."""
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def pairs(*values, name="x"):
    return [{"parent": {name: a}, "change": {name: b}} for a, b in values]


class TestSummarize:
    def test_ties_count_for_neither_side(self):
        summary = bench_pairs.summarize(pairs((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (5.0, 5.0)),
                                        {"x": "lower"})["x"]
        assert (summary["change_wins"], summary["parent_wins"]) == (1, 1)
        assert summary["parent"]["n"] == summary["change"]["n"] == 4

    def test_higher_is_better_flips_the_winner(self):
        runs = pairs((2.0, 1.0), (2.0, 1.5), (1.0, 3.0))
        lower = bench_pairs.summarize(runs, {"x": "lower"})["x"]
        higher = bench_pairs.summarize(runs, {"x": "higher"})["x"]
        assert (lower["change_wins"], lower["parent_wins"]) == (2, 1)
        assert (higher["change_wins"], higher["parent_wins"]) == (1, 2)
        assert higher["better"] == "higher" and higher["parent"] == lower["parent"]

    def test_medians_and_inclusive_quartiles(self):
        summary = bench_pairs.summarize(pairs((1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)),
                                        {"x": "lower"})["x"]
        # Inclusive quartiles of 1..4; the exclusive method would give 1.25 and 3.75.
        assert summary["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
        assert summary["change"] == {"median": 25.0, "q1": 17.5, "q3": 32.5, "n": 4}

    def test_a_pair_counts_only_where_both_runs_read_the_figure(self):
        runs = pairs((1.0, 2.0), (1.0, 0.5)) + [{"parent": {"x": 1.0}, "change": {"correct": False}}]
        summary = bench_pairs.summarize(runs, {"x": "lower", "y": "lower"})
        assert list(summary) == ["x"]
        assert summary["x"]["parent"]["n"] == 2
        assert (summary["x"]["change_wins"], summary["x"]["parent_wins"]) == (1, 1)


def test_alternate_runs_the_parent_first_in_even_rounds():
    calls = []

    def run(side, i):
        calls.append((side, i))
        return {"x": len(calls)}

    result = bench_pairs.alternate(4, run, "test")
    assert calls == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                     ("parent", 2), ("change", 2), ("change", 3), ("parent", 3)]
    assert [pair["first"] for pair in result] == ["parent", "change", "parent", "change"]
    assert [(pair["parent"]["x"], pair["change"]["x"]) for pair in result] == [
        (1, 2), (4, 3), (5, 6), (8, 7)]
