"""The README's examples run against the package as it is."""

import json
import re
import shlex
from pathlib import Path

import pytest

import qsim
from qsim.harness import _KEYS, _build_parser, load_config
from qsim.t2fls import engine_from_config

README = Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def fenced_blocks(language):
    text = README.read_text(encoding="utf-8")
    return [body for lang, body in FENCE.findall(text) if lang == language]


PYTHON_BLOCKS = fenced_blocks("python")


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 1


@pytest.mark.parametrize(
    "source", PYTHON_BLOCKS, ids=[f"python-{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_python_example_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme_example"})


def test_fuzzy_json_example_builds_an_engine():
    (spec,) = fenced_blocks("json")
    engine = engine_from_config(json.loads(spec))
    assert 0.0 <= engine.evaluate(0.5, 0.1, 0.1) <= 1.0


def qsim_lines():
    """The `qsim ...` lines of the README's unlabelled blocks, `\\` continuations joined."""
    lines = (line.strip() for body in fenced_blocks("") for line in body.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("qsim ")]


QSIM_LINES = qsim_lines()


def test_readme_has_qsim_lines():
    assert {line.split()[1] for line in QSIM_LINES} == {"run", "gen", "validate"}


@pytest.mark.parametrize("line", QSIM_LINES, ids=[line.split()[1] for line in QSIM_LINES])
def test_qsim_line_parses(line):
    """Each command line parses, and a `run` line's flags make a valid configuration; nothing runs."""
    args = _build_parser().parse_args(shlex.split(line)[1:])
    if args.command == "run":
        load_config(cli_overrides={key: getattr(args, key) for key in _KEYS}, environ={})


def test_every_public_name_is_documented():
    """Each name the package exports appears in an inline code span of the README."""
    spans = re.findall(r"`([^`]+)`", FENCE.sub("", README.read_text(encoding="utf-8")))
    missing = [name for name in qsim.__all__ if name != "__version__"
               and not any(re.search(rf"\b{name}\b", span) for span in spans)]
    assert not missing
