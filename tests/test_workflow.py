"""The CI workflow installs exact package versions, and a failing test is reported by name.

pytest runs with `filterwarnings = ["error"]`, so a new release that adds a
deprecation warning would fail the suite with no change to the code.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PINNED = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*==[0-9][0-9A-Za-z.]*")


def test_every_installed_package_is_pinned():
    installs = [line.split("pip install", 1)[1].split()
                for line in WORKFLOW.read_text(encoding="utf-8").splitlines() if "pip install" in line]
    assert installs, "the workflow installs nothing"
    for arguments in installs:
        packages = [a for a in arguments if not a.startswith("-")]
        assert packages and all(map(PINNED.fullmatch, packages)), arguments


def test_a_failing_hypothesis_test_is_reported_by_name(tmp_path):
    # Hypothesis's report hook can raise a third-party DeprecationWarning while
    # it reports a failure; turned into an error, that ends the run in an
    # INTERNALERROR (exit 3) that names no test.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(n):\n"
        "    assert n != n\n",
        encoding="utf-8",
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_fails.py::test_always_fails" in done.stdout
