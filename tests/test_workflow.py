"""The CI workflow installs exact package versions.

pytest runs with `filterwarnings = ["error"]`, so a new release that adds a
deprecation warning would fail the suite with no change to the code.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
PINNED = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*==[0-9][0-9A-Za-z.]*")


def test_every_installed_package_is_pinned():
    installs = [line.split("pip install", 1)[1].split()
                for line in WORKFLOW.read_text(encoding="utf-8").splitlines() if "pip install" in line]
    assert installs, "the workflow installs nothing"
    for arguments in installs:
        packages = [a for a in arguments if not a.startswith("-")]
        assert packages and all(map(PINNED.fullmatch, packages)), arguments
