"""``tools/reach.py``: every function no program path enters is allowed, with a reason."""

import subprocess
import sys
from pathlib import Path

from reach import ALLOWLIST  # conftest puts tools/ on the path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_functions_no_program_path_enters_are_the_allowlist():
    run = subprocess.run([sys.executable, str(TOOLS / "reach.py")],
                         capture_output=True, text=True, timeout=300)
    listed = [line.split()[1] for line in run.stdout.splitlines()
              if line.startswith("function  ")]
    assert set(listed) <= set(ALLOWLIST), run.stderr
    assert set(ALLOWLIST) <= set(listed), run.stderr  # no stale entry
    assert all(reason.strip() for reason in ALLOWLIST.values())
    assert run.returncode == 0, run.stderr
