"""Smoke test of ``tools/digests.py`` on a tiny world with 2 pretrain steps."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _run() -> list[str]:
    run = subprocess.run([sys.executable, str(SCRIPT), "--tiny", "--steps", "2"],
                         capture_output=True, text=True, timeout=300, check=True)
    return run.stdout.splitlines()


def test_prints_every_digest_and_repeats_itself():
    lines = _run()
    names = [f"{stage}.{variant}.{what}" for variant in ("dual", "hybrid", "full")
             for stage, what in (("pretrain", "params"), ("pretrain", "losses"),
                                 ("finetune", "params"), ("finetune", "loss"),
                                 ("finetune", "scores"), ("zero_shot", "rankings"))]
    names.insert(names.index("zero_shot.dual.rankings") + 1, "bos.dual.matrix")
    names.insert(0, "world")
    assert [line.split()[0] for line in lines] == names
    assert all(re.fullmatch(r"\S+  [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[1] for line in lines}) == len(lines)
    assert _run() == lines  # a second process prints the same digests
