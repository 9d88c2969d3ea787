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
    names = ["world"]
    for variant in ("dual", "hybrid", "full"):
        names += [f"pretrain.{variant}.{what}" for what in ("params", "losses")]
        for stage in ("finetune", "open") if variant != "full" else ("finetune",):
            names += [f"{stage}.{variant}.{what}" for what in ("params", "loss", "scores")]
        names.append(f"zero_shot.{variant}.rankings")
    names.insert(names.index("zero_shot.dual.rankings") + 1, "bos.dual.matrix")
    assert [line.split()[0] for line in lines] == names
    assert all(re.fullmatch(r"\S+  [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[1] for line in lines}) == len(lines)
    assert _run() == lines  # a second process prints the same digests
