"""Smoke test of ``tools/quality.py`` on a tiny world with 3 pretrain steps."""

import json
import math
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "quality.py"


def test_reports_criteria_4_to_6_with_margins_per_seed(tmp_path):
    out = tmp_path / "quality.json"
    run = subprocess.run([sys.executable, str(SCRIPT), "--tiny", "--out", str(out)],
                         capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(out.read_text())
    assert report["setup"]["tiny"] and report["environment"]["blas_threads"] == 1
    assert list(report["seeds"]) == ["11", "12", "13"]
    keys = {"criterion_4": {"dual", "hybrid", "hybrid_vs_dual"},
            "criterion_5": {f"{v}.{m}" for v in ("dual", "hybrid", "full")
                            for m in ("auc", "map")},
            "criterion_6": {"dual", "hybrid"}}
    for seed, crit in report["seeds"].items():
        assert set(crit) == set(keys)
        for name, result in crit.items():
            assert set(result["checks"]) == keys[name]
            for entry in result["checks"].values():
                assert all(math.isfinite(entry[k]) for k in ("value", "bar", "margin"))
                assert entry["margin"] == entry["value"] - entry["bar"]
        assert (crit["criterion_5"]["checks"]["dual.map"]["bar"]
                == report["bars"]["tfidf_map"])
    assert len(run.stdout.splitlines()) == 3 * len(keys)
