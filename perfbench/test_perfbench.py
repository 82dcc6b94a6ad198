"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
from workloads import EXPECTED_ANALYSIS, analysis_frame  # noqa: E402


def test_analysis_frame_has_full_study_cardinality_and_every_flag():
    frame = analysis_frame(7)
    assert len(frame) == EXPECTED_ANALYSIS["rows"]
    assert frame.equals(analysis_frame(7))
    rel = oracle.relations_oracle(frame, alpha=0.05)
    assert {k: len(v) for k, v in rel.items()} == {
        k: EXPECTED_ANALYSIS[k] for k in ("R1", "R2", "R3")
    }
    assert set(rel["R1"]["flag"]) == {"P", "N", "S"}
    # Validation ties exist, so the R2/R3 tie-breaks decide some picks.
    fits = frame.drop_duplicates(
        ["dataset", "error_type", "split_seed", "train_version", "model", "search_seed"]
    )
    per_version = ["dataset", "error_type", "split_seed", "train_version"]
    best = fits.groupby(per_version)["val_metric"].transform("max")
    assert (fits[fits["val_metric"] == best].groupby(per_version).size() > 1).any()


def test_failed_unit_is_counted_and_named():
    env = {**os.environ, "PERFBENCH_FAIL_UNIT": "KDD/outliers"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "grid-outliers",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 4  # the whole aborted run
    assert set(result["metrics"]) == {
        "setup_s", "wall_s", "cpu_s", "specs_per_s", "peak_rss_mb"
    }
    assert any("injected fault in unit KDD/outliers/" in l for l in lines if l.startswith("error "))
    assert any(l.split()[:2] == ["unit_fail_rate", "1"] for l in lines)
