import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

AB_LABELS = [
    "merton_quote", "nikkei_quote", "merton_sweep29", "nikkei_sweep11", "merton_sweep1000",
    "merton_curve580_plan", "merton_curve580_eval",
]


def test_ab_runs_against_this_tree():
    # one A/A round of tools/ab.py on this checkout: every labelled operation
    # still resolves, so a rename that breaks the timing tool fails here
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "tools/ab.py", "src", "--rounds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("label"))
    assert lines[header].split() == ["label", "parent_ms", "change_ms", "ratio", "p10", "won"]
    rows = [line.split() for line in lines[header + 1 :]]
    assert [row[0] for row in rows] == AB_LABELS
    for row in rows:
        assert len(row) == 6 and row[5] in ("0/1", "1/1")
        assert all(math.isfinite(float(x)) and float(x) > 0.0 for x in row[1:5])


def test_output_digest_same_cold_and_warm():
    # the digest tool computes every record cold and again on the warm shared
    # samples and exits 1 on the first that differs, so a result that
    # depends on cache state fails here; no digest is pinned
    out = subprocess.run(
        [sys.executable, "tools/output_digest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert re.fullmatch(r"[0-9a-f]{64}", out.stdout.splitlines()[-1])
