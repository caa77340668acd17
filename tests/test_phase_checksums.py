import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_files():
    return sorted(p for p in (ROOT / "clbench").rglob("*") if "__pycache__" not in p.parts)


def test_prints_one_json_line_per_workload(tmp_path):
    before = bench_files()
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "phase_checksums.py"), "--seed", "3", "--workload", "refine-4phase"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout
    (line,) = out.splitlines()
    doc = json.loads(line)
    assert set(doc) == {"workload", "seed", "ap", "ap_old", "checksums"}
    assert (doc["workload"], doc["seed"]) == ("refine-4phase", 3)
    assert len(doc["checksums"]) == 4 and all(len(c) == 64 for c in doc["checksums"])
    assert list(tmp_path.iterdir()) == [] and bench_files() == before  # inputs and checkpoints went to a temp dir
