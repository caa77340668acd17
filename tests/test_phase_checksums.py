import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = [sys.executable, str(ROOT / "tools" / "phase_checksums.py"), "--seed", "3", "--workload", "refine-4phase"]


def bench_files():
    return sorted(p for p in (ROOT / "clbench").rglob("*") if "__pycache__" not in p.parts)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The tool's line for refine-4phase at seed 3, saved as a baseline file."""
    tmp_path = tmp_path_factory.mktemp("run")
    before = bench_files()
    out = subprocess.run(TOOL, capture_output=True, text=True, check=True, cwd=tmp_path).stdout
    assert list(tmp_path.iterdir()) == [] and bench_files() == before  # inputs and checkpoints went to a temp dir
    path = tmp_path_factory.mktemp("baseline") / "expect.jsonl"
    path.write_text(out)
    return path


def test_prints_one_json_line_per_workload(baseline):
    (line,) = baseline.read_text().splitlines()
    doc = json.loads(line)
    assert set(doc) == {"workload", "seed", "ap", "ap_old", "checksums", "detections"}
    assert (doc["workload"], doc["seed"]) == ("refine-4phase", 3)
    assert len(doc["checksums"]) == 4 and all(len(c) == 64 for c in doc["checksums"])
    assert len(doc["detections"]) == 64 and int(doc["detections"], 16) >= 0


def test_expect_passes_on_the_same_lines(baseline):
    run = subprocess.run(TOOL + ["--expect", str(baseline)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == baseline.read_text() and run.stderr == ""


def test_expect_names_the_differing_workload(baseline, tmp_path):
    doc = json.loads(baseline.read_text())
    doc["checksums"][2] = "0" * 64
    other = {**doc, "workload": "strict-2phase", "ap": 0.5}  # not run, so not compared
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text(json.dumps(doc) + "\n" + json.dumps(other) + "\n")
    run = subprocess.run(TOOL + ["--expect", str(tampered)], capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stdout == baseline.read_text()
    (message,) = run.stderr.splitlines()
    assert "refine-4phase seed 3: checksums" in message and "0" * 64 in message


def expect_with(baseline, tmp_path, edit):
    """Run the tool against the baseline line changed by ``edit``."""
    doc = json.loads(baseline.read_text())
    edit(doc)
    path = tmp_path / "edited.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    return subprocess.run(TOOL + ["--expect", str(path)], capture_output=True, text=True)


def test_expect_names_a_changed_detections_digest(baseline, tmp_path):
    run = expect_with(baseline, tmp_path, lambda doc: doc.update(detections="f" * 64))
    assert run.returncode == 1
    assert run.stdout == baseline.read_text()
    (message,) = run.stderr.splitlines()
    assert "refine-4phase seed 3: detections" in message and "f" * 64 in message


@pytest.mark.parametrize("key", ["detections", "checksums", "ap"])
def test_expect_flags_a_key_missing_from_the_baseline_line(baseline, tmp_path, key):
    run = expect_with(baseline, tmp_path, lambda doc: doc.pop(key))
    assert run.returncode == 1
    assert run.stdout == baseline.read_text()
    (message,) = run.stderr.splitlines()
    assert message.endswith(f"refine-4phase seed 3: {key} missing from the baseline line")


def test_expect_flags_a_workload_missing_from_the_baseline(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    run = subprocess.run(TOOL + ["--expect", str(empty)], capture_output=True, text=True)
    assert run.returncode == 1
    assert "refine-4phase seed 3: no baseline line" in run.stderr
