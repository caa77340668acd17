"""``tools/phase_checksums.py``: its output line, and how ``--expect`` compares a run with a saved baseline.

Four runs of the tool check the command-line contract: the baseline, an ``--expect`` run that
passes, one that fails, and one with two seeds. The other comparison cases call ``differences``
in process.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

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


def test_repeated_seed_prints_one_line_per_seed(baseline):
    run = subprocess.run(TOOL + ["--seed", "17", "--expect", str(baseline)], capture_output=True, text=True)
    first, second = run.stdout.splitlines()
    assert first + "\n" == baseline.read_text()  # the seed-3 line, as the one-seed run printed it
    doc = json.loads(second)
    assert (doc["workload"], doc["seed"]) == ("refine-4phase", 17)
    assert doc["detections"] != json.loads(first)["detections"]  # the seed picks the held-out images
    assert run.returncode == 1 and run.stderr == f"differs from {baseline}: refine-4phase seed 17: no baseline line\n"


@pytest.fixture(scope="module")
def tool():
    """The tool as a module, to call ``differences`` without a run.

    The edits its import makes to the environment and to ``sys.path`` are undone.
    """
    spec = importlib.util.spec_from_file_location("phase_checksums", ROOT / "tools" / "phase_checksums.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", sys.path[:]):
        spec.loader.exec_module(module)
    return module


def differences_from(tool, baseline, edit):
    """What the tool reports for the baseline line against a baseline changed by ``edit``."""
    line = json.loads(baseline.read_text())
    base = json.loads(baseline.read_text())
    edit(base)
    return tool.differences(line, {(base["workload"], base["seed"]): base})


def test_expect_names_a_changed_detections_digest(tool, baseline):
    (message,) = differences_from(tool, baseline, lambda doc: doc.update(detections="f" * 64))
    assert message.startswith("refine-4phase seed 3: detections") and "f" * 64 in message


@pytest.mark.parametrize("key", ["detections", "checksums", "ap"])
def test_expect_flags_a_key_missing_from_the_baseline_line(tool, baseline, key):
    messages = differences_from(tool, baseline, lambda doc: doc.pop(key))
    assert messages == [f"refine-4phase seed 3: {key} missing from the baseline line"]


def test_expect_flags_a_workload_missing_from_the_baseline(tool, baseline):
    line = json.loads(baseline.read_text())
    assert tool.differences(line, {}) == ["refine-4phase seed 3: no baseline line"]
