"""``tools/bench_pr.py``: how it summarises canned ``clbench/run.py`` and ``phase_checksums.py`` output.

The runs themselves take minutes, so only the summarising functions are called here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BETTER = {"run_s": "lower", "train_img_per_s": "higher", "ap": "higher"}
UNITS = {"run_s": "s", "train_img_per_s": "img/s", "ap": "fraction"}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pr", ROOT / "tools" / "bench_pr.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(correct=True, attempted=10, failed=0, **values):
    """The stdout of one ``run.py`` run: progress lines, then the JSON line."""
    doc = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": UNITS.get(name, "s")} for name, v in values.items()},
    }
    return "workload eval-dense seed 5: 3 untraced and 0 traced rounds\nrun_s 1.5 s\n" + json.dumps(doc) + "\n"


def canned_pairs(tool):
    base = [(2.0, 100.0), (2.0, 110.0), (2.0, 120.0), (2.0, 130.0)]
    change = [(1.5, 105.0), (2.0, 108.0), (2.5, 125.0), (1.0, 140.0)]
    return [
        tuple(tool.last_json_line(run_output(run_s=r, train_img_per_s=t, ap=0.07)) for r, t in side)
        for side in zip(base, change)
    ]


def test_last_line_is_the_json_object(tool):
    doc = tool.last_json_line(run_output(run_s=1.5))
    assert doc["correct"] is True and doc["metrics"]["run_s"] == {"value": 1.5, "unit": "s"}


def test_medians_and_quartiles_per_side(tool):
    summary = tool.summarise_pairs(canned_pairs(tool), BETTER)
    train = summary["train_img_per_s"]
    assert train["base"] == {"median": 115.0, "q1": 107.5, "q3": 122.5, "runs": [100.0, 110.0, 120.0, 130.0]}
    assert train["change"]["median"] == 116.5
    assert (train["change"]["q1"], train["change"]["q3"]) == (107.25, 128.75)
    assert train["unit"] == "img/s" and train["better"] == "higher"
    assert train["gain"] == pytest.approx(1.5 / 115.0)


def test_wins_follow_the_metric_direction(tool):
    summary = tool.summarise_pairs(canned_pairs(tool), BETTER)
    # higher is better: +5, -2, +5, +10 img/s
    assert [summary["train_img_per_s"][k] for k in ("wins", "ties", "losses")] == [3, 0, 1]
    # lower is better: 1.5 and 1.0 s beat 2.0 s, 2.0 ties, 2.5 loses
    assert [summary["run_s"][k] for k in ("wins", "ties", "losses")] == [2, 1, 1]
    assert summary["run_s"]["gain"] == 0.125  # the median fell from 2.0 to 1.75 s
    assert [summary["ap"][k] for k in ("wins", "ties", "losses")] == [0, 4, 0]
    assert summary["ap"]["gain"] == 0.0


def test_outcome_sums_checks_over_the_runs(tool):
    runs = [tool.last_json_line(run_output(run_s=1.0)) for _ in range(3)]
    assert tool.outcome(runs) == {"correct": True, "attempted": 30, "failed": 0}
    # run.py may call a run correct while ingestion checks fail; the sums still show them
    runs.append(tool.last_json_line(run_output(attempted=12, failed=2, run_s=1.0)))
    assert tool.outcome(runs) == {"correct": True, "attempted": 42, "failed": 2}
    runs.append(tool.last_json_line(run_output(correct=False, run_s=1.0)))
    assert tool.outcome(runs)["correct"] is False


def traced_runs(tool, spans):
    """The last lines of traced runs, one per (cost, overhead) pair of spans."""
    return [tool.last_json_line(run_output(**{"matching.cost_s": c, "trace.overhead": o})) for c, o in spans]


def test_layer_spans_per_side(tool):
    base = traced_runs(tool, [(0.17, 1.02)])
    change = traced_runs(tool, [(0.12, 1.03)])
    spans = tool.layer_spans(base, change)
    assert spans["matching.cost_s"] == {"unit": "s", "base": 0.17, "base_runs": [0.17], "change": 0.12,
                                        "change_runs": [0.12]}
    assert spans["trace.overhead"]["change"] == 1.03


def test_layer_spans_are_medians_of_the_traced_runs(tool):
    # one slow run per side (a pause in whichever span it hits) moves the median not at all
    base = traced_runs(tool, [(0.17, 1.02), (0.31, 1.01), (0.16, 1.04)])
    change = traced_runs(tool, [(0.12, 1.03), (0.11, 1.02), (0.27, 1.02)])
    assert tool.TRACED_RUNS == 3
    spans = tool.layer_spans(base, change)
    assert (spans["matching.cost_s"]["base"], spans["matching.cost_s"]["change"]) == (0.17, 0.12)
    assert spans["matching.cost_s"]["base_runs"] == [0.17, 0.31, 0.16]
    assert (spans["trace.overhead"]["base"], spans["trace.overhead"]["change"]) == (1.02, 1.02)


def test_layer_spans_null_where_the_change_lacks_a_metric(tool):
    base = traced_runs(tool, [(0.17, 1.02)] * 3)
    change = [tool.last_json_line(run_output(**{"trace.overhead": 1.0})) for _ in range(3)]
    spans = tool.layer_spans(base, change)
    assert spans["matching.cost_s"]["change"] is None and spans["matching.cost_s"]["change_runs"] == []


CHECKSUM_LINES = [
    {"workload": "strict-2phase", "seed": 3, "ap": 0.087, "ap_old": 0.116, "checksums": ["a" * 64, "b" * 64],
     "detections": "c" * 64},
    {"workload": "eval-dense", "seed": 3, "ap": 0.071, "ap_old": 0.115, "checksums": ["d" * 64, "e" * 64],
     "detections": "f" * 64},
]


def checksum_output(lines):
    return "".join(json.dumps(line) + "\n" for line in lines)


def test_same_bytes_on_equal_checksum_lines(tool):
    assert tool.same_bytes(checksum_output(CHECKSUM_LINES), checksum_output(CHECKSUM_LINES))


def test_same_bytes_false_when_one_checksum_differs(tool):
    changed = json.loads(json.dumps(CHECKSUM_LINES))
    changed[1]["checksums"][1] = "0" * 64
    assert not tool.same_bytes(checksum_output(CHECKSUM_LINES), checksum_output(changed))


def test_same_bytes_false_on_a_missing_line_or_no_lines(tool):
    assert not tool.same_bytes(checksum_output(CHECKSUM_LINES), checksum_output(CHECKSUM_LINES[:1]))
    assert not tool.same_bytes("", "")
