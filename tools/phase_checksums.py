"""Print the quality numbers and phase checkpoint checksums of this checkout.

    python3 tools/phase_checksums.py [--seed 3 ...] [--workload strict-2phase ...] [--expect FILE]

Runs one round of each benchmark workload (``clbench/experiment.run_round``)
at each ``--seed`` (3 when none is given; the option may repeat) with the
iodkit in this checkout's ``src/``, and prints one JSON line per workload and
seed: ``workload``, ``seed``, ``ap``, ``ap_old``, ``checksums`` (the
SHA-256 of the weights saved after each phase), ``detections`` (the
SHA-256 of the final evaluation's detections, one ``image_id category
score cx cy w h`` row each) and ``summary`` (the SHA-256 of the final
evaluation's ``ApSummary``: each field by name, ``per_category`` sorted by
category), floats in exact ``float.hex`` form. Two checkouts that print the
same lines train to the same bytes, post-process to the same detections and
score them alike in every AP the evaluation reports. Inputs and checkpoints
are written to a temporary directory that is removed afterwards.

Before the lines, one JSON object goes to stderr: the ``host_facts`` of
``tools/bench_pr.py`` (SIMD dispatch, BLAS core, versions), on which the
bytes depend, so that a mismatch between two hosts names its likely cause.

``--expect FILE`` compares each line with the line of the same workload and
seed in FILE, a saved output of this script (say, of the parent commit). The
script exits 1 and names each workload and seed whose ``ap``, ``ap_old``,
``checksums``, ``detections`` or ``summary`` differ or are missing from
FILE's line, or that FILE lacks.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before NumPy loads, as in clbench/run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "clbench"), str(ROOT / "tools")]

import experiment  # noqa: E402
import iodkit  # noqa: E402
import workloads  # noqa: E402
from bench_pr import host_facts  # noqa: E402
from iodkit import metrics  # noqa: E402


QUALITY = ("ap", "ap_old", "checksums", "detections", "summary")


def detections_digest(detections) -> str:
    """SHA-256 of the (image_id, category, score, box) rows, floats as ``float.hex``."""
    digest = hashlib.sha256()
    for d in detections:
        fields = (d.score, d.box.cx, d.box.cy, d.box.w, d.box.h)
        digest.update(f"{d.image_id} {d.category} {' '.join(v.hex() for v in fields)}\n".encode())
    return digest.hexdigest()


def final_summary(result) -> metrics.ApSummary:
    """The round's final ``ApSummary``, evaluated again from its final detections and held-out truth.

    The truth and categories are those ``clbench/experiment.py`` evaluates; the ``ap`` must be the round's.
    """
    heldout, categories = result.setup.heldout, result.record.final_categories
    seen = set(categories)
    truth = [a for a in heldout.annotations if a.category in seen]
    summary = metrics.evaluate_detections(
        result.record.detections, truth, categories=categories, image_sizes=heldout.image_sizes()
    )
    if summary.ap != result.ap:
        raise RuntimeError(f"the final evaluation gives ap {summary.ap!r} here, {result.ap!r} in the round")
    return summary


def summary_digest(summary: metrics.ApSummary) -> str:
    """SHA-256 of a ``name value`` row per field, floats as ``float.hex``, ``per_category`` sorted by category."""
    digest = hashlib.sha256()
    for f in dataclasses.fields(summary):
        value = getattr(summary, f.name)
        if isinstance(value, dict):
            text = " ".join(f"{c}:{v.hex()}" for c, v in sorted(value.items()))
        else:
            text = value.hex()
        digest.update(f"{f.name} {text}\n".encode())
    return digest.hexdigest()


def differences(line: dict, expected: dict) -> list[str]:
    """What ``line`` changes from the baseline line of its workload and seed in ``expected``."""
    name = f"{line['workload']} seed {line['seed']}"
    base = expected.get((line["workload"], line["seed"]))
    if base is None:
        return [f"{name}: no baseline line"]
    out = []
    for key in QUALITY:
        if key not in base:
            out.append(f"{name}: {key} missing from the baseline line")
        elif json.dumps(line[key]) != json.dumps(base[key]):
            out.append(f"{name}: {key} {base[key]!r} -> {line[key]!r}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", help="seed of a round; may repeat (default 3)")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--expect", type=Path, help="saved output to compare with; exit 1 on a difference")
    args = parser.parse_args(argv)
    expected = {}
    if args.expect:
        for text in args.expect.read_text().splitlines():
            if text.strip():
                base = json.loads(text)
                expected[(base["workload"], base["seed"])] = base
    if Path(iodkit.__file__).resolve().parent != ROOT / "src" / "iodkit":
        sys.exit(f"iodkit came from {iodkit.__file__}, not from {ROOT / 'src'}")
    print(json.dumps({"host": host_facts()}), file=sys.stderr, flush=True)

    changed: list[str] = []
    for seed in args.seed or [3]:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            with tempfile.TemporaryDirectory(prefix="phase-checksums-") as tmp:
                inputs = workloads.make_inputs(workload, seed, Path(tmp) / "inputs")
                result = experiment.run_round(inputs, workload, seed, Path(tmp) / "checkpoints")
            line = {"workload": name, "seed": seed, "ap": result.ap, "ap_old": result.ap_old,
                    "checksums": result.checksums, "detections": detections_digest(result.record.detections),
                    "summary": summary_digest(final_summary(result))}
            print(json.dumps(line), flush=True)
            if args.expect:
                changed += differences(line, expected)
    for text in changed:
        print(f"differs from {args.expect}: {text}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
