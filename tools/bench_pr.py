"""Benchmark this checkout against a base revision and write the comparison as JSON.

    python3 tools/bench_pr.py --base REV --seed S --out BENCH_<pr>.json

Exports REV with ``git archive`` into a temporary directory (no network and
no change to the repository) and runs ``clbench/run.py`` in both trees, the
base with its own files (``tools/`` aside) and this checkout with its work
tree as it stands:

- per workload of ``BENCHMARK.json``, ``PAIRS`` pairs of ``--trace 0`` runs
  of its ``run_seconds``, the base first in even pairs and the change first
  in odd ones, so that host drift falls on both sides;
- per workload, ``TRACED_RUNS`` pairs of ``--trace 1`` runs for the
  per-layer spans, alternated as the timed pairs are; each span is the
  median of a side's traced runs, as one traced run's spans move by more
  than a small layer's saving;
- per side, this checkout's ``tools/phase_checksums.py --seed 3 --seed
  17`` (copied over the base's ``tools/``, so that both sides print the
  same fields), whose lines decide ``same_bytes``.

The output file holds, per workload, each side's outcome over all its runs
(every run correct, the checks attempted and the checks failed); per
end-to-end metric, each side's runs, median and quartiles, and the change's
wins over its pair partner (strictly better in the metric's direction from
``BENCHMARK.json``); per layer, each side's median span and its traced runs;
``same_bytes``; and the host facts the bytes and timings depend on: CPU
count, Python and NumPy versions, NumPy's SIMD dispatch and the BLAS core.
``ap_new`` and ``fpp`` are null until ``run.py`` reports them.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKSUM_SEEDS = ("3", "17")
PAIRS = 10  # the fewest pairs from which a gain may be claimed
TRACED_RUNS = 3


def last_json_line(stdout: str) -> dict:
    """The JSON object ``run.py`` prints as its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (linear interpolation, as ``numpy.percentile``) of two or more runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise_pairs(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict:
    """Per metric: each side's spread and the change's wins, ties and losses against its partner.

    ``pairs`` holds (base, change) ``run.py`` last lines in run order; ``better`` maps each
    end-to-end metric to "higher" or "lower". ``gain`` is the change of the median in the
    better direction, as a fraction of the base median.
    """
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        deltas = [sign * (c - b) for b, c in zip(base, change)]
        entry = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": direction,
            "base": spread(base),
            "change": spread(change),
            "wins": sum(d > 0 for d in deltas),
            "ties": sum(d == 0 for d in deltas),
            "losses": sum(d < 0 for d in deltas),
        }
        b_med = entry["base"]["median"]
        entry["gain"] = sign * (entry["change"]["median"] - b_med) / b_med if b_med else None
        out[name] = entry
    return out


def outcome(runs: list[dict]) -> dict:
    """Whether every ``run.py`` run was correct, and its checks attempted and failed, summed over the runs."""
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def layer_spans(base: list[dict], change: list[dict]) -> dict:
    """Each per-layer metric of the ``--trace 1`` runs: per side the median of its runs, and the runs.

    A side whose runs do not report a metric has a null median and no runs of it.
    """
    out = {}
    for name, m in base[0]["metrics"].items():
        out[name] = {"unit": m["unit"]}
        for side, lines in (("base", base), ("change", change)):
            runs = [r["metrics"][name]["value"] for r in lines if name in r["metrics"]]
            out[name][side] = statistics.median(runs) if runs else None
            out[name][f"{side}_runs"] = runs
    return out


def same_bytes(base_stdout: str, change_stdout: str) -> bool:
    """Whether two outputs of ``phase_checksums.py`` agree on every line, and have one."""
    base = [json.loads(line) for line in base_stdout.splitlines() if line.strip()]
    change = [json.loads(line) for line in change_stdout.splitlines() if line.strip()]
    return bool(base) and base == change


def blas_cores() -> list[dict]:
    """The BLAS libraries this process loaded, with the core each runs on.

    Each OpenBLAS library mapped into the process (Linux) is asked for its core name and build
    configuration through its exported ``get_corename`` and ``get_config``.
    """
    import numpy.linalg  # noqa: F401  (loads NumPy's BLAS)

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    cores = []
    for path in paths:
        lib, core = ctypes.CDLL(path), {"library": Path(path).name}
        for field in ("corename", "config"):
            # plain OpenBLAS, or the scipy-openblas build NumPy's wheels bundle (64-bit ints)
            for symbol in (f"openblas_get_{field}", f"scipy_openblas_get_{field}64_", f"scipy_openblas_get_{field}"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_char_p
                    core[field] = fn().decode()
                    break
        cores.append(core)
    return cores


def host_facts() -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # NumPy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatch": [f for f in umath.__cpu_dispatch__ if features.get(f)],
        "blas": blas_cores(),
    }


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run(tree: Path, *args: str) -> str:
    return subprocess.run([sys.executable, *args], cwd=tree, capture_output=True, text=True, check=True).stdout


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    print(f"{tree}: {workload} seed {seed} trace {trace}", file=sys.stderr, flush=True)
    return last_json_line(
        run(tree, "clbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--seed", type=int, required=True, help="clbench seed of every run")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    doc = {
        "base": {"rev": git("rev-parse", f"{args.base}^{{commit}}"), "given": args.base},
        "change": {"head": git("rev-parse", "HEAD"), "work_tree_changes": bool(git("status", "--porcelain"))},
        "seed": args.seed,
        "seconds": seconds,
        "pairs": PAIRS,
        "host": host_facts(),
    }
    with tempfile.TemporaryDirectory(prefix="bench-pr-") as tmp:
        base_tree = Path(tmp)
        export(doc["base"]["rev"], base_tree)
        shutil.copytree(ROOT / "tools", base_tree / "tools", dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
        results = {}
        for workload in workloads:
            pairs, traced = [], []
            for trace, n in ((0, PAIRS), (1, TRACED_RUNS)):
                for i in range(n):
                    order = (base_tree, ROOT) if i % 2 == 0 else (ROOT, base_tree)
                    lines = {tree: bench(tree, workload, args.seed, seconds, trace) for tree in order}
                    (traced if trace else pairs).append((lines[base_tree], lines[ROOT]))
            base_runs, change_runs = ([p[side] for p in pairs + traced] for side in (0, 1))
            results[workload] = {
                "outcome": {"base": outcome(base_runs), "change": outcome(change_runs)},
                "metrics": summarise_pairs(pairs, better),
                "layers": layer_spans([b for b, _ in traced], [c for _, c in traced]),
                "ap_new": None,
                "fpp": None,
            }
        seeds = [a for s in CHECKSUM_SEEDS for a in ("--seed", s)]
        checksums = {tree: run(tree, "tools/phase_checksums.py", *seeds) for tree in (base_tree, ROOT)}
    doc["same_bytes"] = same_bytes(checksums[base_tree], checksums[ROOT])
    doc["workloads"] = results
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
