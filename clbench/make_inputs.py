"""Regenerate one workload's input files without running the benchmark.

    python3 clbench/make_inputs.py --workload strict-2phase --seed 1 --out /tmp/inputs

Writes train.json, heldout.json, features.npz and init.json: the same
bytes that ``run.py`` generates for that workload and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    inputs = workloads.make_inputs(workloads.WORKLOADS[args.workload], args.seed, args.out)
    for path in (inputs.train_json, inputs.heldout_json, inputs.features, inputs.init_checkpoint):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
