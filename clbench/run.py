"""Benchmark of one seeded incremental CL-DETR experiment on iodkit.

    python3 clbench/run.py --workload strict-2phase --seed 1 --seconds 36 --trace 0

Run from the repository root. The run repeats whole rounds (set-up plus
every phase) while the next one fits in ``--seconds``, checks every round's outputs
(see checks.py), and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics, timed on the host-steadied clock of
``experiment.Clock``; ``--trace 1`` alternates untraced and traced rounds
and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before NumPy loads: the benchmark is a single process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORK_DIR = BENCH_DIR / "work"
SETUPS_PER_ROUND = 3  # extra set-ups after each untraced round, so that setup_s is a median of many
SUBSET_IMAGES = 24  # held-out images given the AP = 1 and independent AP@0.5 checks


def _import_program():
    """Import iodkit from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC_DIR))
    try:
        import iodkit
    except ImportError as e:
        sys.exit(f"cannot import iodkit from {SRC_DIR}: {e}")
    if Path(iodkit.__file__).resolve().parent != SRC_DIR / "iodkit":
        sys.exit(f"iodkit came from {iodkit.__file__}, not from {SRC_DIR}")


def reference_rate(seconds: float = 0.5) -> float:
    """Reference bursts per second (experiment.reference_burst); tells host drift from program change."""
    from experiment import reference_burst

    n = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        reference_burst()
        n += 1
    return n / (time.perf_counter() - t0)


def check_round(result, inputs, workload, seed, init_ap, tally):
    """Run every check on one round's outputs; returns the ids of images failing the crop check."""
    import numpy as np

    import checks
    from iodkit import losses, metrics
    from iodkit import toy_detector as td
    from workloads import BUDGET_FRACTION, GAMMA_GIOU, GAMMA_L1

    setup, record = result.setup, result.record
    failing = checks.check_normalized(inputs.train_json, setup.train, tally)
    failing += checks.check_normalized(inputs.heldout_json, setup.heldout, tally)

    for k, step in enumerate(record.steps):
        if step.batched:
            preds, sigma = step.preds, step.assignment.sigma
        else:
            preds = td.forward(step.params, step.feature)
            sigma = losses.dkd_loss(
                preds, step.target, GAMMA_GIOU, GAMMA_L1,
                background_class_weight=workload.background_weight, refine_ties=step.refine_ties,
            )[0].sigma
        tally.add("matching", checks.check_assignment(step.target, preds.probs, preds.boxes, sigma))
        ok = checks.check_gradient(
            step.params, step.feature, step.target, sigma, step.grads, workload.background_weight, seed=k
        )
        if step.loss is not None:
            own = checks.own_loss(step.target, preds.probs, preds.boxes, sigma, workload.background_weight)
            ok = ok and abs(own - step.loss) <= checks.REL_TOL * max(1.0, abs(own))
        tally.add("losses", ok)

    from experiment import PSEUDO

    for gt, distilled in record.distilled:
        tally.add(
            "distillation", checks.check_distilled(gt, distilled, PSEUDO.k, PSEUDO.overlap_ceiling)
        )
    for sel in record.selections:
        tally.add(
            "exemplar",
            checks.check_selection(sel.images, sel.categories, sel.n_images, sel.selected, BUDGET_FRACTION),
        )
    for path, checksum in record.saves:
        tally.add("checkpoint", checks.check_checkpoint(path, checksum))

    heldout = setup.heldout
    cats = record.final_categories
    # images with border annotations are judged by the crop check alone
    ids = [i for i in heldout.image_ids() if i not in inputs.border_images]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA950]))
    subset = set(rng.choice(ids, size=min(SUBSET_IMAGES, len(ids)), replace=False).tolist())
    truth_sub = [a for a in heldout.annotations if a.category in set(cats) and a.image_id in subset]
    sizes = heldout.image_sizes()
    perfect = [metrics.Detection(a.image_id, a.category, 1.0, a.box) for a in truth_sub]
    s = metrics.evaluate_detections(perfect, truth_sub, categories=cats, image_sizes=sizes)
    tally.add("metrics", abs(s.ap - 1.0) <= checks.AP_TOL and abs(s.ap50 - 1.0) <= checks.AP_TOL)

    dets = [d for d in record.detections if d.image_id in subset]
    s = metrics.evaluate_detections(dets, truth_sub, categories=cats, image_sizes=sizes)
    own50 = checks.own_ap(checks.detection_rows(dets), checks.truth_rows(truth_sub), cats, thresholds=(0.5,))
    tally.add("metrics", abs(s.ap50 - own50) <= 1e-9)

    tally.add("training", result.ap > init_ap)
    return failing


def untrained_ap(inputs, setup) -> float:
    """AP@[.50:.95] of the initial checkpoint on the held-out images, computed by checks.py."""
    import checks
    from iodkit import toy_detector as td

    params, _ = td.load_checkpoint(inputs.init_checkpoint)
    heldout = setup.heldout
    rows = checks.own_detections(params, setup.features, heldout.image_ids())
    cats = sorted({a.category for a in heldout.annotations})
    return checks.own_ap(rows, checks.truth_rows(heldout.annotations), cats)


def layer_metrics(tracer, result) -> dict[str, float]:
    """One traced round's per-layer figures."""
    import numpy as np

    from iodkit import exemplar

    own = tracer.self_times()
    out = {f"{name}_s": own.get(name, 0.0) for name in LAYER_SPANS}
    counts = tracer.counts
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0.0)
    saves = counts.get("toy_detector.saves", 0.0)
    out["toy_detector.checkpoint_bytes"] = counts.get("toy_detector.checkpoint_bytes", 0.0) / max(saves, 1.0)
    entries = counts.get("matching.cost_entries", 0.0)
    n_queries = result.setup.params.n_queries
    out["matching.useful_share"] = counts.get("matching.fg_rows", 0.0) * n_queries / entries if entries else 0.0
    assign_ms = 1000.0 * tracer.durations("matching.assign")
    out["matching.assign_ms_p50"] = float(np.percentile(assign_ms, 50)) if assign_ms.size else 0.0
    out["matching.assign_ms_p99"] = float(np.percentile(assign_ms, 99)) if assign_ms.size else 0.0
    kls = []
    for sel in result.record.selections:
        cats = sel.categories
        data = exemplar.marginal((c for v in sel.images.values() for c in v), cats).probs
        kept = exemplar.marginal((c for i in sel.selected for c in sel.images[i]), cats).probs
        kls.append(exemplar.kl_divergence(data, kept))
    out["exemplar.kl"] = float(np.mean(kls)) if kls else 0.0
    return out


LAYER_SPANS = (
    "ingestion.parse", "ingestion.normalize", "protocol.split", "labels.pad",
    "toy_detector.forward", "toy_detector.head_grad", "toy_detector.sgd", "toy_detector.backward",
    "toy_detector.save", "toy_detector.load",
    "distillation.build", "matching.cost", "matching.assign", "losses.dkd", "losses.detr",
    "exemplar.select", "metrics.postproc", "metrics.evaluate",
)
LAYER_COUNTS = (
    "ingestion.annotations", "toy_detector.forward_images", "distillation.old_fg",
    "distillation.pseudo_kept", "matching.cost_entries", "matching.fg_rows",
    "exemplar.selected", "metrics.detections",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import experiment
    import workloads
    from checks import Tally
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"{workload.name}-s{args.seed}"
    ckpt_dir = run_dir / "checkpoints"

    ref_before = reference_rate()
    inputs = workloads.make_inputs(workload, args.seed, run_dir / "inputs")
    init_ap = untrained_ap(inputs, experiment.set_up(inputs, workload))  # also warms up set-up
    setup_times = []

    tally = Tally()
    plain, traced, layers = [], [], []  # per-round figures, without the round's data
    failing_images: list[int] = []  # of the last round
    only_border_fail = True  # no image but those given border annotations fails the crop check
    last_tracer = None
    t_start = time.perf_counter()
    round_s = 0.0  # the last round, with its checks and extra set-ups
    while (
        not plain
        or (args.trace and not traced)
        or time.perf_counter() - t_start + round_s <= args.seconds  # the next round fits
    ):
        t_round = time.perf_counter()
        clock = experiment.Clock()
        tracer = Tracer(clock.now) if args.trace and len(plain) > len(traced) else None
        gc.collect()  # every set-up starts from the same heap, not the last round's garbage
        if tracer:
            tracer.install()
        try:
            result = experiment.run_round(inputs, workload, args.seed, ckpt_dir, clock)
        finally:
            if tracer:
                tracer.uninstall()
        failing_images = check_round(result, inputs, workload, args.seed, init_ap, tally)
        only_border_fail = only_border_fail and set(failing_images) <= set(inputs.border_images)
        figures = replace(result, setup=None, record=None)
        if tracer:
            traced.append(figures)
            layers.append(layer_metrics(tracer, result))
            last_tracer = tracer
        else:
            plain.append(figures)
            setup_times.append(result.steady.setup_s)
        del result
        for _ in range(0 if args.trace else SETUPS_PER_ROUND):
            gc.collect()
            with experiment.Clock() as clock:
                s0 = clock.read()[1]
                experiment.set_up(inputs, workload)
                setup_times.append(clock.read()[1] - s0)
        round_s = time.perf_counter() - t_round
    if last_tracer:
        last_tracer.dump(run_dir / "trace.json")
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    ref_after = reference_rate()

    rounds = plain + traced
    first = plain[0]
    quality = (first.ap, first.ap_old, first.checksums)
    deterministic = all((r.ap, r.ap_old, r.checksums) == quality for r in rounds)
    # The crop check fails the images given border annotations while normalize
    # shifts such boxes (CHANGES.md); a program that crops them fails none.
    correct = deterministic and only_border_fail and set(tally.failed) <= {"ingestion"}

    if args.trace:
        metrics = {name: (statistics.median(m[name] for m in layers), unit) for name, unit in PER_LAYER_UNITS}
        overhead = min(r.steady.run_s for r in traced) / min(r.steady.run_s for r in plain)
        metrics["trace.overhead"] = (overhead, "ratio")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Times are on the host-steadied clock (experiment.Clock, README.md).
        median = {
            f: statistics.median(getattr(r.steady, f) for r in plain) for f in ("run_s", "train_s", "eval_s")
        }
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (median["run_s"], "s"),
            "train_img_per_s": (first.train_steps / median["train_s"], "img/s"),
            "eval_img_per_s": (first.eval_images / median["eval_s"], "img/s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "ap": (first.ap, "fraction"),
            "ap_old": (first.ap_old, "fraction"),
        }

    print(f"workload {workload.name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced rounds")
    print(f"host reference loop: {ref_before:.0f}/s before, {ref_after:.0f}/s after")
    print(f"untrained detector AP {init_ap:.4f}; rounds agree on ap, ap_old and checksums: {deterministic}")
    for layer in sorted(tally.attempted):
        print(f"checks {layer}: attempted {tally.attempted[layer]}, failed {tally.failed.get(layer, 0)}")
    print(
        f"border annotations generated: {len(inputs.border_images)} per round; "
        f"images failing the crop check: {len(failing_images)} per round"
    )
    for k, r in enumerate(rounds):
        print(
            f"round {k}: wall / steady seconds: set-up {r.wall.setup_s:.3f} / {r.steady.setup_s:.3f}, "
            f"run {r.wall.run_s:.3f} / {r.steady.run_s:.3f}, "
            f"train {r.wall.train_s:.3f} / {r.steady.train_s:.3f}, "
            f"eval {r.wall.eval_s:.3f} / {r.steady.eval_s:.3f}"
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.n_attempted,
                "failed": tally.n_failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


PER_LAYER_UNITS = tuple(
    [(f"{name}_s", "s") for name in LAYER_SPANS]
    + [(name, "count") for name in LAYER_COUNTS]
    + [
        ("toy_detector.checkpoint_bytes", "bytes"),
        ("matching.useful_share", "fraction"),
        ("matching.assign_ms_p50", "ms"),
        ("matching.assign_ms_p99", "ms"),
        ("exemplar.kl", "nats"),
    ]
)


if __name__ == "__main__":
    sys.exit(main())
