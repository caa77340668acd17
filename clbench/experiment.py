"""One seeded incremental CL-DETR experiment, run through iodkit's public functions.

Per phase: load the old model from its checkpoint, build DKD labels, train
on the phase data plus the exemplar memory (replay), calibrate on the
memory, select this phase's exemplars, save a checkpoint and evaluate on
held-out images. Every iodkit call goes through its module attribute
(``td.forward_batch``, not a bound name) so that a tracer can wrap it.

Whatever the checks need is copied under ``clock.pause()``, which keeps
that copying out of every reported time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from iodkit import distillation, exemplar, ingestion, labels, losses, metrics, protocol
from iodkit import toy_detector as td

from workloads import (
    BUDGET_FRACTION,
    CALIB_LR,
    GAMMA_GIOU,
    GAMMA_L1,
    GRAD_CHECKS_PER_PHASE,
    LR,
    MOMENTUM,
    N_QUERIES,
    TRAIN_SEED,
    Inputs,
    Workload,
)

PSEUDO = distillation.PseudoConfig()
EVAL_BATCH = 256


GAUGE_EVERY = 0.02  # seconds of timed work between two reference bursts
NOMINAL_BURST_S = 1e-3  # the reference burst's time on the host the steady clock is scaled to
_REF_A = np.linspace(-1.0, 1.0, 100 * 64).reshape(100, 64)
_REF_KEYS = list(range(400))


def reference_burst() -> None:
    """A fixed mix of small NumPy operations and interpreter work, like the program's."""
    a = _REF_A
    for _ in range(20):
        c = a @ a[:21].T
        np.exp(c, out=c)
        int(c.sum(axis=1).argmax())
    for _ in range(4):
        table = {k: (k * 7919) % 401 for k in _REF_KEYS}
        sorted(_REF_KEYS, key=table.__getitem__)
        sum(table[k] for k in _REF_KEYS if k % 3)


class Clock:
    """Wall clock that leaves out the time spent inside ``pause()``, and a
    host-steadied clock beside it.

    The host's speed drifts by up to 2x, over fractions of a second as well
    as over minutes (README.md). While the clock runs (``with Clock() as
    clock:``), an interval timer interrupts the timed work every
    ``GAUGE_EVERY`` seconds to run ``reference_burst``, outside the wall
    clock and never inside ``pause()``. The steady clock sums the wall time
    between bursts, each interval scaled by ``NOMINAL_BURST_S`` over the
    mean of the two bursts around it: seconds on a host that runs the burst
    in ``NOMINAL_BURST_S``.
    """

    def __init__(self):
        self.paused = 0.0
        self._pausing = 0
        self._busy = False
        self._steady = 0.0
        self._t_last = self.now()
        self._b_last = self._burst()

    def __enter__(self) -> Clock:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY, GAUGE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def read(self) -> tuple[float, float]:
        """(wall, steady) seconds of timed work so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._settle()
            return self.now(), self._steady
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @contextmanager
    def pause(self):
        self._pausing += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused += time.perf_counter() - t0
            self._pausing -= 1

    def _on_alarm(self, signum, frame) -> None:
        if not (self._busy or self._pausing):
            self._settle()

    def _settle(self) -> None:
        self._busy = True
        t = self.now()
        b = self._burst()
        self._steady += (t - self._t_last) * NOMINAL_BURST_S / (0.5 * (b + self._b_last))
        self._t_last, self._b_last = t, b
        self._busy = False

    def _burst(self) -> float:
        t0 = time.perf_counter()
        reference_burst()
        b = time.perf_counter() - t0
        self.paused += b
        return b


@dataclass
class Setup:
    train: ingestion.Dataset
    heldout: ingestion.Dataset
    features: dict[int, np.ndarray]
    phases: list[protocol.PhaseDataset]
    gt_labels: dict[int, labels.LabeledSet]  # training image -> padded phase ground truth
    params: td.DetectorParams


def set_up(inputs: Inputs, workload: Workload) -> Setup:
    """Parse, normalise, load features, split, pad targets, load the initial model."""
    train = ingestion.normalize(ingestion.parse_coco(inputs.train_json))
    heldout = ingestion.normalize(ingestion.parse_coco(inputs.heldout_json))
    with np.load(inputs.features) as archive:
        features = dict(zip(archive["ids"].tolist(), archive["features"]))
    plan = protocol.multi_phase_plan(workload.setup, train.n_categories, TRAIN_SEED)
    phases = protocol.split(train, plan)
    c = train.n_categories
    gt_labels = {}
    for phase in phases:
        for image_id, anns in phase.by_image().items():
            targets = [labels.one_hot(a.category, a.box, c) for a in anns]
            gt_labels[image_id] = labels.pad_to_n(targets, N_QUERIES, c)
    params, _ = td.load_checkpoint(inputs.init_checkpoint)
    return Setup(train, heldout, features, phases, gt_labels, params)


def prediction_set(probs: np.ndarray, boxes: np.ndarray) -> labels.LabeledSet:
    origins = np.full(probs.shape[0], labels.Origin.PREDICTION, dtype=np.int8)
    return labels.LabeledSet(probs, boxes, origins)


@dataclass
class StepSample:
    """One sampled training image-step, kept for the matching and gradient checks."""

    params: td.DetectorParams  # the weights the gradient was taken at
    feature: np.ndarray
    target: labels.LabeledSet
    grads: td.DetectorParams  # the image's parameter gradient
    batched: bool  # predictions came from forward_batch (else forward via backward)
    refine_ties: bool
    preds: labels.LabeledSet | None = None  # batched path only
    assignment: object | None = None  # batched path only
    loss: float | None = None


@dataclass
class Selection:
    images: dict[int, list[int]]
    categories: list[int]
    n_images: int
    selected: list[int]


@dataclass
class Record:
    """What one round hands to the checks."""

    steps: list[StepSample] = field(default_factory=list)
    distilled: list[tuple[labels.LabeledSet, labels.LabeledSet]] = field(default_factory=list)
    selections: list[Selection] = field(default_factory=list)
    saves: list[tuple[Path, str]] = field(default_factory=list)
    detections: list = field(default_factory=list)  # final model, held-out images
    final_categories: list[int] = field(default_factory=list)


@dataclass
class Timings:
    setup_s: float
    run_s: float
    train_s: float  # training, calibration and DKD label building
    eval_s: float


@dataclass
class RoundResult:
    wall: Timings  # wall seconds, checks left out
    steady: Timings  # the same intervals on the host-steadied clock
    train_steps: int
    eval_images: int
    ap: float
    ap_old: float
    checksums: list[str]
    setup: Setup
    record: Record


def _training_order(ids: list[int], stage: int, steps: int) -> list[int]:
    """``steps`` image ids: fixed shuffled passes over ``ids``, the last one cut short."""
    order: list[int] = []
    epoch = 0
    while len(order) < steps:
        rng = np.random.default_rng(np.random.SeedSequence([TRAIN_SEED, stage, epoch, 0x7A1]))
        order.extend(ids[k] for k in rng.permutation(len(ids)))
        epoch += 1
    return order[:steps]


class Trainer:
    """Minibatch SGD over per-image set losses, as a user of iodkit would write it."""

    def __init__(self, workload: Workload, setup: Setup, clock: Clock, record: Record):
        self.workload = workload
        self.setup = setup
        self.clock = clock
        self.record = record

    def run(self, params, order, targets, lr, how: str, sampled=frozenset()):
        """One SGD step per batch of ``order``; returns the number of image-steps.

        ``how`` is "batched" (forward_batch, dkd_loss with
        refine_ties=False, head_gradients), "backward" (backward() per
        image with refine_ties=False) or "refined" (backward() per image
        with its default tie refinement).
        """
        state = td.MomentumState.zeros(params)
        features = self.setup.features
        b = self.workload.batch
        for start in range(0, len(order), b):
            batch = order[start : start + b]
            picked = [k for k in range(len(batch)) if start + k in sampled]
            if picked:
                with self.clock.pause():
                    params_before = params.copy()
            x = np.stack([features[i] for i in batch])
            acc = params.zeros_like()
            if how != "batched":
                refine = how == "refined"
                for k, image_id in enumerate(batch):
                    g, _ = td.backward(
                        params, x[k], targets[image_id], GAMMA_GIOU, GAMMA_L1,
                        background_class_weight=self.workload.background_weight,
                        **({} if refine else {"refine_ties": False}),
                    )
                    acc.w_cls += g.w_cls
                    acc.w_box += g.w_box
                    if k in picked:
                        with self.clock.pause():
                            self.record.steps.append(
                                StepSample(
                                    params_before, x[k], targets[image_id], g,
                                    batched=False, refine_ties=refine,
                                )
                            )
            else:
                probs, boxes = td.forward_batch(params, x)
                for k, image_id in enumerate(batch):
                    preds = prediction_set(probs[k], boxes[k])
                    assignment, report = losses.dkd_loss(
                        preds, targets[image_id], GAMMA_GIOU, GAMMA_L1,
                        background_class_weight=self.workload.background_weight, refine_ties=False,
                    )
                    g = td.head_gradients(x[k], report.grad_logits, report.grad_box_raw)
                    acc.w_cls += g.w_cls
                    acc.w_box += g.w_box
                    if k in picked:
                        with self.clock.pause():
                            self.record.steps.append(
                                StepSample(
                                    params_before, x[k], targets[image_id], g,
                                    batched=True, refine_ties=False, preds=preds.copy(),
                                    assignment=assignment, loss=report.total,
                                )
                            )
            acc.w_cls /= len(batch)
            acc.w_box /= len(batch)
            td.sgd_step(params, acc, lr, state, momentum=MOMENTUM)
        return len(order)


def _distill(old, image_ids, batch: int, setup: Setup, record: Record, clock: Clock):
    """DKD label sets of ``image_ids`` from the old model, a batch at a time."""
    out = {}
    for start in range(0, len(image_ids), batch):
        ids = image_ids[start : start + batch]
        probs, boxes = td.forward_batch(old, np.stack([setup.features[i] for i in ids]))
        for k, image_id in enumerate(ids):
            gt = setup.gt_labels[image_id]
            out[image_id] = distillation.build_distilled(gt, prediction_set(probs[k], boxes[k]), PSEUDO)
            with clock.pause():
                record.distilled.append((gt, out[image_id]))
    return out


def _evaluate(params, setup: Setup, categories: list[int]):
    heldout = setup.heldout
    ids = heldout.image_ids()
    detections = []
    for start in range(0, len(ids), EVAL_BATCH):
        chunk = ids[start : start + EVAL_BATCH]
        probs, boxes = td.forward_batch(params, np.stack([setup.features[i] for i in chunk]))
        for k, image_id in enumerate(chunk):
            detections.extend(
                metrics.detections_from_predictions(prediction_set(probs[k], boxes[k]), image_id)
            )
    seen = set(categories)
    truth = [a for a in heldout.annotations if a.category in seen]
    summary = metrics.evaluate_detections(
        detections, truth, categories=categories, image_sizes=heldout.image_sizes()
    )
    return summary, detections, len(ids)


def run_round(
    inputs: Inputs, workload: Workload, check_seed: int, ckpt_dir: Path, clock: Clock | None = None
) -> RoundResult:
    """Set up from the input files, then run every phase to its evaluation.

    ``check_seed`` only picks the training steps that are kept for the
    matching and gradient checks; it does not change the run.
    """
    clock = clock or Clock()
    with clock:
        return _run_round(inputs, workload, check_seed, ckpt_dir, clock)


def _run_round(
    inputs: Inputs, workload: Workload, check_seed: int, ckpt_dir: Path, clock: Clock
) -> RoundResult:
    t0, s0 = clock.read()
    setup = set_up(inputs, workload)
    t_run, s_run = clock.read()
    record = Record()
    trainer = Trainer(workload, setup, clock, record)
    params = setup.params
    memory = exemplar.ExemplarMemory(budget_fraction=BUDGET_FRACTION)
    memory_targets: dict[int, labels.LabeledSet] = {}
    train_steps = eval_images = 0
    train_s = eval_s = train_steady = eval_steady = 0.0
    checksums = []
    seen: list[int] = []
    n_phases = len(setup.phases)
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    for phase in setup.phases:
        t = phase.phase_index
        if t > 1:
            params, _ = td.load_checkpoint(ckpt_dir / f"phase{t - 1}.json")
            old = params.copy()
        phase_ids = phase.image_ids()
        targets = dict(memory_targets)
        t_train, s_train = clock.read()
        if t > 1:
            targets.update(_distill(old, phase_ids, workload.batch, setup, record, clock))
        else:
            targets.update((i, setup.gt_labels[i]) for i in phase_ids)
        order = _training_order(phase_ids + memory.ids_before(t), 2 * t, workload.phase_steps[t - 1])
        refined = workload.refine_from is not None and t >= workload.refine_from
        rng = np.random.default_rng(np.random.SeedSequence([check_seed, t, 0x5EED]))
        sampled = frozenset(
            rng.choice(len(order), size=GRAD_CHECKS_PER_PHASE, replace=False).tolist()
        )
        train_steps += trainer.run(
            params, order, targets, LR, "refined" if refined else "batched", sampled
        )
        if t > 1:
            memory_ids = memory.ids_before(t)
            calib = _training_order(memory_ids, 2 * t + 1, workload.calib_epochs * len(memory_ids))
            how = "refined" if refined else "backward"
            train_steps += trainer.run(params, calib, memory_targets, CALIB_LR, how)
        wall, steady = clock.read()
        train_s += wall - t_train
        train_steady += steady - s_train

        if t < n_phases:
            by_image = phase.by_image()
            images = {i: [a.category for a in by_image[i]] for i in phase_ids}
            n_select = exemplar.phase_budget(BUDGET_FRACTION, len(phase_ids))
            chosen = exemplar.greedy_select(images, n_select, list(phase.categories))
            memory.add_phase(chosen)
            memory_targets.update((i, targets[i]) for i in chosen)
            with clock.pause():
                record.selections.append(Selection(images, list(phase.categories), len(phase_ids), chosen))

        path = ckpt_dir / f"phase{t}.json"
        td.save_checkpoint(params, path)
        with clock.pause():
            checksums.append(params.checksum())
            record.saves.append((path, checksums[-1]))

        seen = sorted(set(seen) | set(phase.categories))
        t_eval, s_eval = clock.read()
        summary, detections, n_images = _evaluate(params, setup, seen)
        wall, steady = clock.read()
        eval_s += wall - t_eval
        eval_steady += steady - s_eval
        eval_images += n_images
    t_end, s_end = clock.read()

    first = sorted(setup.phases[0].categories)
    old_aps = [summary.per_category[c] for c in first if c in summary.per_category]
    record.detections = detections
    record.final_categories = seen
    return RoundResult(
        wall=Timings(t_run - t0, t_end - t_run, train_s, eval_s),
        steady=Timings(s_run - s0, s_end - s_run, train_steady, eval_steady),
        train_steps=train_steps,
        eval_images=eval_images,
        ap=summary.ap,
        ap_old=float(np.mean(old_aps)) if old_aps else 0.0,
        checksums=checksums,
        setup=setup,
        record=record,
    )
