"""The benchmark's own tests: every check flags a planted wrong output, and
two runs with the same seed agree exactly."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_DIR = BENCH_DIR.parent
for path in (BENCH_DIR, REPO_DIR / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import experiment  # noqa: E402
import workloads  # noqa: E402
from iodkit import ingestion, labels, losses, metrics  # noqa: E402
from iodkit.geometry import BoundingBox  # noqa: E402
from iodkit import toy_detector as td  # noqa: E402

TINY = dataclasses.replace(
    workloads.WORKLOADS["strict-2phase"],
    n_train=64, n_heldout=32, phase_steps=(192, 64), background_weight=0.02,
)


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    return workloads.make_inputs(TINY, 5, tmp_path_factory.mktemp("inputs"))


@pytest.fixture(scope="module")
def tiny_round(tiny_inputs, tmp_path_factory):
    return experiment.run_round(tiny_inputs, TINY, 5, tmp_path_factory.mktemp("ckpt"))


def _step_sample(tiny_round):
    step = next(s for s in tiny_round.record.steps if s.batched)
    return step, step.preds, step.assignment.sigma


class TestMatching:
    def test_optimal_sigma_passes(self, tiny_round):
        step, preds, sigma = _step_sample(tiny_round)
        assert checks.check_assignment(step.target, preds.probs, preds.boxes, sigma)

    def test_non_optimal_sigma_flagged(self, tiny_round):
        step, preds, sigma = _step_sample(tiny_round)
        fg = np.flatnonzero(step.target.foreground_mask())
        worst = sigma.copy()
        # send the first foreground row to the column that costs it most
        cost = checks.own_cost(step.target, preds.probs, preds.boxes)
        j = int(np.argmax(cost[fg[0]]))
        k = int(np.flatnonzero(worst == j)[0])
        worst[[fg[0], k]] = worst[[k, fg[0]]]
        assert not checks.check_assignment(step.target, preds.probs, preds.boxes, worst)

    def test_non_permutation_flagged(self, tiny_round):
        step, preds, sigma = _step_sample(tiny_round)
        broken = sigma.copy()
        broken[1] = broken[0]
        assert not checks.check_assignment(step.target, preds.probs, preds.boxes, broken)


class TestLosses:
    def test_true_gradient_passes(self, tiny_round):
        step, _, sigma = _step_sample(tiny_round)
        assert checks.check_gradient(
            step.params, step.feature, step.target, sigma, step.grads, TINY.background_weight, seed=0
        )

    @pytest.mark.parametrize("head", ["w_cls", "w_box"])
    def test_scaled_gradient_flagged(self, tiny_round, head):
        step, _, sigma = _step_sample(tiny_round)
        wrong = step.grads.copy()
        getattr(wrong, head)[...] *= 1.01
        assert not checks.check_gradient(
            step.params, step.feature, step.target, sigma, wrong, TINY.background_weight, seed=0
        )

    def test_own_loss_equals_program_loss(self, tiny_round):
        step, preds, sigma = _step_sample(tiny_round)
        own = checks.own_loss(step.target, preds.probs, preds.boxes, sigma, TINY.background_weight)
        assert own == pytest.approx(step.loss, rel=1e-12)

    def test_kink_does_not_fail_the_check(self):
        # predictions equal to their pseudo labels sit on an L1/GIoU kink
        params = td.init_params(6, 3, 4, seed=1)
        feature = np.linspace(-1.0, 1.0, 4)
        probs, boxes = td.forward_batch(params, feature[None])
        target = labels.LabeledSet(
            probs[0].copy(), boxes[0].copy(), np.full(6, labels.Origin.PSEUDO, dtype=np.int8)
        )
        target.probs[:, -1] = 0.0
        target.probs /= target.probs.sum(axis=1, keepdims=True)
        g, _ = td.backward(params, feature, target, 2.0, 5.0, background_class_weight=0.1)
        sigma = losses.dkd_loss(td.forward(params, feature), target, 2.0, 5.0, background_class_weight=0.1)[0].sigma
        assert checks.check_gradient(params, feature, target, sigma, g, 0.1, seed=0)


class TestDistillation:
    def test_program_labels_pass(self, tiny_round):
        cfg = experiment.PSEUDO
        assert tiny_round.record.distilled
        for gt, d in tiny_round.record.distilled:
            assert checks.check_distilled(gt, d, cfg.k, cfg.overlap_ceiling)

    def _with_pseudo(self, tiny_round):
        cfg = experiment.PSEUDO
        for gt, d in tiny_round.record.distilled:
            n_gt = int(np.count_nonzero(gt.foreground_mask()))
            if n_gt and np.any(d.origins == labels.Origin.PSEUDO):
                return gt, d.copy(), n_gt, cfg
        pytest.skip("no label set with pseudo slots")

    def test_over_ceiling_pseudo_flagged(self, tiny_round):
        gt, d, n_gt, cfg = self._with_pseudo(tiny_round)
        d.boxes[n_gt] = gt.boxes[np.flatnonzero(gt.foreground_mask())[0]]
        assert not checks.check_distilled(gt, d, cfg.k, cfg.overlap_ceiling)

    def test_changed_ground_truth_flagged(self, tiny_round):
        gt, d, n_gt, cfg = self._with_pseudo(tiny_round)
        d.boxes[0, 2] *= 0.5
        assert not checks.check_distilled(gt, d, cfg.k, cfg.overlap_ceiling)

    def test_too_many_pseudo_flagged(self, tiny_round):
        gt, d, n_gt, cfg = self._with_pseudo(tiny_round)
        n_pseudo = int(np.count_nonzero(d.origins == labels.Origin.PSEUDO))
        assert not checks.check_distilled(gt, d, n_pseudo - 1, cfg.overlap_ceiling)


class TestExemplar:
    def test_program_selection_passes(self, tiny_round):
        for sel in tiny_round.record.selections:
            assert checks.check_selection(
                sel.images, sel.categories, sel.n_images, sel.selected, workloads.BUDGET_FRACTION
            )

    def test_other_selection_flagged(self, tiny_round):
        sel = tiny_round.record.selections[0]
        others = [i for i in sorted(sel.images) if i not in sel.selected]
        wrong = sel.selected[:-1] + [others[-1]]
        assert not checks.check_selection(
            sel.images, sel.categories, sel.n_images, wrong, workloads.BUDGET_FRACTION
        )

    def test_wrong_size_flagged(self, tiny_round):
        sel = tiny_round.record.selections[0]
        assert not checks.check_selection(
            sel.images, sel.categories, sel.n_images, sel.selected[:-1], workloads.BUDGET_FRACTION
        )


class TestCheckpoint:
    def test_round_trip_passes_and_tampering_flagged(self, tmp_path):
        params = td.init_params(4, 2, 3, seed=0)
        path = tmp_path / "p.json"
        td.save_checkpoint(params, path)
        assert checks.check_checkpoint(path, params.checksum())
        doc = json.loads(path.read_text())
        doc["w_box"][0][0][0] += 1e-9
        path.write_text(json.dumps(doc))
        assert not checks.check_checkpoint(path, params.checksum())


class TestMetrics:
    def _final(self, tiny_inputs, tiny_round):
        """Detections and truth of the held-out images without border annotations."""
        cats = tiny_round.record.final_categories
        skip = set(tiny_inputs.border_images)
        truth = [
            a for a in tiny_round.setup.heldout.annotations if a.category in set(cats) and a.image_id not in skip
        ]
        dets = [d for d in tiny_round.record.detections if d.image_id not in skip]
        return dets, truth, cats

    def test_program_ap_matches_own(self, tiny_inputs, tiny_round):
        dets, truth, cats = self._final(tiny_inputs, tiny_round)
        s = metrics.evaluate_detections(dets, truth, categories=cats)
        rows, gts = checks.detection_rows(dets), checks.truth_rows(truth)
        assert checks.own_ap(rows, gts, cats, thresholds=(0.5,)) == pytest.approx(s.ap50, abs=1e-12)
        assert checks.own_ap(rows, gts, cats) == pytest.approx(s.ap, abs=1e-12)

    def test_shuffled_scores_flagged(self, tiny_inputs, tiny_round):
        dets, truth, cats = self._final(tiny_inputs, tiny_round)
        scores = [d.score for d in dets]
        np.random.default_rng(0).shuffle(scores)
        shuffled = [dataclasses.replace(d, score=s) for d, s in zip(dets, scores)]
        wrong = metrics.evaluate_detections(shuffled, truth, categories=cats).ap50
        own = checks.own_ap(checks.detection_rows(dets), checks.truth_rows(truth), cats, thresholds=(0.5,))
        assert abs(wrong - own) > 1e-9

    def test_truth_as_detections_scores_one(self, tiny_inputs, tiny_round):
        _, truth, cats = self._final(tiny_inputs, tiny_round)
        rows = [(a.image_id, a.category, 1.0, a.box.to_array()) for a in truth]
        assert checks.own_ap(rows, checks.truth_rows(truth), cats) == pytest.approx(1.0)


WIDTH, HEIGHT = 640, 480
CROSSING = workloads.BORDER_BBOXES[:4]  # cross the left or top edge
OUTSIDE = workloads.BORDER_BBOXES[4:]  # lie wholly outside a 640 x 480 image


def _crop(bbox):
    """Pixel (x, y, w, h) cropped to the image, or None when nothing is left."""
    x, y, w, h = bbox
    x0, y0, x1, y1 = max(x, 0.0), max(y, 0.0), min(x + w, WIDTH), min(y + h, HEIGHT)
    return (x0, y0, x1 - x0, y1 - y0) if x1 > x0 and y1 > y0 else None


class TestIngestion:
    """The crop check judges datasets written by hand, right and wrong."""

    INSIDE = (10.0, 20.0, 100.0, 50.0)

    def _write(self, tmp_path, boxes):
        doc = {
            "images": [{"id": 1, "width": WIDTH, "height": HEIGHT}],
            "annotations": [
                {"id": k + 1, "image_id": 1, "category_id": 1, "bbox": list(b)} for k, b in enumerate(boxes)
            ],
            "categories": [{"id": 1, "name": "thing"}],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        return path

    def _dataset(self, boxes):
        """Annotation k + 1 holds pixel box ``boxes[k]``; a None box is left out."""
        anns = [
            ingestion.Annotation(
                id=k + 1, image_id=1, category=0,
                box=BoundingBox((x + w / 2) / WIDTH, (y + h / 2) / HEIGHT, w / WIDTH, h / HEIGHT),
                area_px=w * h, bbox_px=(x, y, w, h),
            )
            for k, b in enumerate(boxes) if b is not None
            for x, y, w, h in [b]
        ]
        return ingestion.Dataset([ingestion.ImageInfo(1, WIDTH, HEIGHT)], anns, ["thing"], {1: 0})

    def _failing(self, tmp_path, raw_boxes, dataset_boxes):
        tally = checks.Tally()
        path = self._write(tmp_path, raw_boxes)
        failing = checks.check_normalized(path, self._dataset(dataset_boxes), tally)
        assert tally.n_attempted == 1
        return failing

    def test_inside_boxes_pass(self, tmp_path):
        boxes = [self.INSIDE, (600.0, 400.0, 40.0, 80.0)]
        assert self._failing(tmp_path, boxes, boxes) == []
        path = self._write(tmp_path, boxes)
        program = ingestion.normalize(ingestion.parse_coco(path))
        assert checks.check_normalized(path, program, checks.Tally()) == []

    @pytest.mark.parametrize("bbox", workloads.BORDER_BBOXES)
    def test_cropped_or_dropped_border_box_passes(self, tmp_path, bbox):
        assert (_crop(bbox) is None) == (bbox in OUTSIDE)
        assert self._failing(tmp_path, [self.INSIDE, bbox], [self.INSIDE, _crop(bbox)]) == []

    @pytest.mark.parametrize("bbox", CROSSING)
    def test_shifted_border_box_flagged(self, tmp_path, bbox):
        x, y, w, h = bbox
        shifted = (max(x, 0.0), max(y, 0.0), w, h)  # moved inside, size kept
        assert self._failing(tmp_path, [self.INSIDE, bbox], [self.INSIDE, shifted]) == [1]

    @pytest.mark.parametrize("bbox", OUTSIDE)
    def test_kept_outside_box_flagged(self, tmp_path, bbox):
        x, y, w, h = bbox
        x0, y0 = min(max(x, 0.0), WIDTH), min(max(y, 0.0), HEIGHT)
        kept = (x0, y0, min(w, WIDTH - x0), min(h, HEIGHT - y0))  # clamped to the edge, not dropped
        assert self._failing(tmp_path, [self.INSIDE, bbox], [self.INSIDE, kept]) == [1]

    def test_missing_or_extra_annotation_flagged(self, tmp_path):
        assert self._failing(tmp_path, [self.INSIDE], []) == [1]
        assert self._failing(tmp_path, [], [self.INSIDE]) == [1]

    def test_only_border_images_may_fail(self, tiny_inputs):
        path = tiny_inputs.heldout_json
        doc = json.loads(path.read_text())
        planted = [a for a in doc["annotations"] if tuple(a["bbox"]) in workloads.BORDER_BBOXES]
        assert sorted(a["image_id"] for a in planted) == sorted(tiny_inputs.border_images)
        assert len(tiny_inputs.border_images) == len(workloads.BORDER_BBOXES)
        ds = ingestion.normalize(ingestion.parse_coco(path))
        assert set(checks.check_normalized(path, ds, checks.Tally())) <= set(tiny_inputs.border_images)
        train = ingestion.normalize(ingestion.parse_coco(tiny_inputs.train_json))
        assert checks.check_normalized(tiny_inputs.train_json, train, checks.Tally()) == []

    def test_border_images_do_not_depend_on_the_seed(self, tiny_inputs, tmp_path):
        other = workloads.make_inputs(TINY, 6, tmp_path)
        assert other.border_images == tiny_inputs.border_images
        assert other.heldout_json.read_bytes() != tiny_inputs.heldout_json.read_bytes()


class TestDeterminism:
    def test_same_seed_same_inputs(self, tiny_inputs, tmp_path):
        again = workloads.make_inputs(TINY, 5, tmp_path)
        for name in ("train_json", "heldout_json", "init_checkpoint"):
            assert getattr(again, name).read_bytes() == getattr(tiny_inputs, name).read_bytes()

    def test_same_seed_same_quality_and_checkpoints(self, tiny_inputs, tiny_round, tmp_path):
        again = experiment.run_round(tiny_inputs, TINY, 5, tmp_path)
        assert again.ap == tiny_round.ap
        assert again.ap_old == tiny_round.ap_old
        assert again.checksums == tiny_round.checksums

    def test_training_beats_the_untrained_detector(self, tiny_inputs, tiny_round):
        import run

        assert tiny_round.ap > run.untrained_ap(tiny_inputs, tiny_round.setup)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero and prints no result."""
    shutil.copytree(BENCH_DIR, tmp_path / "clbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "clbench/run.py", "--workload", "strict-2phase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
