import json
import logging
import struct
import tempfile
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iodkit.distillation import PseudoConfig, build_distilled
from iodkit.geometry import BoundingBox
from iodkit.ingestion import normalize, parse_coco
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.losses import detr_loss, dkd_loss
from iodkit.toy_detector import (
    DetectorParams,
    MomentumState,
    _sigmoid,
    _softmax,
    SynthConfig,
    backward,
    forward,
    forward_batch,
    head_gradients,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    synth_generate,
)


def random_labels(rng, n, c):
    """Ground-truth, soft pseudo and background slots in a random order."""
    items = []
    for _ in range(n):
        box = BoundingBox(*rng.uniform(0.3, 0.7, size=2), *rng.uniform(0.1, 0.4, size=2))
        kind = rng.integers(0, 3)
        if kind == 0:
            items.append(one_hot(int(rng.integers(0, c)), box, c))
        elif kind == 1:
            probs = rng.dirichlet(np.ones(c + 1))
            probs[int(rng.integers(0, c))] += 1.0
            origin = np.array([Origin.PSEUDO], dtype=np.int8)
            items.append(LabeledSet((probs / probs.sum())[None], box.to_array()[None], origin))
        else:
            items.append(pad_to_n([], 1, c))
    return pad_to_n(items, n, c)


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_central_differences_with_assignment_fixed(self, seed):
        rng = np.random.default_rng(seed)
        n, c, d = 5, 3, 4
        params = init_params(n, c, d, seed=seed)
        params.w_cls *= 5.0  # standard deviation 0.5 instead of INIT_SCALE
        params.w_box *= 5.0
        feature = rng.normal(size=d)
        labels = random_labels(rng, n, c)
        weight = 0.3  # "no object" class weight
        grads, report = backward(params, feature, labels, 2.0, 5.0, background_class_weight=weight)
        sigma, _ = dkd_loss(forward(params, feature), labels, 2.0, 5.0, background_class_weight=weight)

        def loss(p):
            return detr_loss(forward(p, feature), labels, sigma, 2.0, 5.0, weight).total

        assert loss(params) == report.total
        step = 1e-6
        for name in ("w_cls", "w_box"):
            analytic = getattr(grads, name)
            for idx in np.ndindex(analytic.shape):
                plus, minus = params.copy(), params.copy()
                getattr(plus, name)[idx] += step
                getattr(minus, name)[idx] -= step
                fd = (loss(plus) - loss(minus)) / (2 * step)
                assert abs(fd - analytic[idx]) <= 1e-6 * max(1.0, abs(analytic[idx])), (name, idx)

    def test_refine_ties_keyword_ignored(self):
        # queries 0 and 1 share weights and are best for the one foreground target (slot 1)
        c, d = 2, 3
        params = init_params(4, c, d, seed=0)
        b = BoundingBox(0.4, 0.5, 0.2, 0.3)
        params.w_cls[0, 0, -1] = 5.0
        params.w_box[0, :, -1] = np.log(b.to_array() / (1.0 - b.to_array()))
        params.w_cls[1], params.w_box[1] = params.w_cls[0], params.w_box[0]
        labels = pad_to_n([pad_to_n([], 1, c), one_hot(0, b, c)], 4, c)
        feature = np.zeros(d)
        (g1, r1), (g2, r2) = (backward(params, feature, labels, 2.0, 5.0, refine_ties=f) for f in (True, False))
        for name in ("w_cls", "w_box"):
            assert getattr(g1, name).tobytes() == getattr(g2, name).tobytes()
        assert r1.grad_logits.tobytes() == r2.grad_logits.tobytes()
        assert r1.grad_box_raw.tobytes() == r2.grad_box_raw.tobytes()


class TestForward:
    def test_forward_equals_forward_batch(self):
        rng = np.random.default_rng(7)
        params = init_params(7, 4, 6, seed=1)
        params.w_cls *= 5.0
        params.w_box *= 5.0
        features = rng.normal(size=(5, 6))
        probs, boxes = forward_batch(params, features)
        assert probs.shape == (5, 7, 5) and boxes.shape == (5, 7, 4)
        for b in range(5):
            one = forward(params, features[b])
            np.testing.assert_allclose(one.probs, probs[b], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(one.boxes, boxes[b], rtol=0.0, atol=1e-12)

    def test_softmax_and_sigmoid_keep_the_out_of_place_bits(self):
        rng = np.random.default_rng(9)
        for scale in (0.1, 3.0, 30.0):
            z = rng.normal(0.0, scale, size=(8, 100, 21))
            z[0, 0, :3] = [0.0, -0.0, 700.0]
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            logits = z.copy()  # _softmax overwrites its argument and returns it
            assert _softmax(logits) is logits
            assert logits.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
            assert _sigmoid(z).tobytes() == (1.0 / (1.0 + np.exp(-z))).tobytes()

    def test_feature_dimension_checked(self):
        params = init_params(3, 2, 4, seed=0)
        with pytest.raises(ValueError, match="feature dim"):
            forward(params, np.zeros(5))

    @pytest.mark.parametrize("width", [3, 5])
    def test_batch_feature_dimension_checked(self, width):
        params = init_params(3, 2, 4, seed=0)
        with pytest.raises(ValueError, match=f"feature dim {width} != detector dim 4"):
            forward_batch(params, np.zeros((2, width)))

    @pytest.mark.parametrize("shape", [(4,), (2, 1, 4), ()])
    def test_batch_must_be_two_dimensional(self, shape):
        params = init_params(3, 2, 4, seed=0)
        with pytest.raises(ValueError, match="features must be 2-D"):
            forward_batch(params, np.zeros(shape))


# Finite float64 values that stress a product: signed zeros, subnormals, the
# smallest normal and magnitudes whose products overflow or underflow.
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, -1e300, 1.7976931348623157e308]
product_operands = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def reference_head_gradients(feature, grad_logits, grad_box_raw):
    """The broadcast product ``head_gradients`` replaced, kept as its oracle."""
    xb = np.concatenate([feature, [1.0]])
    return DetectorParams(
        w_cls=grad_logits[:, :, None] * xb[None, None, :],
        w_box=grad_box_raw[:, :, None] * xb[None, None, :],
    )


class TestHeadGradients:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 4),
        c=st.integers(1, 3),
        d=st.integers(1, 5),
        data=st.data(),
    )
    def test_equals_broadcast_product(self, n, c, d, data):
        def draw(size):
            return np.array(data.draw(st.lists(product_operands, min_size=size, max_size=size)), dtype=np.float64)

        feature = draw(d)
        grad_logits = draw(n * (c + 1)).reshape(n, c + 1)
        grad_box_raw = draw(n * 4).reshape(n, 4)
        if data.draw(st.booleans()):
            grad_box_raw[: n // 2 + 1] = 0.0  # unmatched queries get zero box gradients
        with np.errstate(over="ignore", under="ignore"):
            got = head_gradients(feature, grad_logits, grad_box_raw)
            ref = reference_head_gradients(feature, grad_logits, grad_box_raw)
        for name in ("w_cls", "w_box"):
            g, r = getattr(got, name), getattr(ref, name)
            assert g.shape == r.shape and g.flags.c_contiguous
            # One product per entry, written into +0.0: equal to the product
            # bit for bit, except that a -0.0 product reads +0.0.
            assert g.tobytes() == (0.0 + r).tobytes(), name

    def test_signed_zero_product_reads_positive_zero(self):
        args = np.array([-2.0]), np.array([[0.0, -0.0]]), np.zeros((1, 4))
        assert np.signbit(reference_head_gradients(*args).w_cls).ravel().tolist() == [True, False, False, True]
        assert head_gradients(*args).w_cls.tobytes() == np.zeros((1, 2, 2)).tobytes()


def train_steps(head_grad, n_batches=4, batch=4):
    """forward_batch -> dkd_loss -> ``head_grad`` -> sgd_step on synthetic images; returns the weights.

    The first half of each batch trains on ground truth, the second half on
    DKD label sets built from a frozen copy of the initial model.
    """
    cfg = SynthConfig(n_images=n_batches * batch, feature_dim=12, n_categories=4, seed=5)
    dataset, features = synth_generate(cfg)
    c, n = cfg.n_categories, 8
    by_image = dataset.by_image()
    ids = dataset.image_ids()
    gt = {i: pad_to_n([one_hot(a.category, a.box, c) for a in by_image[i]], n, c) for i in ids}
    params = init_params(n, c, cfg.feature_dim, seed=3)
    old = params.copy()
    state = MomentumState.zeros(params)
    for start in range(0, len(ids), batch):
        chunk = ids[start : start + batch]
        x = np.stack([features[i] for i in chunk])
        old_probs, old_boxes = forward_batch(old, x)
        probs, boxes = forward_batch(params, x)
        acc = params.zeros_like()
        for k, image_id in enumerate(chunk):
            target = gt[image_id]
            if k >= batch // 2:
                old_preds = LabeledSet(old_probs[k], old_boxes[k], np.full(n, Origin.PREDICTION, dtype=np.int8))
                target = build_distilled(target, old_preds, PseudoConfig(k=3))
            preds = LabeledSet(probs[k], boxes[k], np.full(n, Origin.PREDICTION, dtype=np.int8))
            _, report = dkd_loss(preds, target, 2.0, 5.0, background_class_weight=0.5)
            g = head_grad(x[k], report.grad_logits, report.grad_box_raw)
            acc.w_cls += g.w_cls
            acc.w_box += g.w_box
        acc.w_cls /= len(chunk)
        acc.w_box /= len(chunk)
        sgd_step(params, acc, 0.05, state)
    return params


class TestSynthConfig:
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"feature_dim": 7}, "feature_dim should be >= n_categories"),
            ({"objects_range": (0, 2)}, "objects_range must fit"),
            ({"objects_range": (3, 2)}, "objects_range must fit"),
            ({"objects_range": (1, 9)}, "objects_range must fit"),
            ({"box_size_range": (0.0, 0.3)}, "box_size_range"),
            ({"box_size_range": (-0.1, 0.3)}, "box_size_range"),
            ({"box_size_range": (0.4, 0.3)}, "box_size_range"),
            ({"box_size_range": (0.5, 0.96)}, "box_size_range"),  # 0.96 * 1.05 > 1
            ({"box_size_range": (float("nan"), 0.3)}, "box_size_range"),
            # a box that can cross the image edge: hi * 1.05 / 2 > 0.25 - 0.02
            ({"box_size_range": (0.9, 0.95)}, "box_size_range"),
            ({"box_size_range": (0.8, 0.95)}, "box_size_range"),
            ({"box_size_range": (0.2, 0.439)}, "box_size_range"),
            # a world of empty, negative or fractional images, or of fewer than no images
            ({"image_size": 0}, "image_size must be an integer >= 1"),
            ({"image_size": -5}, "image_size must be an integer >= 1"),
            ({"image_size": 640.5}, "image_size must be an integer >= 1"),
            ({"image_size": True}, r"image_size must be an integer >= 1 \(a bool is not\), got True"),
            ({"n_images": -1}, "n_images must be an integer >= 0"),
            ({"n_images": 2.5}, "n_images must be an integer >= 0"),
            ({"n_images": True}, r"n_images must be an integer >= 0 \(a bool is not\), got True"),
            # a fractional or negative seed or size, or a bool count, fails here and not in NumPy
            ({"feature_dim": 8.5}, "feature_dim must be an integer >= 1"),
            ({"seed": 2.5}, "seed must be an integer >= 0"),
            ({"seed": -1}, "seed must be an integer >= 0"),
            ({"n_categories": True}, r"n_categories must be an integer >= 1 \(a bool is not\), got True"),
            ({"objects_range": (1.5, 2)}, r"objects_range must fit .* as integers, got \(1.5, 2\)"),
            ({"objects_range": (True, 2)}, r"objects_range must fit .* as integers, got \(True, 2\)"),
        ],
    )
    def test_rejected_when_built(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**{"n_categories": 8, **fields})

    @pytest.mark.parametrize("size_range, lo, hi", [((0.43, 0.438), 0.4085, 0.4599), ((0.001, 0.001), 0.00095, 0.00105)])
    def test_boxes_keep_their_jittered_size(self, size_range, lo, hi):
        # no side is clamped: the widest accepted range keeps its jitter, and a tiny one is
        # not raised to a floor
        dataset, _ = synth_generate(SynthConfig(n_images=30, n_categories=4, box_size_range=size_range))
        sides = [v for a in dataset.annotations for v in (a.box.w, a.box.h)]
        assert lo <= min(sides) and max(sides) <= hi

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(n_images=1000, n_categories=20, seed=11),
            SynthConfig(n_images=200, n_categories=64, box_size_range=(0.438, 0.438)),
            SynthConfig(n_images=100, n_categories=4, box_size_range=(0.001, 0.001), image_size=37),
        ],
        ids=["dense", "largest-boxes", "tiny-boxes"],
    )
    def test_world_equals_its_coco_round_trip(self, cfg, tmp_path, caplog):
        # written as the benchmark writes a world: pixel boxes, ids, and dense category ids
        world, _ = synth_generate(cfg)
        doc = {
            "images": [{"id": im.id, "width": im.width, "height": im.height} for im in world.images],
            "annotations": [
                {"id": a.id, "image_id": a.image_id, "category_id": a.category, "bbox": list(map(float, a.bbox_px))}
                for a in world.annotations
            ],
            "categories": [{"id": c, "name": name} for c, name in enumerate(world.category_names)],
        }
        path = tmp_path / "world.json"
        path.write_text(json.dumps(doc))
        with caplog.at_level(logging.WARNING, logger="iodkit.ingestion"):
            back = normalize(parse_coco(path))
        differ = [a.id for a, b in zip(back.annotations, world.annotations, strict=True) if repr(a) != repr(b)]
        assert differ == [] and repr(back) == repr(world)
        assert caplog.records == []

    def test_boxes_lie_inside_their_image_at_the_largest_accepted_range(self):
        cfg = SynthConfig(n_images=200, n_categories=64, box_size_range=(0.438, 0.438))  # many centres
        dataset, _ = synth_generate(cfg)
        xywh = np.array([a.bbox_px for a in dataset.annotations])
        assert len(xywh) >= 200 and (xywh[:, :2] >= 0).all()
        assert (xywh[:, :2] + xywh[:, 2:] <= cfg.image_size).all()


class TestTrainingStep:
    def test_checksum_equals_reference_outer_product(self):
        fast, ref = train_steps(head_gradients), train_steps(reference_head_gradients)
        assert fast.checksum() == ref.checksum()
        assert fast.checksum() != init_params(8, 4, 12, seed=3).checksum()  # the steps moved the weights

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), 0.0, -0.05])
    def test_non_finite_or_non_positive_lr_rejected(self, lr):
        params = init_params(8, 4, 12, seed=3)
        before = params.checksum()
        grads = init_params(8, 4, 12, seed=4)
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            sgd_step(params, grads, lr, MomentumState.zeros(params))
        assert params.checksum() == before

    @pytest.mark.parametrize("momentum", [-0.1, 1.0, 1.5, float("nan")])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        params = init_params(8, 4, 12, seed=3)
        before = params.checksum()
        grads = init_params(8, 4, 12, seed=4)
        with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
            sgd_step(params, grads, 0.05, MomentumState.zeros(params), momentum=momentum)
        assert params.checksum() == before


class TestCheckpoint:
    def test_round_trip_keeps_checksum(self, tmp_path):
        params = init_params(4, 3, 5, seed=2)
        path = tmp_path / "phase1.json"
        save_checkpoint(params, path)
        loaded, second = load_checkpoint(path)
        assert loaded.checksum() == params.checksum()
        assert second is None
        assert [p.name for p in tmp_path.iterdir()] == ["phase1.json"]  # no temporary file left

    def test_saved_file_reads_with_stdlib_json(self, tmp_path):
        params = init_params(4, 3, 5, seed=2)
        path = tmp_path / "c.json"
        save_checkpoint(params, path)
        text = path.read_text()
        doc = json.loads(text)
        assert text.endswith("}\n") and list(doc) == sorted(doc)
        assert set(doc) == {"version", "n_queries", "n_categories", "feature_dim", "w_cls", "w_box"}
        assert doc["version"] == 1
        assert (doc["n_queries"], doc["n_categories"], doc["feature_dim"]) == (4, 3, 5)
        for name in ("w_cls", "w_box"):
            assert np.asarray(doc[name], dtype=np.float64).tobytes() == getattr(params, name).tobytes()

    def test_two_saves_are_byte_identical(self, tmp_path):
        params = init_params(4, 3, 5, seed=2)
        save_checkpoint(params, tmp_path / "a.json")
        save_checkpoint(params.copy(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(0, 2**64 - 1)
                .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
                .filter(np.isfinite),
            ),
            min_size=24,
            max_size=24,
        )
    )
    @example([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308] * 4)
    def test_every_finite_float64_round_trips_bitwise(self, values):
        flat = np.array(values, dtype=np.float64)
        params = DetectorParams(w_cls=flat[:8].reshape(2, 2, 2), w_box=flat[8:].reshape(2, 4, 2))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            save_checkpoint(params, path)
            loaded, _ = load_checkpoint(path)
        assert loaded.checksum() == params.checksum()

    def test_numpy_encoding_equals_nested_lists(self, tmp_path):
        # the file save_checkpoint wrote when it passed orjson the weights as nested lists
        rng = np.random.default_rng(8)
        edge = [-0.0, 5e-324, -5e-324, 1e16, 1e21, 1e-7, 1 / 3, -1e21, 1.7976931348623157e308]
        w_cls = rng.normal(size=(100, 40, 50))
        w_cls.flat[: len(edge)] = edge
        params = DetectorParams(w_cls=w_cls, w_box=np.asfortranarray(rng.normal(size=(100, 4, 50))))
        save_checkpoint(params, tmp_path / "c.json")
        doc = {
            "version": 1,
            "n_queries": 100,
            "n_categories": 39,
            "feature_dim": 49,
            "w_cls": params.w_cls.tolist(),
            "w_box": params.w_box.tolist(),
        }
        expected = orjson.dumps(doc, option=orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE)
        assert (tmp_path / "c.json").read_bytes() == expected

    def test_non_finite_weight_rejected_before_writing(self, tmp_path):
        params = init_params(2, 2, 2, seed=0)
        params.w_box[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(params, tmp_path / "c.json")
        assert list(tmp_path.iterdir()) == []  # neither the checkpoint nor its .tmp

    def test_wrong_number_of_dimensions_rejected(self):
        params = init_params(2, 2, 2, seed=0)
        with pytest.raises(ValueError, match="3-D"):
            DetectorParams(params.w_cls[0], params.w_box).validate()
        with pytest.raises(ValueError, match="3-D"):
            DetectorParams(params.w_cls, params.w_box[..., None]).validate()

    @pytest.mark.parametrize(
        "w_box_shape, message",
        [
            ((3, 4, 3), "class and box heads disagree on N or d"),  # N = 3 against 2
            ((2, 4, 5), "class and box heads disagree on N or d"),  # 5 inputs against 3
            ((2, 3, 3), "box head must have 4 outputs"),
        ],
    )
    def test_heads_of_mismatched_shape_rejected(self, w_box_shape, message):
        params = init_params(2, 2, 2, seed=0)  # w_cls (2, 3, 3): N = 2, 2 features and a bias
        with pytest.raises(ValueError, match=message):
            DetectorParams(params.w_cls, np.zeros(w_box_shape)).validate()

    @pytest.mark.parametrize("version", [99, True, 1.0, "1", None])
    def test_unknown_version_rejected(self, tmp_path, version):
        path = tmp_path / "c.json"
        save_checkpoint(init_params(2, 2, 2, seed=0), path)
        doc = json.loads(path.read_text())
        doc["version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version!r}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [{"n_queries": True}, {"n_categories": 1.0}, {"feature_dim": True}, {"n_queries": 1.0}],
    )
    def test_header_that_is_not_an_exact_int_rejected(self, tmp_path, edit):
        # every header is 1, so True and 1.0 compare equal to it
        path = tmp_path / "c.json"
        save_checkpoint(init_params(1, 1, 1, seed=0), path)
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        (name, value), = edit.items()
        with pytest.raises(ValueError, match=f"checkpoint header {name}={value!r} but the weights give 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            {"n_queries": 7},
            {"n_categories": 2},
            {"feature_dim": 99},
            {"n_queries": 7, "feature_dim": 99},
            {"feature_dim": None},
        ],
    )
    def test_header_disagreeing_with_weights_rejected(self, tmp_path, edit):
        path = tmp_path / "c.json"
        save_checkpoint(init_params(4, 3, 5, seed=0), path)
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "doc, match",
        [
            ([], "must be a JSON object"),
            ("checkpoint", "must be a JSON object"),
            ({"version": 1, "w_box": [[[0.0]] * 4]}, r"lacks weights \['w_cls'\]"),
            ({"version": 1, "w_cls": [[[0.0]] * 2]}, r"lacks weights \['w_box'\]"),
            ({"version": 1, "w_cls": [[0.0, 0.0]], "w_box": [[[0.0]] * 4]}, "3-D"),
        ],
        ids=["list", "string", "no-w_cls", "no-w_box", "2d-w_cls"],
    )
    def test_malformed_document_rejected(self, tmp_path, doc, match):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)
