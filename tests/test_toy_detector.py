import json

import numpy as np
import pytest

from iodkit.geometry import BoundingBox
from iodkit.labels import LabeledSet, Origin, one_hot, pad_to_n
from iodkit.losses import detr_loss, dkd_loss
from iodkit.toy_detector import (
    backward,
    forward,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
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
            items.append(one_hot(None, BoundingBox(0, 0, 0, 0), c))
    return pad_to_n(items, n, c)


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_central_differences_with_assignment_fixed(self, seed):
        rng = np.random.default_rng(seed)
        n, c, d = 5, 3, 4
        params = init_params(n, c, d, seed=seed, scale=0.5)
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


class TestForward:
    def test_forward_equals_forward_batch(self):
        rng = np.random.default_rng(7)
        params = init_params(7, 4, 6, seed=1, scale=0.5)
        features = rng.normal(size=(5, 6))
        probs, boxes = forward_batch(params, features)
        assert probs.shape == (5, 7, 5) and boxes.shape == (5, 7, 4)
        for b in range(5):
            one = forward(params, features[b])
            np.testing.assert_allclose(one.probs, probs[b], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(one.boxes, boxes[b], rtol=0.0, atol=1e-12)

    def test_feature_dimension_checked(self):
        params = init_params(3, 2, 4, seed=0)
        with pytest.raises(ValueError, match="feature dim"):
            forward(params, np.zeros(5))


class TestCheckpoint:
    def test_round_trip_keeps_checksum(self, tmp_path):
        params = init_params(4, 3, 5, seed=2)
        path = tmp_path / "phase1.json"
        save_checkpoint(params, path, config_hash="abc")
        loaded, config_hash = load_checkpoint(path)
        assert loaded.checksum() == params.checksum()
        assert config_hash == "abc"
        assert [p.name for p in tmp_path.iterdir()] == ["phase1.json"]  # no temporary file left

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        save_checkpoint(init_params(2, 2, 2, seed=0), path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
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
