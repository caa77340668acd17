import numpy as np
import pytest

from iodkit.geometry import BoundingBox, _giou, _pieces, _planes, box_loss, box_loss_with_grad, iou
from loss_oracle import corners_array


def rows(*boxes):
    """(k, 4) array of the given boxes."""
    return np.stack([b.to_array() for b in boxes])


def program_corners(boxes):
    """(..., 4) corners (x0, y0, x1, y1) of center-size boxes, from the lower and upper corner planes of ``_pieces``."""
    _, _, _, lo, hi, *_ = _pieces(*_planes(boxes, boxes))
    return np.moveaxis(np.concatenate([lo, hi]), 0, -1)


def giou(a, b):
    """The GIoU of float64 boxes broadcast over (..., 4), read as ``box_loss`` reads it."""
    return _giou(*_pieces(*_planes(a, b))[:3])


def corners(b):
    return program_corners(b.to_array()).tolist()


def pair_losses(pred, target, gamma1, gamma2):
    """The loss of one pair from the value path and from the gradient path."""
    values, _ = box_loss_with_grad(rows(pred), rows(target), gamma1, gamma2)
    return box_loss(rows(pred), rows(target), gamma1, gamma2)[0], values[0]


def raster_area_fraction(boxes, grid=1000):
    """Oracle: fraction of unit-square cell centers inside all given boxes."""
    xs = (np.arange(grid) + 0.5) / grid
    ys = (np.arange(grid) + 0.5) / grid
    gx, gy = np.meshgrid(xs, ys)
    inside = np.ones_like(gx, dtype=bool)
    for b in boxes:
        x0, y0, x1, y1 = corners(b)
        inside &= (gx >= x0) & (gx <= x1) & (gy >= y0) & (gy <= y1)
    return inside.mean()


def raster_iou(a, b, grid=1000):
    inter = raster_area_fraction([a, b], grid)
    union = raster_area_fraction([a], grid) + raster_area_fraction([b], grid) - inter
    return inter / union if union > 0 else 0.0


def random_box(rng):
    w = rng.uniform(0.05, 0.9)
    h = rng.uniform(0.05, 0.9)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return BoundingBox(cx, cy, w, h)


class TestCorners:
    def test_full_image_box(self):
        assert corners(BoundingBox(0.5, 0.5, 1, 1)) == [0, 0, 1, 1]

    def test_degenerate_point_box(self):
        assert corners(BoundingBox(0.5, 0.5, 0, 0)) == [0.5, 0.5, 0.5, 0.5]

    def test_quarter_box(self):
        c = corners(BoundingBox(0.25, 0.25, 0.5, 0.5))
        assert c == [0.0, 0.0, 0.5, 0.5]
        # cross-check the implied area against the rasterization oracle
        assert abs(raster_area_fraction([BoundingBox(0.25, 0.25, 0.5, 0.5)]) - 0.25) < 2e-3

    def test_field_validation(self):
        with pytest.raises(ValueError):
            BoundingBox(1.5, 0.5, 0.1, 0.1)
        with pytest.raises(ValueError):
            BoundingBox(0.5, 0.5, -0.1, 0.1)
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0.5, 0.1, 0.1)


FIELDS = ("cx", "cy", "w", "h")
GOOD = {"cx": 0.5, "cy": 0.5, "w": 0.2, "h": 0.2}


class TestBoxValidation:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize(
        "value, reason",
        [
            (float("nan"), "not finite"),
            (float("inf"), "not finite"),
            (float("-inf"), "not finite"),
            (-0.1, r"outside \[0, 1\]"),
            (1.1, r"outside \[0, 1\]"),
        ],
    )
    def test_bad_field_named(self, field, value, reason):
        with pytest.raises(ValueError, match=rf"box field {field}\b.*{reason}"):
            BoundingBox(**{**GOOD, field: value})

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_bounds_accepted(self, field, value):
        box = BoundingBox(**{**GOOD, field: value})
        assert getattr(box, field) == value

    def test_first_bad_field_named(self):
        with pytest.raises(ValueError, match="box field cy is not finite"):
            BoundingBox(0.5, float("nan"), 1.5, 0.2)


class TestIou:
    def test_identity(self):
        b = BoundingBox(0.4, 0.6, 0.3, 0.2)
        assert iou(rows(b), rows(b)).item() == 1.0

    def test_disjoint(self):
        a, b = BoundingBox(0.2, 0.2, 0.2, 0.2), BoundingBox(0.8, 0.8, 0.2, 0.2)
        assert iou(rows(a), rows(b)).item() == 0.0

    def test_one_seventh(self):
        a = BoundingBox(0.5, 0.5, 0.5, 0.5)
        b = BoundingBox(0.75, 0.75, 0.5, 0.5)
        v = iou(rows(a), rows(b)).item()
        assert abs(v - 1 / 7) < 1e-12
        assert abs(v - raster_iou(a, b)) < 2e-3

    def test_both_degenerate(self):
        z = BoundingBox(0.5, 0.5, 0, 0)
        assert iou(rows(z), rows(z)).item() == 0.0

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(1)
        a = np.stack([random_box(rng).to_array() for _ in range(100)])
        b = np.stack([random_box(rng).to_array() for _ in range(100)])
        # 10^4 pairwise symmetry checks, exact
        assert np.array_equal(iou(a[:, None], b[None]), iou(b[:, None], a[None]).T)

    def test_broadcast_block_equals_row_calls(self):
        rng = np.random.default_rng(3)
        a = np.stack([random_box(rng).to_array() for _ in range(30)])
        b = np.stack([random_box(rng).to_array() for _ in range(20)])
        # zero-area boxes (a point, a line, one coincident with another) and coincident boxes
        a[:4] = [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.3], [0.3, 0.3, 0.2, 0.0], b[0]]
        b[1:3] = [[0.5, 0.5, 0.0, 0.0], [0.3, 0.3, 0.2, 0.0]]
        i, j = np.meshgrid(np.arange(30), np.arange(20), indexing="ij")
        for measure in (iou, giou, lambda x, y: box_loss(x, y, 2.0, 5.0)):
            block = measure(a[:, None], b[None])
            assert block.shape == (30, 20)
            assert measure(a[i.ravel()], b[j.ravel()]).tobytes() == block.ravel().tobytes()
            for r in range(30):
                assert measure(a[r], b).tobytes() == block[r].tobytes()
        block = iou(a[:, None], b[None])
        assert block[3, 0] == 1.0 and block[0, 1] == 0.0 and block[2, 2] == 0.0

    def test_same_bits_as_corner_formula(self):
        # the pairwise arithmetic the IoU and GIoU have always used, written out
        rng = np.random.default_rng(4)
        a = np.stack([random_box(rng).to_array() for _ in range(25)] + [[0.5, 0.5, 0.0, 0.0]])
        b = np.stack([random_box(rng).to_array() for _ in range(15)] + [[0.5, 0.5, 0.0, 0.0], a[0]])
        ca, cb = corners_array(a)[:, None, :], corners_array(b)[None, :, :]
        iw = np.minimum(ca[..., 2], cb[..., 2]) - np.maximum(ca[..., 0], cb[..., 0])
        ih = np.minimum(ca[..., 3], cb[..., 3]) - np.maximum(ca[..., 1], cb[..., 1])
        inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
        area_a = (ca[..., 2] - ca[..., 0]) * (ca[..., 3] - ca[..., 1])
        area_b = (cb[..., 2] - cb[..., 0]) * (cb[..., 3] - cb[..., 1])
        union = area_a + area_b - inter
        hw = np.maximum(ca[..., 2], cb[..., 2]) - np.minimum(ca[..., 0], cb[..., 0])
        hh = np.maximum(ca[..., 3], cb[..., 3]) - np.minimum(ca[..., 1], cb[..., 1])
        hull = hw * hh
        iou_v = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
        giou_v = iou_v - np.where(hull > 0, (hull - union) / np.where(hull > 0, hull, 1.0), 0.0)
        assert iou(a[:, None], b[None]).tobytes() == iou_v.tobytes()
        assert giou(a[:, None], b[None]).tobytes() == giou_v.tobytes()

    def test_raster_oracle_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert abs(iou(rows(a), rows(b)).item() - raster_iou(a, b)) < 2e-3


class TestGiou:
    def test_identity(self):
        b = BoundingBox(0.4, 0.6, 0.3, 0.2)
        assert giou(rows(b), rows(b)).item() == 1.0

    def test_minus_half(self):
        a = BoundingBox(0.25, 0.25, 0.5, 0.5)
        b = BoundingBox(0.75, 0.75, 0.5, 0.5)
        assert giou(rows(a), rows(b)).item() == -0.5
        # hand arithmetic: union 0.5, hull 1.0, intersection 0
        union = raster_area_fraction([a]) + raster_area_fraction([b])
        assert abs(union - 0.5) < 4e-3

    def test_far_tiny_boxes(self):
        a = BoundingBox(0.01, 0.01, 0.02, 0.02)
        b = BoundingBox(0.99, 0.99, 0.02, 0.02)
        assert giou(rows(a), rows(b)).item() < -0.9

    def test_degenerate_pair_rejected(self):
        # an empty hull: the values fall back to IoU (= 0), the gradient does not exist
        z = BoundingBox(0.5, 0.5, 0, 0)
        assert giou(rows(z), rows(z)).item() == 0.0
        assert box_loss(rows(z), rows(z), 2.0, 5.0).item() == 2.0
        with pytest.raises(ValueError, match="degenerate pair"):
            box_loss_with_grad(rows(z), rows(z), 2.0, 5.0)

    def test_giou_leq_iou(self):
        rng = np.random.default_rng(3)
        a = np.stack([random_box(rng).to_array() for _ in range(200)])
        b = np.stack([random_box(rng).to_array() for _ in range(200)])
        gi = giou(a[:, None], b[None])
        io = iou(a[:, None], b[None])
        assert np.all(gi <= io + 1e-12)

    def test_giou_equals_iou_iff_hull_is_union(self):
        def hull_and_union(a, b):
            ax0, ay0, ax1, ay1 = corners(a)
            bx0, by0, bx1, by1 = corners(b)
            iw = max(0.0, min(ax1, bx1) - max(ax0, bx0))
            ih = max(0.0, min(ay1, by1) - max(ay0, by0))
            hull = (max(ax1, bx1) - min(ax0, bx0)) * (max(ay1, by1) - min(ay0, by0))
            return hull, a.w * a.h + b.w * b.h - iw * ih

        # nested boxes: hull == outer box == union
        outer = BoundingBox(0.5, 0.5, 0.8, 0.8)
        inner = BoundingBox(0.5, 0.5, 0.4, 0.4)
        assert abs(giou(rows(outer), rows(inner)) - iou(rows(outer), rows(inner))).item() < 1e-12
        # not nested, same y-extent: hull [0.2,0.8]x[0.3,0.7] == union, so GIoU == IoU
        a = BoundingBox(0.4, 0.5, 0.4, 0.4)
        side = BoundingBox(0.6, 0.5, 0.4, 0.4)
        hull, union = hull_and_union(a, side)
        assert abs(hull - union) < 1e-12
        assert abs(giou(rows(a), rows(side)) - iou(rows(a), rows(side))).item() < 1e-12
        # overlapping but not nested, shifted on both axes: hull strictly larger
        # hand arithmetic: intersection 0.06, union 0.26, hull 0.30
        b = BoundingBox(0.6, 0.6, 0.4, 0.4)
        hull, union = hull_and_union(a, b)
        assert hull > union + 1e-12
        iou_v, giou_v = iou(rows(a), rows(b)).item(), giou(rows(a), rows(b)).item()
        assert abs(iou_v - 3 / 13) < 1e-12
        assert abs(giou_v - (3 / 13 - 2 / 15)) < 1e-12
        assert giou_v < iou_v


class TestWithGradEqualsBoxLoss:
    """The training path (``box_loss_with_grad``) gives the matching path's values bit for bit."""

    SPECIAL = [
        ([0.4, 0.6, 0.3, 0.2], [0.4, 0.6, 0.3, 0.2]),  # coincident
        ([0.5, 0.5, 0.8, 0.8], [0.5, 0.5, 0.4, 0.4]),  # nested, same centre
        ([0.45, 0.55, 0.1, 0.2], [0.5, 0.5, 0.6, 0.6]),  # nested, off centre
        ([0.25, 0.5, 0.5, 0.4], [0.75, 0.5, 0.5, 0.4]),  # touching along an edge
        ([0.25, 0.25, 0.5, 0.5], [0.75, 0.75, 0.5, 0.5]),  # touching at a corner
        ([0.1, 0.1, 0.1, 0.1], [0.9, 0.8, 0.1, 0.2]),  # disjoint
        ([0.3, 0.2, 0.4, 0.1], [0.4, 0.8, 0.4, 0.1]),  # overlapping in x only
        ([0.5, 0.5, 0.0, 0.0], [0.6, 0.6, 0.2, 0.2]),  # a point beside a box
    ]

    def assert_same_bits(self, pred, target):
        diag = np.arange(len(pred))
        for gamma1, gamma2 in ((2.0, 5.0), (1.0, 0.0), (0.0, 1.0), (0.7, 3.3)):
            loss_v, _ = box_loss_with_grad(pred, target, gamma1, gamma2)
            assert loss_v.tobytes() == box_loss(pred, target, gamma1, gamma2).tobytes()
            block = box_loss(pred[:, None], target[None], gamma1, gamma2)
            assert loss_v.tobytes() == block[diag, diag].tobytes()

    def test_special_pairs(self):
        pred = np.array([p for p, _ in self.SPECIAL])
        target = np.array([t for _, t in self.SPECIAL])
        self.assert_same_bits(pred, target)
        self.assert_same_bits(target, pred)

    def test_random_sets(self):
        rng = np.random.default_rng(11)
        special = np.array(self.SPECIAL)
        for _ in range(300):
            k = int(rng.integers(1, 30))
            pred = np.stack([random_box(rng).to_array() for _ in range(k)])
            target = np.stack([random_box(rng).to_array() for _ in range(k)])
            coincide = rng.random(k) < 0.2
            target[coincide] = pred[coincide]
            mixed = rng.random(k) < 0.2
            picks = rng.integers(0, len(special), size=int(mixed.sum()))
            pred[mixed], target[mixed] = special[picks, 0], special[picks, 1]
            self.assert_same_bits(pred, target)


class TestBoxLoss:
    def test_zero_at_identity(self):
        b = BoundingBox(0.3, 0.7, 0.2, 0.1)
        assert pair_losses(b, b, 2.0, 5.0) == (0.0, 0.0)

    def test_pure_l1(self):
        pred = BoundingBox(0.5, 0.5, 0.5, 0.5)
        target = BoundingBox(0.6, 0.5, 0.5, 0.5)
        assert all(abs(v - 0.1) < 1e-12 for v in pair_losses(pred, target, 0.0, 1.0))

    def test_default_weights_composition(self):
        a = BoundingBox(0.25, 0.25, 0.5, 0.5)
        b = BoundingBox(0.75, 0.75, 0.5, 0.5)
        assert all(abs(v - 8.0) < 1e-12 for v in pair_losses(a, b, 2.0, 5.0))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            for v in pair_losses(a, b, 2.0, 5.0):
                if a == b:
                    assert v == 0.0
                else:
                    assert v > 0.0

    def test_negative_weights_rejected(self):
        b = BoundingBox(0.5, 0.5, 0.2, 0.2)
        for loss in (box_loss_with_grad, box_loss):
            for gamma1, gamma2 in [(-1.0, 5.0), (2.0, -1.0)]:
                with pytest.raises(ValueError, match="non-negative"):
                    loss(rows(b), rows(b), gamma1, gamma2)


class TestGrads:
    def central_diff(self, fn, x, eps=1e-6):
        g = np.zeros_like(x)
        for k in range(x.shape[0]):
            xp, xm = x.copy(), x.copy()
            xp[k] += eps
            xm[k] -= eps
            g[k] = (fn(xp) - fn(xm)) / (2 * eps)
        return g

    def test_giou_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pred = random_box(rng).to_array()
            target = random_box(rng).to_array()
            _, grad = box_loss_with_grad(pred[None], target[None], 1.0, 0.0)

            def f(x):
                return 1.0 - giou(x, target)

            fd = self.central_diff(f, pred)
            assert np.allclose(grad[0], fd, rtol=1e-4, atol=1e-7)

    def test_box_loss_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pred = random_box(rng).to_array()
            target = random_box(rng).to_array()
            if np.allclose(pred, target):
                continue
            _, grads = box_loss_with_grad(pred[None], target[None], 2.0, 5.0)

            def f(x):
                gi = giou(x, target)
                return 2.0 * (1 - gi) + 5.0 * np.abs(x - target).sum()

            fd = self.central_diff(f, pred)
            assert np.allclose(grads[0], fd, rtol=1e-4, atol=1e-7)

    def test_corners_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        boxes = [random_box(rng) for _ in range(20)]
        arr = program_corners(rows(*boxes))
        assert arr.tobytes() == corners_array(rows(*boxes)).tobytes()
        for i, b in enumerate(boxes):
            assert arr[i].tolist() == [b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2]
