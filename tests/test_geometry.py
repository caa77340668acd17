import numpy as np
import pytest

from iodkit.geometry import (
    BoundingBox,
    box_loss_matrix,
    box_loss_pairs_with_grad,
    corners_array,
    giou_matrix,
    giou_pairs_with_grad,
    iou_matrix,
)


def rows(*boxes):
    """(k, 4) array of the given boxes."""
    return np.stack([b.to_array() for b in boxes])


def corners(b):
    return corners_array(b.to_array()).tolist()


def pair_losses(pred, target, gamma1, gamma2):
    """The loss of one pair from the matching path and from the training path."""
    matrix = box_loss_matrix(rows(pred), rows(target), gamma1, gamma2)[0, 0]
    pairs, _ = box_loss_pairs_with_grad(rows(pred), rows(target), gamma1, gamma2)
    return matrix, pairs[0]


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


class TestIou:
    def test_identity(self):
        b = BoundingBox(0.4, 0.6, 0.3, 0.2)
        assert iou_matrix(rows(b), rows(b)).item() == 1.0

    def test_disjoint(self):
        a, b = BoundingBox(0.2, 0.2, 0.2, 0.2), BoundingBox(0.8, 0.8, 0.2, 0.2)
        assert iou_matrix(rows(a), rows(b)).item() == 0.0

    def test_one_seventh(self):
        a = BoundingBox(0.5, 0.5, 0.5, 0.5)
        b = BoundingBox(0.75, 0.75, 0.5, 0.5)
        v = iou_matrix(rows(a), rows(b)).item()
        assert abs(v - 1 / 7) < 1e-12
        assert abs(v - raster_iou(a, b)) < 2e-3

    def test_both_degenerate(self):
        z = BoundingBox(0.5, 0.5, 0, 0)
        assert iou_matrix(rows(z), rows(z)).item() == 0.0

    def test_symmetry_randomized(self):
        rng = np.random.default_rng(1)
        a = np.stack([random_box(rng).to_array() for _ in range(100)])
        b = np.stack([random_box(rng).to_array() for _ in range(100)])
        # 10^4 pairwise symmetry checks, exact
        assert np.array_equal(iou_matrix(a, b), iou_matrix(b, a).T)

    def test_raster_oracle_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_box(rng), random_box(rng)
            assert abs(iou_matrix(rows(a), rows(b)).item() - raster_iou(a, b)) < 2e-3


class TestGiou:
    def test_identity(self):
        b = BoundingBox(0.4, 0.6, 0.3, 0.2)
        assert giou_matrix(rows(b), rows(b)).item() == 1.0

    def test_minus_half(self):
        a = BoundingBox(0.25, 0.25, 0.5, 0.5)
        b = BoundingBox(0.75, 0.75, 0.5, 0.5)
        assert giou_matrix(rows(a), rows(b)).item() == -0.5
        # hand arithmetic: union 0.5, hull 1.0, intersection 0
        union = raster_area_fraction([a]) + raster_area_fraction([b])
        assert abs(union - 0.5) < 4e-3

    def test_far_tiny_boxes(self):
        a = BoundingBox(0.01, 0.01, 0.02, 0.02)
        b = BoundingBox(0.99, 0.99, 0.02, 0.02)
        assert giou_matrix(rows(a), rows(b)).item() < -0.9

    def test_degenerate_pair_rejected(self):
        z = BoundingBox(0.5, 0.5, 0, 0)
        with pytest.raises(ValueError, match="degenerate pair"):
            giou_pairs_with_grad(rows(z), rows(z))

    def test_giou_leq_iou(self):
        rng = np.random.default_rng(3)
        a = np.stack([random_box(rng).to_array() for _ in range(200)])
        b = np.stack([random_box(rng).to_array() for _ in range(200)])
        gi = giou_matrix(a, b)
        io = iou_matrix(a, b)
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
        assert abs(giou_matrix(rows(outer), rows(inner)) - iou_matrix(rows(outer), rows(inner))).item() < 1e-12
        # not nested, same y-extent: hull [0.2,0.8]x[0.3,0.7] == union, so GIoU == IoU
        a = BoundingBox(0.4, 0.5, 0.4, 0.4)
        side = BoundingBox(0.6, 0.5, 0.4, 0.4)
        hull, union = hull_and_union(a, side)
        assert abs(hull - union) < 1e-12
        assert abs(giou_matrix(rows(a), rows(side)) - iou_matrix(rows(a), rows(side))).item() < 1e-12
        # overlapping but not nested, shifted on both axes: hull strictly larger
        # hand arithmetic: intersection 0.06, union 0.26, hull 0.30
        b = BoundingBox(0.6, 0.6, 0.4, 0.4)
        hull, union = hull_and_union(a, b)
        assert hull > union + 1e-12
        iou_v, giou_v = iou_matrix(rows(a), rows(b)).item(), giou_matrix(rows(a), rows(b)).item()
        assert abs(iou_v - 3 / 13) < 1e-12
        assert abs(giou_v - (3 / 13 - 2 / 15)) < 1e-12
        assert giou_v < iou_v


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
        for loss in (box_loss_pairs_with_grad, box_loss_matrix):
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
            _, grad = giou_pairs_with_grad(pred[None], target[None])

            def f(x):
                return giou_matrix(x[None], target[None])[0, 0]

            fd = self.central_diff(f, pred)
            assert np.allclose(grad[0], fd, rtol=1e-4, atol=1e-7)

    def test_box_loss_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pred = random_box(rng).to_array()
            target = random_box(rng).to_array()
            if np.allclose(pred, target):
                continue
            _, grads = box_loss_pairs_with_grad(pred[None], target[None], 2.0, 5.0)

            def f(x):
                gi = giou_matrix(x[None], target[None])[0, 0]
                return 2.0 * (1 - gi) + 5.0 * np.abs(x - target).sum()

            fd = self.central_diff(f, pred)
            assert np.allclose(grads[0], fd, rtol=1e-4, atol=1e-7)

    def test_corners_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        boxes = [random_box(rng) for _ in range(20)]
        arr = corners_array(rows(*boxes))
        for i, b in enumerate(boxes):
            assert arr[i].tolist() == [b.cx - b.w / 2, b.cy - b.h / 2, b.cx + b.w / 2, b.cy + b.h / 2]
