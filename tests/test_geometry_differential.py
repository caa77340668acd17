"""The box measures on coordinate planes give the bytes of the paired layout they replaced.

``loss_oracle`` keeps the box geometry of the set loss's differential oracle, whose
``_pieces``, ``box_loss`` and ``box_loss_with_grad`` give the paired layout's bytes; its IoU
is ``_ratio`` of its first two pieces. Each test draws the shapes one caller
passes: matching's (1, N, 4) predictions against (k, 1, 4) targets, the set loss's matched
(k, 4) rows, DKD's (k, 1, 4) old predictions against (1, g, 4) ground truth, and
evaluation's (M, 4) against (M, 4). Boxes mix continuous ones, boxes on a 1/32 grid (so
that edges touch and boxes nest or coincide exactly), points and lines. ``_pieces`` is
compared piece by piece, its (2, ...) corner and side planes read back as (..., 2) pairs
and the oracle's corners and x, y sides gathered into the same pairs.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loss_oracle
from iodkit.geometry import _pieces, _planes, box_loss, box_loss_with_grad, iou

KINDS = ("box", "grid", "point", "vertical line", "horizontal line")
GAMMAS = ((2.0, 5.0), (0.7, 3.3), (1.0, 0.0), (0.0, 1.0))


def make_box(rng, kind):
    if kind == "grid":  # multiples of 1/32: exact corners, so edges touch and boxes nest exactly
        w, h = rng.integers(1, 12, size=2) / 16
        cx, cy = rng.integers(8, 25, size=2) / 32
        return [cx, cy, w, h]
    cx, cy = rng.uniform(0.1, 0.9, size=2)
    w, h = rng.uniform(0.01, 0.5, size=2)
    if kind in ("point", "vertical line"):
        w = 0.0
    if kind in ("point", "horizontal line"):
        h = 0.0
    return [cx, cy, w, h]


@st.composite
def box_rows(draw, n):
    """(n, 4) float64 boxes of drawn kinds."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    return np.array([make_box(rng, kind) for kind in kinds], dtype=np.float64).reshape(n, 4)


def same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def oracle_pieces(a, b):
    """The oracle's pieces in ``_pieces``' order: the areas, then (..., 2) corners and sides."""
    inter, union, hull, ca, cb, iw, ih, hw, hh = loss_oracle._pieces(a, b)
    lo_a, hi_a, lo_b, hi_b = ca[..., :2], ca[..., 2:], cb[..., :2], cb[..., 2:]
    return inter, union, hull, lo_a, hi_a, lo_b, hi_b, hi_a - lo_a, np.stack([iw, ih], -1), np.stack([hw, hh], -1)


def oracle_iou(a, b):
    return loss_oracle._ratio(*loss_oracle._pieces(a, b)[:2])


def assert_pieces_same(a, b):
    """``_pieces`` on planes equals the oracle's: areas as they are, (2, ...) planes as (..., 2) pairs."""
    new, old = _pieces(*_planes(a, b)), oracle_pieces(a, b)
    for got, want in zip(new[:3], old[:3]):
        assert same(got, want)
    for got, want in zip(new[3:], old[3:]):
        assert same(np.moveaxis(got, 0, -1), want)


def assert_values_same(a, b, gammas):
    assert_pieces_same(a, b)
    assert same(iou(a, b), oracle_iou(a, b))
    assert same(box_loss(a, b, *gammas), loss_oracle.box_loss(a, b, *gammas))


def outcome_with_grad(fn, pred, target, gammas):
    """Values and gradient bytes, or the error an empty hull raises."""
    try:
        values, grad = fn(pred, target, *gammas)
    except ValueError as e:
        return "ValueError", str(e)
    return values.shape, values.tobytes(), grad.shape, grad.tobytes()


@st.composite
def cost_blocks(draw):
    """Matching's block: N predictions as (1, N, 4), k foreground targets as (k, 1, 4)."""
    n = draw(st.integers(1, 100))
    k = draw(st.integers(0, 15))
    preds, targets = draw(box_rows(n)), draw(box_rows(k))
    if k and n and draw(st.booleans()):  # a target copied from a prediction
        targets[0] = preds[draw(st.integers(0, n - 1))]
    return preds[None], targets[:, None], draw(st.sampled_from(GAMMAS))


@settings(max_examples=300, deadline=None)
@given(cost_blocks())
@example((np.array([[[0.5, 0.5, 0.2, 0.2]]]), np.zeros((0, 1, 4)), (2.0, 5.0)))
def test_cost_block_same_bytes(block):
    preds, targets, gammas = block
    assert_values_same(preds, targets, gammas)


# Matched-pair relations: each makes target row i from pred row i.
def coincident(rng, p):
    return p


def nested(rng, p):  # inside p, sharing its centre: halves of a grid box's sides stay exact
    return [p[0], p[1], p[2] / 2, p[3] / 2]


def touching_edge(rng, p):  # the next box along x, its left edge on p's right edge
    return [p[0] + p[2], p[1], p[2], p[3]]


def touching_corner(rng, p):
    return [p[0] + p[2], p[1] + p[3], p[2], p[3]]


def independent(rng, p):
    return make_box(rng, KINDS[int(rng.integers(0, len(KINDS)))])


RELATIONS = (independent, coincident, nested, touching_edge, touching_corner)


@st.composite
def matched_rows(draw, allow_empty_hull):
    """The set loss's matched (k, 4) rows; pred row i relates to target row i as drawn."""
    k = draw(st.integers(0, 15))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pred = np.zeros((k, 4))
    target = np.zeros((k, 4))
    for i in range(k):
        kind = draw(st.sampled_from(("box", "grid", "box", "grid", "point", "vertical line", "horizontal line")))
        pred[i] = make_box(rng, kind)
        target[i] = draw(st.sampled_from(RELATIONS))(rng, pred[i])
    if not allow_empty_hull:  # a line on its own line has a hull of no area; widen its target
        empty = loss_oracle._pieces(pred, target)[2] <= 0
        target[empty] = np.column_stack([pred[empty, :2], np.full((empty.sum(), 2), 0.1)])
    elif k and draw(st.booleans()):  # one pair of the same point: an empty hull
        i = draw(st.integers(0, k - 1))
        pred[i] = target[i] = [0.5, 0.5, 0.0, 0.0]
    return pred, target, draw(st.sampled_from(GAMMAS))


@settings(max_examples=300, deadline=None)
@given(matched_rows(allow_empty_hull=False))
def test_matched_rows_same_bytes(rows):
    pred, target, gammas = rows
    assert_values_same(pred, target, gammas)
    got = outcome_with_grad(box_loss_with_grad, pred, target, gammas)
    assert got == outcome_with_grad(loss_oracle.box_loss_with_grad, pred, target, gammas)


@settings(max_examples=200, deadline=None)
@given(matched_rows(allow_empty_hull=True))
@example((np.array([[0.5, 0.5, 0.0, 0.0]]), np.array([[0.5, 0.5, 0.0, 0.0]]), (2.0, 5.0)))
def test_empty_hull_raises_as_oracle(rows):
    pred, target, gammas = rows
    got = outcome_with_grad(box_loss_with_grad, pred, target, gammas)
    assert got == outcome_with_grad(loss_oracle.box_loss_with_grad, pred, target, gammas)
    if (loss_oracle._pieces(pred, target)[2] <= 0).any():
        assert got == ("ValueError", "degenerate pair")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(box_rows), st.integers(1, 6).flatmap(box_rows))
def test_pseudo_overlap_block_same_bytes(kept, truth):
    # DKD's overlap test: kept old predictions (k, 1, 4) against the ground truth (1, g, 4)
    a, b = kept[:, None], truth[None]
    assert_pieces_same(a, b)
    assert same(iou(a, b), oracle_iou(a, b))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 120).flatmap(lambda m: st.tuples(box_rows(m), box_rows(m))))
def test_evaluation_pairs_same_bytes(pairs):
    # evaluation's (M, 4) ranked detections against the (M, 4) ground truth each is paired with
    dets, gts = pairs
    assert_pieces_same(dets, gts)
    assert same(iou(dets, gts), oracle_iou(dets, gts))
    # one box against many, as public callers may pass it
    assert same(iou(dets[0], gts), oracle_iou(dets[0], gts))
