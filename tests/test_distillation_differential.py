"""``build_distilled`` gives the bytes and the warning of the selection it replaced.

``distillation_oracle`` keeps that selection verbatim, with the dense padding
of its time. ``build_distilled`` takes the ground truth as ``pad_to_n`` builds
it, given slots only, and the oracle its dense ``copy()``; the N-slot arrays
of the two results must agree byte for byte. Sets have 1-13
slots over 1-4 categories, with some background slots, planted score ties
(a copied row, or a category tying the background) and 0 to N ground-truth
boxes, some of them copies of an old box. k runs from 0 to N + 2 and the
overlap ceiling is 0, 1 or drawn; a set with many truths and a high
ceiling truncates.
"""

import logging
from contextlib import contextmanager

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distillation_oracle
from iodkit.distillation import PseudoConfig, build_distilled
from iodkit.labels import LabeledSet, Origin, pad_to_n


@contextmanager
def messages(logger_name):
    """The (level, message) pairs that ``logger_name`` emits inside the block."""
    records = []
    handler = logging.Handler()
    handler.emit = lambda record: records.append((record.levelno, record.getMessage()))
    logger = logging.getLogger(logger_name)
    logger.addHandler(handler)
    try:
        yield records
    finally:
        logger.removeHandler(handler)


def make_case(seed, n, c, n_gt, ties):
    """Old predictions and ground truth of length ``n``; ``ties`` planted score ties."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.full(c + 1, 0.5), size=n)
    boxes = np.column_stack([rng.uniform(0.2, 0.8, size=(n, 2)), rng.uniform(0.05, 0.5, size=(n, 2))])
    for _ in range(ties):
        a, b = rng.integers(n, size=2)
        if rng.random() < 0.5:
            probs[a] = probs[b]  # the same score on two slots
        else:
            probs[a] = 0.0  # a category ties the background: foreground by the first maximum
            probs[a, [int(rng.integers(c)), c]] = 0.5
    old = LabeledSet(probs, boxes, np.full(n, Origin.PREDICTION, dtype=np.int8))

    gt_boxes = np.column_stack([rng.uniform(0.2, 0.8, size=(n_gt, 2)), rng.uniform(0.05, 0.5, size=(n_gt, 2))])
    copied = rng.random(n_gt) < 0.3  # IoU 1 with an old box
    gt_boxes[copied] = boxes[rng.integers(n, size=int(copied.sum()))]
    gt_probs = np.eye(c + 1)[rng.integers(c, size=n_gt)]
    truth = LabeledSet(gt_probs, gt_boxes, np.full(n_gt, Origin.GROUND_TRUTH, dtype=np.int8))
    return old, pad_to_n([truth], n, c)


@st.composite
def cases(draw):
    n = draw(st.integers(1, 13))
    c = draw(st.integers(1, 4))
    return (
        draw(st.integers(0, 2**32 - 1)),
        n,
        c,
        draw(st.integers(0, n)),
        draw(st.integers(0, 3)),
        draw(st.integers(0, n + 2)),
        draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    )


@settings(max_examples=400, deadline=None)
@given(cases())
@example((0, 4, 2, 3, 0, 6, 1.0))  # k > N, one slot of room: truncation
@example((1, 13, 4, 12, 3, 13, 1.0))  # ties and truncation
@example((2, 5, 1, 0, 2, 0, 0.5))  # k = 0
@example((3, 8, 3, 4, 3, 8, 0.0))  # ceiling 0: any overlap drops
@example((4, 1, 1, 0, 0, 3, 0.7))  # one slot, k > N
def test_build_distilled_matches_oracle(case):
    seed, n, c, n_gt, ties, k, ceiling = case
    old, gt = make_case(seed, n, c, n_gt, ties)
    cfg = PseudoConfig(k=k, overlap_ceiling=ceiling)
    with messages("iodkit.distillation") as got_log:
        got = build_distilled(gt, old, cfg)
    with messages("distillation_oracle") as want_log:
        want = distillation_oracle.build_distilled(gt.copy(), old, cfg)
    for a, b in zip((got.probs, got.boxes, got.origins), (want.probs, want.boxes, want.origins)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got_log == want_log
