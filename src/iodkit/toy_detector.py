"""A minimal differentiable query-based detector and a synthetic data generator.

Each of the N queries owns its own linear classifier and box regressor
over a shared feature vector (queries are fixed and non-interchangeable,
so token-wise distillation is meaningful). The synthetic generator draws
orthonormal category prototypes; an image's feature is the normalized
prototype sum plus noise, and each category carries a canonical box so
localization is learnable from the feature alone.
"""

from __future__ import annotations

import json
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import BoundingBox
from .ingestion import Annotation, Dataset, ImageInfo, write_atomic
from .labels import LabeledSet, Origin
from .losses import LossReport, dkd_loss

__all__ = [
    "DetectorParams",
    "MomentumState",
    "SynthConfig",
    "init_params",
    "forward",
    "forward_batch",
    "head_gradients",
    "backward",
    "sgd_step",
    "synth_generate",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1


@dataclass
class DetectorParams:
    """Per-query class and box weights; last input column is the bias."""

    w_cls: np.ndarray  # (N, C+1, d+1)
    w_box: np.ndarray  # (N, 4, d+1)

    @property
    def n_queries(self) -> int:
        return self.w_cls.shape[0]

    @property
    def n_categories(self) -> int:
        return self.w_cls.shape[1] - 1

    @property
    def feature_dim(self) -> int:
        return self.w_cls.shape[2] - 1

    def copy(self) -> "DetectorParams":
        return DetectorParams(self.w_cls.copy(), self.w_box.copy())

    def zeros_like(self) -> "DetectorParams":
        return DetectorParams(np.zeros_like(self.w_cls), np.zeros_like(self.w_box))

    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(self.w_cls.tobytes())
        h.update(self.w_box.tobytes())
        return h.hexdigest()

    def validate(self) -> None:
        if self.w_cls.shape[0] != self.w_box.shape[0] or self.w_cls.shape[2] != self.w_box.shape[2]:
            raise ValueError("class and box heads disagree on N or d")
        if self.w_box.shape[1] != 4:
            raise ValueError("box head must have 4 outputs")
        if not (np.isfinite(self.w_cls).all() and np.isfinite(self.w_box).all()):
            raise ValueError("non-finite parameters")


def init_params(n_queries: int, n_categories: int, feature_dim: int, seed: int, scale: float = 0.1) -> DetectorParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
    w_cls = rng.normal(0.0, scale, size=(n_queries, n_categories + 1, feature_dim + 1))
    w_box = rng.normal(0.0, scale, size=(n_queries, 4, feature_dim + 1))
    return DetectorParams(w_cls, w_box)


def _augment(feature: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(feature, dtype=np.float64), [1.0]])


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(r: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-r))


def forward(params: DetectorParams, feature: np.ndarray) -> LabeledSet:
    """Predictions for one feature vector: softmax classes, sigmoid boxes."""
    xb = _augment(feature)
    if xb.shape[0] != params.feature_dim + 1:
        raise ValueError(f"feature dim {xb.shape[0] - 1} != detector dim {params.feature_dim}")
    logits = params.w_cls @ xb
    raw = params.w_box @ xb
    return LabeledSet(
        probs=_softmax(logits),
        boxes=_sigmoid(raw),
        origins=np.full(params.n_queries, Origin.PREDICTION, dtype=np.int8),
    )


def forward_batch(params: DetectorParams, features: np.ndarray):
    """(B, d) features -> probs (B, N, C+1) and boxes (B, N, 4)."""
    features = np.asarray(features, dtype=np.float64)
    xb = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    logits = np.einsum("ncd,bd->bnc", params.w_cls, xb)
    raw = np.einsum("nkd,bd->bnk", params.w_box, xb)
    return _softmax(logits), _sigmoid(raw)


def head_gradients(feature: np.ndarray, grad_logits: np.ndarray, grad_box_raw: np.ndarray) -> DetectorParams:
    """Chain loss gradients at the heads back to the per-query weights."""
    xb = _augment(feature)
    return DetectorParams(
        w_cls=grad_logits[:, :, None] * xb[None, None, :],
        w_box=grad_box_raw[:, :, None] * xb[None, None, :],
    )


def backward(
    params: DetectorParams,
    feature: np.ndarray,
    distilled: LabeledSet,
    gamma1: float,
    gamma2: float,
    background_class_weight: float = 1.0,
    refine_ties: bool = True,
) -> tuple[DetectorParams, LossReport]:
    """Parameter gradient of the matched set loss for one image.

    ``refine_ties`` is ignored; it goes when the benchmark stops passing it (ROADMAP item 5).
    """
    preds = forward(params, feature)
    _, report = dkd_loss(preds, distilled, gamma1, gamma2, background_class_weight=background_class_weight)
    return head_gradients(feature, report.grad_logits, report.grad_box_raw), report


@dataclass
class MomentumState:
    v_cls: np.ndarray
    v_box: np.ndarray

    @staticmethod
    def zeros(params: DetectorParams) -> "MomentumState":
        return MomentumState(np.zeros_like(params.w_cls), np.zeros_like(params.w_box))


def sgd_step(
    params: DetectorParams,
    grads: DetectorParams,
    lr: float,
    state: MomentumState,
    momentum: float = 0.9,
) -> DetectorParams:
    """Classic momentum update v <- mu v + g; theta <- theta - lr v (in place)."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    state.v_cls *= momentum
    state.v_cls += grads.w_cls
    state.v_box *= momentum
    state.v_box += grads.w_box
    params.w_cls -= lr * state.v_cls
    params.w_box -= lr * state.v_box
    return params


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic dataset shape and randomness."""

    n_images: int = 200
    feature_dim: int = 64
    n_categories: int = 8
    objects_range: tuple[int, int] = (1, 3)  # inclusive
    noise: float = 0.1
    box_size_range: tuple[float, float] = (0.2, 0.45)
    center_jitter: float = 0.02
    size_jitter: float = 0.05
    image_size: int = 640
    seed: int = 0

    def validate(self) -> None:
        if self.feature_dim < self.n_categories:
            raise ValueError("feature_dim should be >= n_categories")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        lo, hi = self.objects_range
        if not 1 <= lo <= hi <= self.n_categories:
            raise ValueError("objects_range must fit within the category count")


def category_prototypes(cfg: SynthConfig) -> np.ndarray:
    """(C, d) orthonormal prototype directions."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9607]))
    raw = rng.normal(size=(cfg.feature_dim, cfg.n_categories))
    q, _ = np.linalg.qr(raw)
    return q.T[: cfg.n_categories]


def category_boxes(cfg: SynthConfig) -> np.ndarray:
    """(C, 4) canonical normalized box per category."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB0C5]))
    lo, hi = cfg.box_size_range
    w = rng.uniform(lo, hi, size=cfg.n_categories)
    h = rng.uniform(lo, hi, size=cfg.n_categories)
    cx = rng.uniform(0.25, 0.75, size=cfg.n_categories)
    cy = rng.uniform(0.25, 0.75, size=cfg.n_categories)
    return np.column_stack([cx, cy, w, h])


def synth_generate(cfg: SynthConfig, id_offset: int = 0) -> tuple[Dataset, dict[int, np.ndarray]]:
    """Generate a dataset plus one feature vector per image.

    Every image holds 1..k distinct categories; its feature is the unit
    prototype sum plus Gaussian noise. Boxes are the category's canonical
    box with a little center/size jitter.
    """
    cfg.validate()
    protos = category_prototypes(cfg)
    boxes = category_boxes(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xDA7A5E7]))

    images = []
    annotations = []
    features: dict[int, np.ndarray] = {}
    aid = 1
    for i in range(cfg.n_images):
        img_id = id_offset + i + 1
        lo, hi = cfg.objects_range
        m = int(rng.integers(lo, hi + 1))
        cats = rng.choice(cfg.n_categories, size=m, replace=False)

        total = protos[cats].sum(axis=0)
        total /= np.linalg.norm(total)
        feature = total + cfg.noise * rng.normal(size=cfg.feature_dim)
        features[img_id] = feature

        images.append(ImageInfo(id=img_id, width=cfg.image_size, height=cfg.image_size))
        for c in sorted(int(c) for c in cats):
            base = boxes[c]
            cx = float(np.clip(base[0] + rng.uniform(-cfg.center_jitter, cfg.center_jitter), 0.0, 1.0))
            cy = float(np.clip(base[1] + rng.uniform(-cfg.center_jitter, cfg.center_jitter), 0.0, 1.0))
            w = float(np.clip(base[2] * (1 + rng.uniform(-cfg.size_jitter, cfg.size_jitter)), 0.01, 1.0))
            h = float(np.clip(base[3] * (1 + rng.uniform(-cfg.size_jitter, cfg.size_jitter)), 0.01, 1.0))
            box = BoundingBox(cx, cy, w, h)
            px_w, px_h = w * cfg.image_size, h * cfg.image_size
            annotations.append(
                Annotation(
                    id=aid,
                    image_id=img_id,
                    category=c,
                    box=box,
                    area_px=px_w * px_h,
                    bbox_px=(cx * cfg.image_size - px_w / 2, cy * cfg.image_size - px_h / 2, px_w, px_h),
                )
            )
            aid += 1

    names = [f"synthetic_{c}" for c in range(cfg.n_categories)]
    dataset = Dataset(
        images=images,
        annotations=annotations,
        category_names=names,
        category_map={c: c for c in range(cfg.n_categories)},
    )
    return dataset, features


def save_checkpoint(params: DetectorParams, path: str | Path, config_hash: str | None = None) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "config_hash": config_hash,
        "n_queries": params.n_queries,
        "n_categories": params.n_categories,
        "feature_dim": params.feature_dim,
        "w_cls": params.w_cls.tolist(),
        "w_box": params.w_box.tolist(),
    }
    write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> tuple[DetectorParams, str | None]:
    doc = json.loads(Path(path).read_text())
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    params = DetectorParams(
        w_cls=np.asarray(doc["w_cls"], dtype=np.float64),
        w_box=np.asarray(doc["w_box"], dtype=np.float64),
    )
    params.validate()
    for name in ("n_queries", "n_categories", "feature_dim"):
        header, actual = doc.get(name), getattr(params, name)
        if header != actual:
            raise ValueError(f"checkpoint header {name}={header!r} but the weights give {actual}")
    return params, doc.get("config_hash")
