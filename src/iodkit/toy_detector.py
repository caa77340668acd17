"""A minimal differentiable query-based detector and a synthetic data generator.

Each of the N queries owns its own linear classifier and box regressor
over a shared feature vector (queries are fixed and non-interchangeable,
so token-wise distillation is meaningful). The synthetic generator draws
orthonormal category prototypes; an image's feature is the normalized
prototype sum plus noise, and each category carries a canonical box so
localization is learnable from the feature alone. The generator's pixel
records are normalized by ``ingestion.normalize``, as a COCO file's are;
``SynthConfig`` checks itself when built, so that no jittered box is cropped.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .ingestion import Dataset, ImageInfo, RawAnnotation, RawDataset, normalize, write_atomic
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
INIT_SCALE = 0.1  # standard deviation of every initial weight


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
        if self.w_cls.ndim != 3 or self.w_box.ndim != 3:
            raise ValueError(f"heads must be 3-D, got w_cls {self.w_cls.shape} and w_box {self.w_box.shape}")
        if self.w_cls.shape[0] != self.w_box.shape[0] or self.w_cls.shape[2] != self.w_box.shape[2]:
            raise ValueError("class and box heads disagree on N or d")
        if self.w_box.shape[1] != 4:
            raise ValueError("box head must have 4 outputs")
        if not (np.isfinite(self.w_cls).all() and np.isfinite(self.w_box).all()):
            raise ValueError("non-finite parameters")


def init_params(n_queries: int, n_categories: int, feature_dim: int, seed: int) -> DetectorParams:
    """Weights drawn from a normal distribution of mean 0 and standard deviation ``INIT_SCALE``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1417]))
    w_cls = rng.normal(0.0, INIT_SCALE, size=(n_queries, n_categories + 1, feature_dim + 1))
    w_box = rng.normal(0.0, INIT_SCALE, size=(n_queries, 4, feature_dim + 1))
    return DetectorParams(w_cls, w_box)


def _augment(feature: np.ndarray) -> np.ndarray:
    return np.concatenate([np.asarray(feature, dtype=np.float64), [1.0]])


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of fresh logits ``z``, written into ``z``: it overwrites its argument."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _sigmoid(r: np.ndarray) -> np.ndarray:
    t = np.negative(r)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(1.0, t, out=t)


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
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D (B, d), got shape {features.shape}")
    if features.shape[1] != params.feature_dim:
        raise ValueError(f"feature dim {features.shape[1]} != detector dim {params.feature_dim}")
    xb = np.concatenate([features, np.ones((features.shape[0], 1))], axis=1)
    logits = np.einsum("ncd,bd->bnc", params.w_cls, xb)
    raw = np.einsum("nkd,bd->bnk", params.w_box, xb)
    return _softmax(logits), _sigmoid(raw)


def head_gradients(feature: np.ndarray, grad_logits: np.ndarray, grad_box_raw: np.ndarray) -> DetectorParams:
    """Chain loss gradients at the heads back to the per-query weights.

    Returns the per-query outer product of each head's gradient with the
    augmented feature: entry (n, c, d) is the single product
    ``grad[n, c] * xb[d]``. ``einsum`` writes it into a +0.0 output, so a
    -0.0 product reads +0.0; the sum of per-image gradients, which starts
    from +0.0 too, is the same either way.
    """
    xb = _augment(feature)
    return DetectorParams(
        w_cls=np.einsum("nc,d->ncd", grad_logits, xb),
        w_box=np.einsum("nk,d->nkd", grad_box_raw, xb),
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

    ``refine_ties`` is ignored; it goes when the benchmark stops passing it (ROADMAP item 1).
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
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    state.v_cls *= momentum
    state.v_cls += grads.w_cls
    state.v_box *= momentum
    state.v_box += grads.w_box
    params.w_cls -= lr * state.v_cls
    params.w_box -= lr * state.v_box
    return params


FEATURE_NOISE = 0.1  # Gaussian noise scale of a synthetic image feature
CENTER_MARGIN = 0.25  # canonical box centres lie in [CENTER_MARGIN, 1 - CENTER_MARGIN)
CENTER_JITTER = 0.02  # uniform jitter of a synthetic box's center, absolute,
SIZE_JITTER = 0.05  # and of its width and height, relative to its category's canonical box


def _is_integer(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic dataset shape and seed (noise and jitter: ``FEATURE_NOISE``, ``CENTER_JITTER``, ``SIZE_JITTER``)."""

    n_images: int = 200
    feature_dim: int = 64
    n_categories: int = 8
    objects_range: tuple[int, int] = (1, 3)  # inclusive
    box_size_range: tuple[float, float] = (0.2, 0.43)
    image_size: int = 640
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_images", 0), ("image_size", 1), ("feature_dim", 1), ("n_categories", 1), ("seed", 0)):
            v = getattr(self, name)
            if not _is_integer(v) or v < least:
                raise ValueError(f"{name} must be an integer >= {least} (a bool is not), got {v!r}")
        if self.feature_dim < self.n_categories:
            raise ValueError("feature_dim should be >= n_categories")
        lo, hi = self.objects_range
        if not (_is_integer(lo) and _is_integer(hi) and 1 <= lo <= hi <= self.n_categories):
            raise ValueError(f"objects_range must fit within the category count as integers, got {self.objects_range}")
        lo, hi = self.box_size_range
        # the largest jittered box, centred on the outermost jittered centre, ends at the image edge
        if not (0 < lo <= hi and hi * (1 + SIZE_JITTER) / 2 <= CENTER_MARGIN - CENTER_JITTER):
            raise ValueError(
                f"box_size_range {self.box_size_range} needs 0 < lo <= hi and "
                "hi * (1 + SIZE_JITTER) / 2 <= CENTER_MARGIN - CENTER_JITTER"
            )


def _category_prototypes(cfg: SynthConfig) -> np.ndarray:
    """(C, d) orthonormal prototype directions."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x9607]))
    raw = rng.normal(size=(cfg.feature_dim, cfg.n_categories))
    q, _ = np.linalg.qr(raw)
    return q.T[: cfg.n_categories]


def _category_boxes(cfg: SynthConfig) -> np.ndarray:
    """(C, 4) canonical normalized box per category."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB0C5]))
    lo, hi = cfg.box_size_range
    w = rng.uniform(lo, hi, size=cfg.n_categories)
    h = rng.uniform(lo, hi, size=cfg.n_categories)
    cx = rng.uniform(CENTER_MARGIN, 1 - CENTER_MARGIN, size=cfg.n_categories)
    cy = rng.uniform(CENTER_MARGIN, 1 - CENTER_MARGIN, size=cfg.n_categories)
    return np.column_stack([cx, cy, w, h])


def synth_generate(cfg: SynthConfig) -> tuple[Dataset, dict[int, np.ndarray]]:
    """Generate a dataset plus one feature vector per image.

    Every image holds 1..k distinct categories; its feature is the unit
    prototype sum plus Gaussian noise. Boxes are the category's canonical
    box with a little center/size jitter, drawn as pixel records and
    normalized by ``ingestion.normalize``, as a COCO file's are.
    """
    protos = _category_prototypes(cfg)
    boxes = _category_boxes(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xDA7A5E7]))

    size = cfg.image_size
    images = [ImageInfo(id=img_id, width=size, height=size) for img_id in range(1, cfg.n_images + 1)]
    annotations = []
    features: dict[int, np.ndarray] = {}
    lo, hi = cfg.objects_range
    for img_id in range(1, cfg.n_images + 1):
        cats = rng.choice(cfg.n_categories, size=int(rng.integers(lo, hi + 1)), replace=False)
        total = protos[cats].sum(axis=0)
        total /= np.linalg.norm(total)
        features[img_id] = total + FEATURE_NOISE * rng.normal(size=cfg.feature_dim)
        for c in sorted(int(c) for c in cats):
            cx = float(boxes[c, 0] + rng.uniform(-CENTER_JITTER, CENTER_JITTER))
            cy = float(boxes[c, 1] + rng.uniform(-CENTER_JITTER, CENTER_JITTER))
            px_w = float(boxes[c, 2] * (1 + rng.uniform(-SIZE_JITTER, SIZE_JITTER))) * size
            px_h = float(boxes[c, 3] * (1 + rng.uniform(-SIZE_JITTER, SIZE_JITTER))) * size
            bbox = (cx * size - px_w / 2, cy * size - px_h / 2, px_w, px_h)
            annotations.append(RawAnnotation(len(annotations) + 1, img_id, c, bbox))

    categories = [(c, f"synthetic_{c}") for c in range(cfg.n_categories)]
    return normalize(RawDataset(images, annotations, categories)), features


def save_checkpoint(params: DetectorParams, path: str | Path) -> None:
    """Write ``params`` as JSON: sorted keys, nested weight lists, a trailing newline.

    Every float64 round-trips bit for bit, and the stdlib ``json`` reads the file.
    orjson writes the weight arrays itself, in the bytes it writes for the
    same values as nested lists; it takes only C-contiguous arrays.
    """
    params.validate()
    doc = {
        "version": CHECKPOINT_VERSION,
        "n_queries": params.n_queries,
        "n_categories": params.n_categories,
        "feature_dim": params.feature_dim,
        "w_cls": np.ascontiguousarray(params.w_cls, dtype=np.float64),
        "w_box": np.ascontiguousarray(params.w_box, dtype=np.float64),
    }
    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY
    write_atomic(path, orjson.dumps(doc, option=option))


def load_checkpoint(path: str | Path) -> tuple[DetectorParams, None]:
    """The parameters saved at ``path``, and ``None``: a second value that goes with ROADMAP item 1."""
    doc = orjson.loads(Path(path).read_bytes())
    if not isinstance(doc, dict):
        raise ValueError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
    if type(doc.get("version")) is not int or doc["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    missing = [name for name in ("w_cls", "w_box") if name not in doc]
    if missing:
        raise ValueError(f"checkpoint lacks weights {missing}")
    params = DetectorParams(
        w_cls=np.asarray(doc["w_cls"], dtype=np.float64),
        w_box=np.asarray(doc["w_box"], dtype=np.float64),
    )
    params.validate()
    for name in ("n_queries", "n_categories", "feature_dim"):
        header, actual = doc.get(name), getattr(params, name)
        if type(header) is not int or header != actual:
            raise ValueError(f"checkpoint header {name}={header!r} but the weights give {actual}")
    return params, None
