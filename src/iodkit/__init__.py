"""Incremental object detection toolkit.

Set-prediction matching and losses, label-level knowledge distillation,
distribution-preserving exemplar replay, phase protocols, COCO-style
metrics, and a small differentiable toy detector to run it all end to end.
"""

from .geometry import BoundingBox
from .labels import LabeledSet, Origin, one_hot, pad_to_n

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "Origin",
    "LabeledSet",
    "one_hot",
    "pad_to_n",
    "__version__",
]
