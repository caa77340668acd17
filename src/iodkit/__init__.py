"""Incremental object detection toolkit.

Set-prediction matching and losses, label-level knowledge distillation,
distribution-preserving exemplar replay, phase protocols, COCO-style
metrics, and a small differentiable toy detector to run it all end to end.
Import from the submodules, e.g. ``from iodkit.labels import one_hot``.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
