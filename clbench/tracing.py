"""Spans around iodkit's public functions, recorded from the benchmark's side.

``Tracer.install()`` replaces module attributes with wrappers that pass
their arguments through unchanged and record (name, start, end, parent).
Functions that iodkit calls internally are wrapped where the caller looks
them up: ``dkd_loss`` finds ``build_cost``, ``hungarian`` and ``detr_loss``
in ``iodkit.losses``; ``backward`` finds ``forward``, ``dkd_loss`` and
``head_gradients`` in ``iodkit.toy_detector``. Spans stay in memory until
``dump()``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

import numpy as np

from iodkit import distillation, exemplar, ingestion, labels, losses, metrics, protocol
from iodkit import toy_detector as td


def _count_normalize(args, kwargs, result):
    return {"ingestion.annotations": len(result.annotations)}


def _count_forward_batch(args, kwargs, result):
    return {"toy_detector.forward_images": len(args[1])}


def _count_forward(args, kwargs, result):
    return {"toy_detector.forward_images": 1}


def _count_save(args, kwargs, result):
    return {"toy_detector.checkpoint_bytes": os.path.getsize(args[1]), "toy_detector.saves": 1}


def _count_build_cost(args, kwargs, result):
    targets = args[0]
    return {
        "matching.cost_entries": result.values.size,
        "matching.fg_rows": int(np.count_nonzero(targets.foreground_mask())),
    }


def _count_distilled(args, kwargs, result):
    old_preds = args[1]
    return {
        "distillation.old_fg": int(np.count_nonzero(old_preds.foreground_mask())),
        "distillation.pseudo_kept": int(np.count_nonzero(result.origins == labels.Origin.PSEUDO)),
    }


def _count_selected(args, kwargs, result):
    return {"exemplar.selected": len(result)}


def _count_detections(args, kwargs, result):
    return {"metrics.detections": len(result)}


# (module, attribute, span name, counter). A name may appear under several
# modules; each lookup site of a function gets its own wrapper.
TARGETS = (
    (ingestion, "parse_coco", "ingestion.parse", None),
    (ingestion, "normalize", "ingestion.normalize", _count_normalize),
    (protocol, "split", "protocol.split", None),
    (labels, "pad_to_n", "labels.pad", None),
    (td, "forward_batch", "toy_detector.forward", _count_forward_batch),
    (td, "forward", "toy_detector.forward", _count_forward),
    (td, "head_gradients", "toy_detector.head_grad", None),
    (td, "backward", "toy_detector.backward", None),
    (td, "sgd_step", "toy_detector.sgd", None),
    (td, "save_checkpoint", "toy_detector.save", _count_save),
    (td, "load_checkpoint", "toy_detector.load", None),
    (td, "dkd_loss", "losses.dkd", None),
    (losses, "dkd_loss", "losses.dkd", None),
    (losses, "build_cost", "matching.cost", _count_build_cost),
    (losses, "hungarian", "matching.assign", None),
    (losses, "detr_loss", "losses.detr", None),
    (distillation, "build_distilled", "distillation.build", _count_distilled),
    (exemplar, "greedy_select", "exemplar.select", _count_selected),
    (metrics, "detections_from_predictions", "metrics.postproc", _count_detections),
    (metrics, "evaluate_detections", "metrics.evaluate", None),
)


class Tracer:
    """In-memory span recorder; one per traced round."""

    def __init__(self, now):
        self.now = now  # experiment.Clock.now: leaves the reference bursts out of every span
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, now = self.spans, self._stack, self.counts, self.now

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = now()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return dict(out)

    def durations(self, name: str) -> np.ndarray:
        return np.array([end - start for n, start, end, _ in self.spans if n == name])

    def dump(self, path) -> None:
        doc = {
            "version": 1,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(doc))
