"""Every name in an export list can be imported."""

import importlib
import pkgutil

import pytest

import iodkit

MODULES = ["iodkit"] + [f"iodkit.{m.name}" for m in pkgutil.iter_modules(iodkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_import(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_pair_iou_exported():
    from iodkit import geometry

    assert {"iou_pairs", "iou_matrix"} <= set(geometry.__all__)
