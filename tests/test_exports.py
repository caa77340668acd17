"""Every name in an export list can be imported, and each module exports exactly its public API."""

import importlib
import inspect
import pkgutil

import pytest

import iodkit

SUBMODULES = [f"iodkit.{m.name}" for m in pkgutil.iter_modules(iodkit.__path__)]
MODULES = ["iodkit"] + SUBMODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_import(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_equals_public_definitions(name):
    """``__all__`` lists each public top-level function and class defined in the module, once."""
    module = importlib.import_module(name)
    public = [
        n
        for n, obj in vars(module).items()
        if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name
    ]
    assert sorted(module.__all__) == sorted(public)


def test_geometry_names_exported():
    from iodkit import geometry

    assert geometry.__all__ == ["BoundingBox", "corners_array", "iou", "giou", "box_loss", "box_loss_with_grad"]


def test_protocol_names_exported():
    from iodkit import protocol

    assert protocol.__all__ == ["PhasePlan", "PhaseDataset", "multi_phase_plan", "split", "plan_manifest", "write_manifest"]
