"""Every name in an export list can be imported, each module exports exactly its public API,
and every exported name is called by the package, the benchmark or the tools."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import iodkit

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = [f"iodkit.{m.name}" for m in pkgutil.iter_modules(iodkit.__path__)]
MODULES = ["iodkit"] + SUBMODULES

# Exported names that no run calls yet; each waits on the ROADMAP item named beside it.
PENDING = {
    "random_select",  # item 6: the random-memory ablation
    "classical_kd_loss",  # item 6: the classical-distillation ablation
    "fpp",  # item 1: the benchmark reports forgetting
    "write_manifest",  # item 4: the run writes its phase manifest
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_import(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def referenced_names() -> set[str]:
    """Every Name and Attribute in ``src/iodkit``, ``clbench/*.py`` and ``tools/*.py``."""
    paths = [*(ROOT / "src" / "iodkit").glob("*.py"), *(ROOT / "clbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_called_outside_tests():
    """A name that only tests use belongs in ``tests/``; a definition is not a reference."""
    referenced = referenced_names()
    assert "hungarian" in referenced  # the walk sees the package's calls
    exported = {n for name in SUBMODULES for n in importlib.import_module(name).__all__}
    assert sorted(exported - referenced) == sorted(PENDING)


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

    assert geometry.__all__ == ["BoundingBox", "iou", "giou", "box_loss", "box_loss_with_grad"]


def test_protocol_names_exported():
    from iodkit import protocol

    assert protocol.__all__ == ["PhasePlan", "PhaseDataset", "multi_phase_plan", "split", "plan_manifest", "write_manifest"]


def test_matching_names_exported():
    from iodkit import matching

    assert matching.__all__ == ["CostMatrix", "Assignment", "build_cost", "hungarian"]


def test_ingestion_names_exported():
    from iodkit import ingestion

    assert ingestion.__all__ == [
        "RawAnnotation",
        "RawDataset",
        "ImageInfo",
        "Annotation",
        "AnnotatedImages",
        "Dataset",
        "parse_coco",
        "normalize",
        "canonical_json",
        "write_atomic",
    ]
