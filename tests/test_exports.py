"""Every name in an export list can be imported, each module exports exactly its public API,
and every exported name is read from its module by the package, the benchmark or the tools."""

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


def _import_base(node: ast.ImportFrom, own: str | None) -> str | None:
    """The module a ``from ... import`` reads from; ``.x`` inside iodkit is ``iodkit.x``."""
    if node.level == 0:
        return node.module
    if own is None or node.level > 1:
        return None
    return "iodkit" + (f".{node.module}" if node.module else "")


def file_references(path: Path, own: str | None = None) -> set[tuple[str, str]]:
    """The (module, name) pairs of iodkit that the file at ``path`` reads.

    A name counts where it is imported from an iodkit module
    (``from .geometry import iou``), read as an attribute of an imported
    iodkit module (``td.forward_batch``), or, when the file is iodkit module
    ``own`` itself, read by bare name inside it. A local variable that shares
    an exported name does not count.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}  # local name -> iodkit module it is bound to
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in MODULES:
                    aliases[a.asname or a.name.split(".")[0]] = a.name if a.asname else "iodkit"
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, own)
            if base not in MODULES:
                continue
            for a in node.names:
                if f"{base}.{a.name}" in MODULES:
                    aliases[a.asname or a.name] = f"{base}.{a.name}"
                else:
                    refs.add((base, a.name))

    def module_of(expr) -> str | None:
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if isinstance(expr, ast.Attribute):
            outer = module_of(expr.value)
            if outer is not None and f"{outer}.{expr.attr}" in MODULES:
                return f"{outer}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = module_of(node.value)
            if module is not None and f"{module}.{node.attr}" not in MODULES:
                refs.add((module, node.attr))
        elif own is not None and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add((own, node.id))
    return refs


def referenced_names() -> set[tuple[str, str]]:
    """Every (module, name) of iodkit read by ``src/iodkit``, ``clbench/*.py`` or ``tools/*.py``."""
    refs = set()
    for path in (ROOT / "src" / "iodkit").glob("*.py"):
        refs |= file_references(path, "iodkit" if path.stem == "__init__" else f"iodkit.{path.stem}")
    for path in [*(ROOT / "clbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]:
        refs |= file_references(path)
    return refs


def test_every_export_is_called_outside_tests():
    """A name that only tests use belongs in ``tests/``; a definition is not a reference."""
    referenced = referenced_names()
    assert ("iodkit.matching", "hungarian") in referenced  # the walk sees the package's calls
    unreferenced = {n for m in SUBMODULES for n in importlib.import_module(m).__all__ if (m, n) not in referenced}
    assert sorted(unreferenced) == sorted(PENDING)


def test_walk_counts_module_reads_only(tmp_path):
    """Imports and module attributes count; a local variable named like an export does not."""
    path = tmp_path / "user.py"
    path.write_text(
        "from iodkit import toy_detector as td\n"
        "from iodkit.metrics import fpp\n"
        "import iodkit.labels\n"
        "_, giou = pair_iou_giou(a, b)\n"
        "td.forward_batch(giou)\n"
        "iodkit.labels.pad_to_n([], 1, 2)\n"
        "giou.iou\n"
    )
    assert file_references(path) == {
        ("iodkit.toy_detector", "forward_batch"),
        ("iodkit.metrics", "fpp"),
        ("iodkit.labels", "pad_to_n"),
    }


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

    assert geometry.__all__ == ["BoundingBox", "iou", "box_loss", "box_loss_with_grad"]


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
