"""Structural counts of ROADMAP aim 2, read from the source.

The knob inventory is, over every ``def`` in ``src/magflow/*.py``, the
parameters with a default plus any ``**kwargs``, plus the fields of
``SamplingConfig``. A new default changes the count, and with it the
figure ROADMAP records. The model-class dispatches in the modules that
consume surface models are pinned at zero.
"""

import ast
from pathlib import Path

import magflow

INVENTORY = 21


def knob_inventory(package_dir: Path) -> int:
    total = 0
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                total += len(args.defaults) + (args.kwarg is not None)
                total += sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and node.name == "SamplingConfig":
                total += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return total


def test_knob_inventory():
    assert knob_inventory(Path(magflow.__file__).parent) == INVENTORY


def test_no_module_decides_by_the_class_of_a_model():
    # every per-kind answer is a method of the model (geometry.SurfaceModel)
    package = Path(magflow.__file__).parent
    for name in ("geometry", "flow", "anosov"):
        assert (package / (name + ".py")).read_text().count("isinstance(model") == 0
