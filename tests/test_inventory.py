"""The knob inventory of ROADMAP aim 2, counted from the source.

The inventory is, over every ``def`` in ``src/magflow/*.py``, the
parameters with a default plus any ``**kwargs``, plus the fields of
``SamplingConfig``. A new default changes the count, and with it the
figure ROADMAP records.
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
