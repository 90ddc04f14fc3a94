"""The benchmark's traced stages must name functions that exist.

perfbench/tracer.py reports a missing target as absent rather than failing,
so a renamed stage would silently drop out of the per-layer metrics.  The
file is read, not imported or run.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_traced_target_is_a_blocksieve_callable():
    targets = _targets()
    assert targets
    for name, (module, path) in targets.items():
        assert module.startswith("blocksieve."), name
        obj = importlib.import_module(module)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
            assert obj is not None, f"{name}: {module}.{path} does not exist"
        assert callable(obj), f"{name}: {module}.{path} is not callable"
