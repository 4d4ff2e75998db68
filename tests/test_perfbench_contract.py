"""perfbench's tracer wraps gapkit's functions by name, from outside the
package: every (module, attribute) it lists must resolve in the imported
gapkit, or a traced benchmark run fails.  The tracer's lists are read from
its source, which is neither imported nor changed."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_lists() -> dict[str, list[tuple[str, str]]]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SPANS", "COUNTS")}


def test_tracer_names_resolve_in_gapkit():
    lists = _tracer_lists()
    assert set(lists) == {"SPANS", "COUNTS"}
    missing = []
    for mod, attr in lists["SPANS"] + lists["COUNTS"]:
        owner = importlib.import_module("gapkit." + mod)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod}.{attr}")
    assert not missing, "tracer names that gapkit lacks: " + ", ".join(missing)
