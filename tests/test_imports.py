"""Every module of the package uses every name it imports, and the verifier
still calls every layer entry point that the benchmark's trace measures.

`__init__.py` is skipped: its imports are the public re-exports.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

import abcmax
from abcmax import verifier

PACKAGE = Path(abcmax.__file__).parent
ROOT = PACKAGE.parents[1]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import sqrt, pi\nprint(pi)\n") == [
        "os (line 1)", "sqrt (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


# entry points that perfbench/layer_trace.py still lists but the verifier
# stopped importing before this guard; the traced run reports them as missing
ALREADY_MISSING = {"connected_graphs", "subtree_seeds"}


def test_verifier_calls_every_traced_entry_point():
    # The traced benchmark run wraps the names `abcmax.verifier` binds, so a
    # scan that stops calling one loses its per-layer metrics; the import
    # test above would then push for the import to go as well.
    spec = importlib.util.spec_from_file_location(
        "layer_trace", ROOT / "perfbench" / "layer_trace.py")
    layer_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layer_trace)
    layers = layer_trace.LAYERS
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    behind = set()
    for metric in metrics:
        layer, *rest = metric.split(".")
        if layer not in layers:
            continue  # verifier.* and trace.* are not layer entry points
        if len(rest) == 2:  # layer.entry_point.statistic
            assert rest[0] in layers[layer], metric
            behind.add(rest[0])
        else:  # layer.s, layer.graphs, layer.us_per_graph
            behind.update(set(layers[layer]) - ALREADY_MISSING)
    tree = ast.parse((PACKAGE / "verifier.py").read_text())
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"is_k_colorable", "edge_connectivity", "expand_seed", "are_isomorphic"} <= behind
    assert sorted(name for name in behind
                  if not callable(getattr(verifier, name, None)) or name not in called) == []
