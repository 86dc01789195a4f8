"""The per-layer metrics named in BENCHMARK.json trace functions that exist.

The tracer (perfbench/tracer.py) wraps every public function defined in a
``decalage`` module and reports ``module.function.stat``; a metric whose
function was renamed or moved would silently read zero.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_library_functions():
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [metric["name"] for metric in json.load(fh)["per_layer"]]
    traced = [name.split(".") for name in names if len(name.split(".")) == 3]
    assert traced
    missing = []
    for module_name, function_name, _ in traced:
        module = importlib.import_module(f"decalage.{module_name}")
        fn = getattr(module, function_name, None)
        if (function_name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            missing.append(f"{module_name}.{function_name}")
    assert missing == []
