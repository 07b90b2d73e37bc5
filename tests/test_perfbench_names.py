"""The benchmark looks up ``tut`` names by attribute at run time.

``perfbench/tracing.py`` wraps the names in its tables with
``getattr``/``setattr``; ``perfbench/worker.py`` and
``perfbench/workloads.py`` call the entry points below. A deleted or
renamed one makes ``perfbench/run.py`` die with ``AttributeError`` or
``ImportError``. The perfbench modules are only read here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import tut
from tut import tensor as T

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (module, attribute) that perfbench's worker, workloads and step hooks use
ENTRY_POINTS = (
    ("cli", "main"),
    ("cli", "build_configs"),
    ("data", "read_features"),
    ("data", "write_features"),
    ("net", "count_attention_entries"),
    ("net", "load_checkpoint"),
    ("net", "model_forward"),
    ("net", "final_prediction"),
    ("trainer", "model_forward"),
    ("trainer", "total_loss"),
    ("trainer", "adam_step"),
)


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(pairs) -> list[str]:
    return [
        f"{mod}.{attr}" for mod, attr in pairs
        if not hasattr(importlib.import_module(f"{tut.__name__}.{mod}"), attr)
    ]


def test_every_name_the_tracer_patches_exists():
    tracing = _tracing()
    missing = [f"tensor.{op}" for op in tracing.TENSOR_OPS if not hasattr(T, op)]
    missing += _missing((mod, attr) for mod, attr, _ in tracing.LAYER_SPANS)
    assert not missing, f"perfbench patches names tut no longer has: {missing}"


def test_every_entry_point_the_worker_calls_exists():
    missing = _missing(ENTRY_POINTS)
    assert not missing, f"perfbench calls names tut no longer has: {missing}"
