"""The benchmark's tracer patches ``tut`` names that it looks up by name.

``perfbench/tracing.py`` wraps every name below with ``getattr``/``setattr``,
and ``perfbench/worker.py`` calls ``tut.net.count_attention_entries``; a
deleted or renamed one makes ``perfbench/run.py --trace 1`` die with
``AttributeError``. The tracer module is only imported here, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

import tut
from tut import net as N
from tut import tensor as T

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_patches_exists():
    tracing = _tracing()
    missing = [f"tensor.{op}" for op in tracing.TENSOR_OPS if not hasattr(T, op)]
    for mod, attr, _ in tracing.LAYER_SPANS:
        module = importlib.import_module(f"{tut.__name__}.{mod}")
        if not hasattr(module, attr):
            missing.append(f"{mod}.{attr}")
    assert not missing, f"perfbench patches names tut no longer has: {missing}"
    assert hasattr(N, "count_attention_entries")
