"""The names the perfbench span tracer relies on still exist in qdq.

perfbench/tracer.py maps each per-layer metric to a qdq callable by name,
and perfbench/test_perfbench.py reads which modules bind leg_embed and
kron.  Those self-tests run apart from this suite, so a refactor could
break them while this suite stays green; these tests pin the same names.
tracer.py is only loaded, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import qdq.frt
import qdq.linalg
import qdq.rmatrix
import qdq.twist

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_name_resolves_in_qdq():
    span_times = load_tracer()._SPAN_TIMES
    assert span_times
    for metric, name in span_times.items():
        layer, *path = name.split(".")
        obj = importlib.import_module(f"qdq.{layer}")
        for attr in path:
            assert not attr.startswith("_") or attr.startswith("__"), name
            obj = getattr(obj, attr)
        # the tracer wraps only callables defined in the layer's own module
        assert callable(obj) and obj.__module__ == f"qdq.{layer}", (metric, name)


def test_modules_still_bind_leg_embed_and_kron():
    for mod in (qdq.frt, qdq.rmatrix, qdq.twist):
        assert mod.leg_embed is qdq.linalg.leg_embed, mod.__name__
    for mod in (qdq.frt, qdq.linalg):
        assert mod.kron is qdq.linalg.kron, mod.__name__
