"""The per-layer trace in perfbench/tracing.py wraps fvbound functions by
their dotted paths; a refactor that moves or renames one would silently drop
its span, so every path must still resolve."""

import importlib.util
import os

import fvbound.cli

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    original = fvbound.cli.linf_l1_error
    with tracing.Instrumentation(tracing.Tracer()) as inst:
        assert inst.missing == []
        assert fvbound.cli.linf_l1_error is not original  # wrapped where callers look
    assert fvbound.cli.linf_l1_error is original
